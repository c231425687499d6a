#include "store/block_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"

namespace d2::store {
namespace {

Key K(std::uint64_t v) { return Key::from_uint64(v); }

TEST(BlockMap, InsertAccounting) {
  BlockMap m(5);
  m.insert(K(10), 100, {0, 1, 2});
  EXPECT_TRUE(m.contains(K(10)));
  EXPECT_EQ(m.block_count(), 1u);
  EXPECT_EQ(m.total_bytes(), 100);
  EXPECT_EQ(m.primary_count(0), 1);
  EXPECT_EQ(m.primary_bytes(0), 100);
  EXPECT_EQ(m.primary_count(1), 0);
  for (int n : {0, 1, 2}) EXPECT_EQ(m.physical_bytes(n), 100);
  EXPECT_EQ(m.physical_bytes(3), 0);
}

TEST(BlockMap, EraseRestoresAccounting) {
  BlockMap m(5);
  m.insert(K(10), 100, {0, 1, 2});
  m.erase(K(10));
  EXPECT_FALSE(m.contains(K(10)));
  EXPECT_EQ(m.total_bytes(), 0);
  for (int n = 0; n < 5; ++n) {
    EXPECT_EQ(m.physical_bytes(n), 0);
    EXPECT_EQ(m.primary_count(n), 0);
  }
}

TEST(BlockMap, DuplicateInsertThrows) {
  BlockMap m(3);
  m.insert(K(1), 10, {0});
  EXPECT_THROW(m.insert(K(1), 10, {1}), PreconditionError);
}

TEST(BlockMap, ReassignNewMembersJoinAsPointers) {
  BlockMap m(5);
  m.insert(K(10), 100, {0, 1, 2});
  m.reassign_replicas(K(10), *m.find_mutable(K(10)), {0, 1, 3});
  const BlockState* b = m.find(K(10));
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->replicas.size(), 3u);
  EXPECT_TRUE(b->replicas[0].has_data);
  EXPECT_TRUE(b->replicas[1].has_data);
  EXPECT_FALSE(b->replicas[2].has_data);  // node 3 joined as pointer
  EXPECT_EQ(b->replicas[2].fetch_timer, 0u);  // with no fetch timer yet
  EXPECT_EQ(b->replicas[2].fetch_due, kSimTimeNever);
  // Node 2 left but is kept as a stale holder because node 3 lacks data.
  EXPECT_EQ(b->stale_holders, (std::vector<int>{2}));
  EXPECT_EQ(m.physical_bytes(2), 100);
  EXPECT_EQ(m.physical_bytes(3), 0);
}

TEST(BlockMap, ReassignDropsUnneededDepartingCopy) {
  BlockMap m(5);
  m.insert(K(10), 100, {0, 1, 2});
  // All new members already have data -> departing copy deleted.
  m.reassign_replicas(K(10), *m.find_mutable(K(10)), {0, 1});
  const BlockState* b = m.find(K(10));
  EXPECT_TRUE(b->stale_holders.empty());
  EXPECT_EQ(m.physical_bytes(2), 0);
}

TEST(BlockMap, MarkDataResolvesPointerAndPrunesStale) {
  BlockMap m(5);
  m.insert(K(10), 100, {0, 1, 2});
  BlockState* b = m.find_mutable(K(10));
  m.reassign_replicas(K(10), *b, {0, 1, 3});
  m.mark_data(m.handle_of(K(10)), *b, 3);
  EXPECT_TRUE(b->replicas[2].has_data);
  EXPECT_TRUE(b->stale_holders.empty());      // stale copy at 2 pruned
  EXPECT_EQ(m.physical_bytes(3), 100);
  EXPECT_EQ(m.physical_bytes(2), 0);
}

TEST(BlockMap, PrimaryChangeUpdatesCounts) {
  BlockMap m(5);
  m.insert(K(10), 100, {0, 1, 2});
  m.reassign_replicas(K(10), *m.find_mutable(K(10)), {4, 0, 1});
  EXPECT_EQ(m.primary_count(0), 0);
  EXPECT_EQ(m.primary_count(4), 1);
  EXPECT_EQ(m.primary_bytes(4), 100);
}

TEST(BlockMap, RejoiningStaleHolderKeepsData) {
  BlockMap m(5);
  m.insert(K(10), 100, {0, 1, 2});
  BlockState* b = m.find_mutable(K(10));
  m.reassign_replicas(K(10), *b, {0, 1, 3});  // 2 -> stale holder
  m.reassign_replicas(K(10), *b, {0, 1, 2});  // 2 rejoins
  EXPECT_TRUE(b->replicas[2].has_data);  // didn't lose its bytes
  EXPECT_EQ(m.physical_bytes(2), 100);
  EXPECT_TRUE(b->stale_holders.empty());
}

TEST(BlockMap, MarkMissingDowngrades) {
  BlockMap m(3);
  m.insert(K(5), 64, {0, 1});
  m.mark_missing(K(5), 1);
  const BlockState* b = m.find(K(5));
  EXPECT_FALSE(b->replicas[1].has_data);
  EXPECT_EQ(m.physical_bytes(1), 0);
  m.mark_data(m.handle_of(K(5)), *m.find_mutable(K(5)), 1);
  EXPECT_EQ(m.physical_bytes(1), 64);
}

TEST(BlockMap, MedianPrimaryKeySplitsInHalf) {
  BlockMap m(3);
  for (std::uint64_t i = 1; i <= 10; ++i) m.insert(K(i * 10), 8, {0});
  // Arc covering all 10 blocks: median = 5th block's key.
  auto median = m.median_primary_key(K(0), K(200));
  ASSERT_TRUE(median.has_value());
  EXPECT_EQ(*median, K(50));
}

TEST(BlockMap, MedianNeedsTwoBlocks) {
  BlockMap m(3);
  m.insert(K(10), 8, {0});
  EXPECT_FALSE(m.median_primary_key(K(0), K(100)).has_value());
}

TEST(BlockMap, MedianAvoidsCollidingWithArcEnd) {
  BlockMap m(3);
  m.insert(K(10), 8, {0});
  m.insert(K(20), 8, {0});
  // Only two blocks; median would be K(10) != arc end: fine.
  EXPECT_EQ(m.median_primary_key(K(0), K(20)), K(10));
  // If the median equals the arc end it must be rejected.
  BlockMap m2(3);
  m2.insert(K(5), 8, {0});
  m2.insert(K(5).next(), 8, {0});
  // keys {5, 6}; median = keys[0] = 5; arc end 5 -> reject.
  EXPECT_FALSE(m2.median_primary_key(K(4), K(5)).has_value());
}

/// Keys for_each_in_arc visits over (from, to], in visiting order.
std::vector<Key> visited(BlockMap& m, const Key& from, const Key& to) {
  std::vector<Key> out;
  m.for_each_in_arc(from, to,
                    [&out](const Key& k, BlockState&) { out.push_back(k); });
  return out;
}

TEST(BlockMap, ArcIterationNonWrapping) {
  BlockMap m(2);
  for (std::uint64_t i = 1; i <= 5; ++i) m.insert(K(i * 10), 8, {0});
  EXPECT_EQ(visited(m, K(10), K(30)), (std::vector<Key>{K(20), K(30)}));
  EXPECT_EQ(visited(m, K(50), K(50)),  // whole ring
            (std::vector<Key>{K(10), K(20), K(30), K(40), K(50)}));
}

TEST(BlockMap, ArcIterationWrapping) {
  BlockMap m(2);
  for (std::uint64_t i = 1; i <= 5; ++i) m.insert(K(i * 10), 8, {0});
  m.insert(Key::max(), 8, {1});
  EXPECT_EQ(visited(m, K(35), K(15)),
            (std::vector<Key>{K(40), K(50), Key::max(), K(10)}));
  EXPECT_EQ(visited(m, Key::max(), K(20)), (std::vector<Key>{K(10), K(20)}));
}

TEST(BlockMap, ReassignToCurrentMembersChangesNothing) {
  BlockMap m(5);
  m.insert(K(10), 100, {0, 1, 2});
  m.insert(K(20), 100, {1, 2, 3});
  BlockState* b = m.find_mutable(K(10));
  m.reassign_replicas(K(10), *b, {0, 1, 3});  // 3 joins as pointer, 2 stale
  // A recorded pending timer and a transfer in flight.
  b->replicas[2].fetch_timer = 7;
  b->replicas[2].fetch_due = 90;
  b->replicas[2].fetch_in_flight = true;
  const std::vector<Replica> replicas = b->replicas;
  const std::vector<int> stale = b->stale_holders;
  auto accounting = [&m] {
    std::vector<std::int64_t> out;
    for (int n = 0; n < m.node_count(); ++n) {
      out.insert(out.end(),
                 {m.primary_count(n), m.primary_bytes(n), m.physical_bytes(n)});
    }
    return out;
  };
  const std::vector<std::int64_t> before = accounting();

  EXPECT_FALSE(m.reassign_replicas(K(10), *b, {0, 1, 3}));
  ASSERT_EQ(b->replicas.size(), replicas.size());
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const Replica& now = b->replicas[i];
    EXPECT_EQ(now.node, replicas[i].node) << i;
    EXPECT_EQ(now.fetch_timer, replicas[i].fetch_timer) << i;
    EXPECT_EQ(now.fetch_due, replicas[i].fetch_due) << i;
    EXPECT_EQ(now.has_data, replicas[i].has_data) << i;
    EXPECT_EQ(now.fetch_in_flight, replicas[i].fetch_in_flight) << i;
  }
  EXPECT_EQ(b->stale_holders, stale);
  EXPECT_EQ(accounting(), before);
  // The same members in another order are a different set: the primary
  // moves.
  EXPECT_TRUE(m.reassign_replicas(K(10), *b, {1, 0, 3}));
  EXPECT_EQ(m.primary_count(1), 2);
  m.check_invariants();
}

TEST(BlockMap, NodeHasDataQueries) {
  BlockMap m(4);
  m.insert(K(1), 8, {0, 1});
  const BlockState* b = m.find(K(1));
  EXPECT_TRUE(b->node_has_data(0));
  EXPECT_TRUE(b->is_replica(1));
  EXPECT_FALSE(b->is_replica(2));
  EXPECT_FALSE(b->node_has_data(3));
}

// Accounting invariant sweep: after an arbitrary series of operations, the
// per-node physical byte totals equal what a full recount gives.
class BlockMapInvariantSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BlockMapInvariantSweep, AccountingMatchesRecount) {
  Rng rng(GetParam());
  const int nodes = 8;
  BlockMap m(nodes);
  std::vector<Key> live;
  for (int step = 0; step < 500; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.4 || live.empty()) {
      Key k = Key::random(rng);
      if (m.contains(k)) continue;
      std::vector<int> set;
      const int r = 1 + static_cast<int>(rng.next_below(3));
      for (int i = 0; i < r; ++i) {
        int n = static_cast<int>(rng.next_below(nodes));
        if (std::find(set.begin(), set.end(), n) == set.end()) set.push_back(n);
      }
      m.insert(k, 8 + static_cast<Bytes>(rng.next_below(100)), set);
      live.push_back(k);
    } else if (roll < 0.6) {
      const std::size_t i = rng.next_below(live.size());
      m.erase(live[i]);
      live.erase(live.begin() + static_cast<long>(i));
    } else {
      const std::size_t i = rng.next_below(live.size());
      std::vector<int> set;
      const int r = 1 + static_cast<int>(rng.next_below(3));
      for (int j = 0; j < r; ++j) {
        int n = static_cast<int>(rng.next_below(nodes));
        if (std::find(set.begin(), set.end(), n) == set.end()) set.push_back(n);
      }
      BlockState* b = m.find_mutable(live[i]);
      m.reassign_replicas(live[i], *b, set);
      // Resolve some pointers.
      for (const Replica& rep : b->replicas) {
        if (!rep.has_data && rng.bernoulli(0.5)) {
          m.mark_data(m.handle_of(live[i]), *b, rep.node);
          break;
        }
      }
    }
  }
  // Recount.
  std::vector<Bytes> phys(nodes, 0), prim_bytes(nodes, 0);
  std::vector<std::int64_t> prim_count(nodes, 0);
  Bytes total = 0;
  m.for_each_block([&](const Key&, const BlockState& b) {
    total += b.size;
    prim_count[static_cast<std::size_t>(b.replicas.front().node)] += 1;
    prim_bytes[static_cast<std::size_t>(b.replicas.front().node)] += b.size;
    for (const Replica& r : b.replicas) {
      if (r.has_data) phys[static_cast<std::size_t>(r.node)] += b.size;
    }
    for (int n : b.stale_holders) phys[static_cast<std::size_t>(n)] += b.size;
  });
  EXPECT_EQ(m.total_bytes(), total);
  for (int n = 0; n < nodes; ++n) {
    EXPECT_EQ(m.physical_bytes(n), phys[static_cast<std::size_t>(n)]) << n;
    EXPECT_EQ(m.primary_bytes(n), prim_bytes[static_cast<std::size_t>(n)]) << n;
    EXPECT_EQ(m.primary_count(n), prim_count[static_cast<std::size_t>(n)]) << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockMapInvariantSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Block handles ---

/// Every stored key's handle resolves to the state find() returns.
void ExpectHandlesResolve(const BlockMap& m,
                          const std::vector<std::pair<Key, BlockHandle>>& held) {
  for (const auto& [k, h] : held) {
    ASSERT_NE(m.at(h), nullptr) << "handle of a stored key stopped resolving";
    EXPECT_EQ(m.at(h), m.find(k));
    EXPECT_EQ(m.handle_of(k), h);
  }
}

TEST(BlockHandle, SurvivesChunkSpillsSplitsAndNeighbourErases) {
  BlockMap m(8);
  std::vector<std::pair<Key, BlockHandle>> held;
  std::vector<const BlockState*> addresses;
  // Sparse anchors, then ascending runs between them: the runs overflow
  // chunks, which spill into neighbours and split, moving index entries
  // (never block states) between chunks.
  for (std::uint64_t i = 0; i < 64; ++i) {
    const Key k = Key::from_high64(i << 56);
    held.emplace_back(k, m.insert(k, 100, {int(i % 8)}));
  }
  for (std::uint64_t run = 0; run < 64; run += 5) {
    for (std::uint64_t j = 1; j <= 300; ++j) {
      const Key k = Key::from_high64((run << 56) + j);
      held.emplace_back(k, m.insert(k, 100, {int(j % 8), int((j + 1) % 8)}));
    }
  }
  for (const auto& [k, h] : held) addresses.push_back(m.at(h));
  ASSERT_NO_THROW(m.check_invariants());
  ExpectHandlesResolve(m, held);
  // Erase every third key: the survivors' handles and state addresses
  // are unchanged, the erased ones resolve to nothing.
  std::vector<std::pair<Key, BlockHandle>> kept;
  for (std::size_t i = 0; i < held.size(); ++i) {
    if (i % 3 == 0) {
      m.erase(held[i].first);
      EXPECT_EQ(m.at(held[i].second), nullptr);
      EXPECT_EQ(m.handle_of(held[i].first), BlockHandle{});
    } else {
      kept.push_back(held[i]);
    }
  }
  ExpectHandlesResolve(m, kept);
  for (std::size_t i = 0; i < held.size(); ++i) {
    if (i % 3 != 0) {
      EXPECT_EQ(m.at(held[i].second), addresses[i]);
    }
  }
  ASSERT_NO_THROW(m.check_invariants());
  EXPECT_EQ(m.at(BlockHandle{}), nullptr);
}

TEST(BlockHandle, ErasedAndPutAgainKeyGetsANewHandle) {
  BlockMap m(4);
  const BlockHandle first = m.insert(K(7), 100, {0, 1});
  m.insert(K(8), 100, {1, 2});
  m.erase(K(7));
  EXPECT_EQ(m.at(first), nullptr);
  // The freed slot is reused for the same key, under a new generation.
  const BlockHandle second = m.insert(K(7), 200, {2, 3});
  EXPECT_NE(second, first);
  EXPECT_EQ(second.slot(), first.slot());
  EXPECT_EQ(m.at(first), nullptr) << "a stale handle found the new block";
  ASSERT_NE(m.at(second), nullptr);
  EXPECT_EQ(m.at(second)->size, 200);
  EXPECT_EQ(m.handle_of(K(7)), second);
}

TEST(BlockHandle, FindPointersSurviveOtherBlocksInsertsAndErases) {
  BlockMap m(4);
  m.insert(K(1000), 100, {0});
  const BlockState* b = m.find(K(1000));
  for (std::uint64_t i = 0; i < 2000; ++i) m.insert(K(2 * i + 1), 10, {int(i % 4)});
  for (std::uint64_t i = 0; i < 2000; i += 2) m.erase(K(2 * i + 1));
  EXPECT_EQ(m.find(K(1000)), b);
  EXPECT_EQ(b->size, 100);
}

TEST(BlockHandle, PacksSlotAndGeneration) {
  const BlockHandle h(BlockHandle::kMaxSlots - 1,
                      BlockHandle::kGenerationMask);
  EXPECT_EQ(h.slot(), BlockHandle::kMaxSlots - 1);
  EXPECT_EQ(h.generation(), BlockHandle::kGenerationMask);
  const BlockHandle g(5, 1);
  EXPECT_EQ(g.slot(), 5u);
  EXPECT_EQ(g.generation(), 1u);
}

// --- SortedKeyIndex against std::map ---
// The index's directory and chunk searches are plain std::lower_bound /
// std::upper_bound over Key's limb compare. Their hard case is keys that
// agree on the first 7 limbs, so the order is decided in the last one.
// This differential drives the index and a std::map through the same
// interleaved inserts, erases and erase_ifs, past kMaxChunk so chunks
// split and empty out, and compares every query after each batch.

/// `prefix` with its last limb replaced by `low`.
Key with_low_limb(const Key& prefix, std::uint64_t low) {
  return prefix - Key::from_uint64(prefix.low64()) + Key::from_uint64(low);
}

using Entries = std::vector<std::pair<Key, std::uint64_t>>;

/// What walk_in_arc(from, to) must visit, in order: the whole map when
/// from == to, else (from, MAX] then [MIN, to] restricted to the arc.
Entries arc_of(const std::map<Key, std::uint64_t>& ref, const Key& from,
               const Key& to) {
  Entries out;
  if (from == to) return Entries(ref.begin(), ref.end());
  for (auto it = ref.upper_bound(from); it != ref.end(); ++it) {
    if (Key::in_arc(it->first, from, to)) out.emplace_back(*it);
  }
  for (auto it = ref.begin(); it != ref.upper_bound(from); ++it) {
    if (Key::in_arc(it->first, from, to)) out.emplace_back(*it);
  }
  return out;
}

TEST(SortedKeyIndex, MatchesStdMapUnderRandomEdits) {
  using Index = SortedKeyIndex<std::uint64_t>;
  Rng rng(23);
  // Keys crowd below three prefixes (one next to Key::max()), plus
  // uniformly random keys.
  const Key prefixes[] = {Key::random(rng), Key::max(), Key::min()};
  auto draw = [&]() {
    const std::uint64_t pick = rng.next_below(4);
    if (pick == 3) return Key::random(rng);
    const std::uint64_t low = rng.next_below(2048);
    return with_low_limb(prefixes[pick], pick == 1 ? ~low : low);
  };

  Index idx;
  std::map<Key, std::uint64_t> ref;
  std::uint64_t next_value = 0;
  std::size_t peak = 0;
  auto insert = [&](const Key& k) {
    const std::uint64_t v = next_value++;
    EXPECT_EQ(idx.insert(k, std::uint64_t{v}), v);
    ref.emplace(k, v);
    peak = std::max(peak, ref.size());
  };
  insert(Key::max());
  insert(Key::min());

  for (int batch = 0; batch < 24; ++batch) {
    // Mostly inserts for the first half, mostly erases after.
    const std::uint64_t insert_share = batch < 12 ? 3 : 1;
    for (int op = 0; op < 400; ++op) {
      const Key k = draw();
      if (ref.count(k) != 0) {
        idx.erase(k);
        ref.erase(k);
      } else if (rng.next_below(4) < insert_share) {
        insert(k);
      }
    }
    if (batch % 3 == 2) {
      // Alternately drop a residue class of values (scattered) or a key
      // arc (contiguous, so whole chunks empty out).
      const bool by_arc = batch % 6 == 5;
      const std::uint64_t residue = rng.next_below(5);
      const Key lo = draw();
      const Key hi = draw();
      auto drop = [&](const Key& k, std::uint64_t v) {
        return by_arc ? Key::in_arc(k, lo, hi) : v % 5 == residue;
      };
      const std::size_t dropped = idx.erase_if(
          [&](const Key& k, std::uint64_t& v) { return drop(k, v); });
      EXPECT_EQ(dropped, std::erase_if(ref, [&](const auto& kv) {
                  return drop(kv.first, kv.second);
                }));
    }
    ASSERT_NO_THROW(idx.check_invariants()) << "batch " << batch;
    ASSERT_EQ(idx.size(), ref.size());
    ASSERT_EQ(idx.empty(), ref.empty());

    // Point queries: every stored key, fresh draws and the ring's ends.
    std::vector<Key> probes{Key::min(), Key::max()};
    for (const auto& kv : ref) probes.push_back(kv.first);
    for (int i = 0; i < 400; ++i) probes.push_back(draw());
    for (const Key& k : probes) {
      const auto it = ref.find(k);
      const std::uint64_t* got = std::as_const(idx).find(k);
      ASSERT_EQ(got != nullptr, it != ref.end()) << k;
      if (got != nullptr) {
        EXPECT_EQ(*got, it->second);
      }
      EXPECT_EQ(idx.find(k), got);
      EXPECT_EQ(idx.contains(k), it != ref.end());
      const auto ge = ref.lower_bound(k);
      const Index::Entry e = idx.first_ge(k);
      if (ge == ref.end()) {
        EXPECT_EQ(e.key, nullptr);
        EXPECT_EQ(e.value, nullptr);
      } else {
        ASSERT_NE(e.key, nullptr) << k;
        EXPECT_EQ(*e.key, ge->first);
        EXPECT_EQ(*e.value, ge->second);
      }
    }

    // Arcs: wrapping and not, the whole ring, ending at Key::max() or
    // Key::min() and starting at Key::max(), bounded by stored keys and
    // by fresh draws.
    const Key a = draw();
    const Key b = draw();
    const Key stored =
        ref.empty() ? draw()
                    : std::next(ref.begin(),
                                static_cast<std::ptrdiff_t>(
                                    rng.next_below(ref.size())))->first;
    const std::pair<Key, Key> arcs[] = {
        {a, b},          {b, a},          {a, a},
        {a, Key::max()}, {Key::max(), b}, {Key::min(), Key::max()},
        {stored, a},     {a, stored},     {prefixes[0], Key::min()},
    };
    for (const auto& [from, to] : arcs) {
      Entries want = arc_of(ref, from, to);
      Entries seen;
      idx.for_each_in_arc(from, to, [&seen](const Key& k, std::uint64_t& v) {
        seen.emplace_back(k, v);
      });
      ASSERT_EQ(seen, want) << "arc (" << from << ", " << to << "]";
      // An early exit stops right after the entry that returned false.
      const std::size_t stop = rng.next_below(want.size() + 2);
      seen.clear();
      const bool finished =
          idx.walk_in_arc(from, to, [&](const Key& k, std::uint64_t& v) {
            seen.emplace_back(k, v);
            return seen.size() != stop;
          });
      const bool stopped = stop >= 1 && stop <= want.size();
      EXPECT_EQ(finished, !stopped);
      want.resize(stopped ? stop : want.size());
      ASSERT_EQ(seen, want);
    }
  }
  EXPECT_GT(peak, 8 * Index::kMaxChunk);  // many splits, not one chunk
}

// --- Dense chunks ---
// An overflowing chunk spills into a neighbour under 7/8 full before it
// splits. These differentials drive the three insert patterns that reach
// the spill paths from both sides: ascending runs between existing keys
// (the overflowing chunk's tail moves on), descending runs (its head moves
// back), and random inserts and erases (chunks of every fill).

enum class InsertPattern { kAscendingRuns, kDescendingRuns, kRandomEdits };

class DenseIndexVsMap : public ::testing::TestWithParam<InsertPattern> {};

TEST_P(DenseIndexVsMap, MatchesStdMapAfterEveryBatch) {
  using Index = SortedKeyIndex<std::uint64_t>;
  Rng rng(41);
  Index idx;
  std::map<Key, std::uint64_t> ref;
  std::uint64_t next_value = 0;
  auto insert = [&](const Key& k) {
    const std::uint64_t v = next_value++;
    std::uint64_t& stored = idx.insert(k, std::uint64_t{v});
    // The returned slot is the entry's, even when the overflow moved it
    // into a neighbour.
    ASSERT_EQ(&stored, idx.find(k));
    ASSERT_EQ(stored, v);
    ref.emplace(k, v);
  };
  // Existing keys 2^20 apart leave room for runs between any two.
  constexpr int kShift = 20;
  for (std::uint64_t i = 0; i < 1500; ++i) insert(K(i << kShift));

  for (int batch = 0; batch < 40; ++batch) {
    const std::uint64_t gap = rng.next_below(1500) << kShift;
    const std::uint64_t run = 1 + rng.next_below(600);
    switch (GetParam()) {
      case InsertPattern::kAscendingRuns:
        for (std::uint64_t j = 1; j <= run; ++j) {
          if (ref.count(K(gap + j)) == 0) insert(K(gap + j));
        }
        break;
      case InsertPattern::kDescendingRuns:
        for (std::uint64_t j = run; j >= 1; --j) {
          if (ref.count(K(gap + j)) == 0) insert(K(gap + j));
        }
        break;
      case InsertPattern::kRandomEdits:
        for (std::uint64_t op = 0; op < run; ++op) {
          const Key k = K(rng.next_below(std::uint64_t{1500} << kShift));
          if (ref.count(k) != 0) {
            idx.erase(k);
            ref.erase(k);
          } else {
            insert(k);
          }
        }
        break;
    }
    ASSERT_NO_THROW(idx.check_invariants()) << "batch " << batch;
    ASSERT_EQ(idx.size(), ref.size());
    Entries seen;
    idx.for_each([&seen](const Key& k, std::uint64_t& v) {
      seen.emplace_back(k, v);
    });
    ASSERT_EQ(seen, Entries(ref.begin(), ref.end())) << "batch " << batch;
    for (int probe = 0; probe < 200; ++probe) {
      const Key k = K(rng.next_below(std::uint64_t{1501} << kShift));
      const auto it = ref.find(k);
      const std::uint64_t* got = idx.find(k);
      ASSERT_EQ(got != nullptr, it != ref.end()) << k;
      if (got != nullptr) {
        EXPECT_EQ(*got, it->second);
      }
    }
  }
  EXPECT_LE(idx.capacity(), 2 * idx.size());
}

INSTANTIATE_TEST_SUITE_P(Patterns, DenseIndexVsMap,
                         ::testing::Values(InsertPattern::kAscendingRuns,
                                           InsertPattern::kDescendingRuns,
                                           InsertPattern::kRandomEdits));

TEST(SortedKeyIndex, AscendingRunBetweenExistingKeysFillsChunks) {
  SortedKeyIndex<std::uint64_t> idx;
  for (std::uint64_t i = 0; i < 64; ++i) idx.insert(K(i << 32), std::uint64_t{i});
  const std::uint64_t gap = std::uint64_t{31} << 32;
  for (std::uint64_t j = 1; j <= 20000; ++j) idx.insert(K(gap + j), std::uint64_t{j});
  ASSERT_NO_THROW(idx.check_invariants());
  // 50/50 splits alone would leave the run's chunks half full.
  const double fill = static_cast<double>(idx.size()) /
                      static_cast<double>(idx.capacity());
  EXPECT_GE(fill, 0.8) << idx.size() << " entries in " << idx.capacity()
                       << " slots";
}

}  // namespace
}  // namespace d2::store
