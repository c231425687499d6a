#include "store/block_map.h"

#include <gtest/gtest.h>

#include <algorithm>

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
  m.reassign_replicas(K(10), {0, 1, 3}, 50);
  const BlockState* b = m.find(K(10));
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->replicas.size(), 3u);
  EXPECT_TRUE(b->replicas[0].has_data);
  EXPECT_TRUE(b->replicas[1].has_data);
  EXPECT_FALSE(b->replicas[2].has_data);  // node 3 joined as pointer
  EXPECT_EQ(b->replicas[2].pointer_since, 50);
  // Node 2 left but is kept as a stale holder because node 3 lacks data.
  EXPECT_EQ(b->stale_holders, (std::vector<int>{2}));
  EXPECT_EQ(m.physical_bytes(2), 100);
  EXPECT_EQ(m.physical_bytes(3), 0);
}

TEST(BlockMap, ReassignDropsUnneededDepartingCopy) {
  BlockMap m(5);
  m.insert(K(10), 100, {0, 1, 2});
  // All new members already have data -> departing copy deleted.
  m.reassign_replicas(K(10), {0, 1}, 50);
  const BlockState* b = m.find(K(10));
  EXPECT_TRUE(b->stale_holders.empty());
  EXPECT_EQ(m.physical_bytes(2), 0);
}

TEST(BlockMap, MarkDataResolvesPointerAndPrunesStale) {
  BlockMap m(5);
  m.insert(K(10), 100, {0, 1, 2});
  m.reassign_replicas(K(10), {0, 1, 3}, 50);
  m.mark_data(K(10), 3);
  const BlockState* b = m.find(K(10));
  EXPECT_TRUE(b->replicas[2].has_data);
  EXPECT_TRUE(b->stale_holders.empty());      // stale copy at 2 pruned
  EXPECT_EQ(m.physical_bytes(3), 100);
  EXPECT_EQ(m.physical_bytes(2), 0);
}

TEST(BlockMap, PrimaryChangeUpdatesCounts) {
  BlockMap m(5);
  m.insert(K(10), 100, {0, 1, 2});
  m.reassign_replicas(K(10), {4, 0, 1}, 50);
  EXPECT_EQ(m.primary_count(0), 0);
  EXPECT_EQ(m.primary_count(4), 1);
  EXPECT_EQ(m.primary_bytes(4), 100);
}

TEST(BlockMap, RejoiningStaleHolderKeepsData) {
  BlockMap m(5);
  m.insert(K(10), 100, {0, 1, 2});
  m.reassign_replicas(K(10), {0, 1, 3}, 50);  // 2 -> stale holder
  m.reassign_replicas(K(10), {0, 1, 2}, 60);  // 2 rejoins
  const BlockState* b = m.find(K(10));
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
  EXPECT_TRUE(b->any_data());
  m.mark_data(K(5), 1);
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
  m.reassign_replicas(K(10), {0, 1, 3}, 50);  // 3 joins as pointer, 2 stale
  BlockState* b = m.find_mutable(K(10));
  b->replicas[2].fetch_due = 90;  // a pending timer and a transfer in flight
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

  EXPECT_FALSE(m.reassign_replicas(K(10), {0, 1, 3}, 70));
  EXPECT_FALSE(m.reassign_replicas(K(10), *b, {0, 1, 3}, 80));
  ASSERT_EQ(b->replicas.size(), replicas.size());
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const Replica& now = b->replicas[i];
    EXPECT_EQ(now.node, replicas[i].node) << i;
    EXPECT_EQ(now.pointer_since, replicas[i].pointer_since) << i;
    EXPECT_EQ(now.fetch_due, replicas[i].fetch_due) << i;
    EXPECT_EQ(now.has_data, replicas[i].has_data) << i;
    EXPECT_EQ(now.fetch_in_flight, replicas[i].fetch_in_flight) << i;
  }
  EXPECT_EQ(b->stale_holders, stale);
  EXPECT_EQ(accounting(), before);
  // The same members in another order are a different set: the primary
  // moves.
  EXPECT_TRUE(m.reassign_replicas(K(10), *b, {1, 0, 3}, 90));
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
      m.reassign_replicas(live[i], set, step);
      // Resolve some pointers.
      const BlockState* b = m.find(live[i]);
      for (const Replica& rep : b->replicas) {
        if (!rep.has_data && rng.bernoulli(0.5)) {
          m.mark_data(live[i], rep.node);
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

}  // namespace
}  // namespace d2::store
