// Corruption-injection tests for the check_invariants() validators.
//
// Each test uses a friend TestPeer to reach into a structure's private
// state, breaks exactly one invariant, and asserts that the structure's
// full audit throws InvariantError with a message naming that invariant.
// This proves the paranoid validators actually detect the corruption
// classes they document — a validator that never fires is worse than none,
// because it buys false confidence.
//
// Also covers the D2_REQUIRE precondition guards on public entry points
// (PreconditionError on bad inputs), the ParanoidGate pacing contract, and
// a clean-run smoke test of every audit on healthy structures.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/key.h"
#include "common/slot_table.h"
#include "common/units.h"
#include "core/config.h"
#include "core/system.h"
#include "dht/ring.h"
#include "sim/event_queue.h"
#include "sim/paged_array.h"
#include "sim/simulator.h"
#include "store/block_index.h"
#include "store/block_map.h"
#include "store/lookup_cache.h"
#include "store/retrieval_cache.h"

namespace d2 {

struct SlotTableTestPeer {
  /// Empties the first occupied bucket without touching size().
  static void clear_first_bucket(SlotTable& t) {
    for (auto& slot : t.table_) {
      if (slot != SlotTable::kNull) {
        slot = SlotTable::kNull;
        return;
      }
    }
  }
};

}  // namespace d2

namespace d2::sim {

struct EventQueueTestPeer {
  static PagedArray<std::uint64_t>& meta(EventQueue& q) { return q.meta_; }
  static PagedArray<InlineEventFn>& fns(EventQueue& q) { return q.fns_; }
  static PagedArray<std::uint64_t>& order(EventQueue& q) { return q.order_; }
  static std::size_t& live(EventQueue& q) { return q.live_; }
  static constexpr std::uint64_t slot_mask() { return EventQueue::kSlotMask; }
  // Timing-wheel internals (TimingWheel befriends this peer too), for the
  // wheel corruption-injection tests.
  static SimTime& wheel_time(EventQueue& q, std::uint32_t slot) {
    return q.wheel_.slots_[slot].time;
  }
  static std::uint32_t& wheel_next(EventQueue& q, std::uint32_t slot) {
    return q.wheel_.slots_[slot].next;
  }
  static std::uint32_t& wheel_prev(EventQueue& q, std::uint32_t slot) {
    return q.wheel_.slots_[slot].prev;
  }
  static std::uint64_t& wheel_occupied(EventQueue& q, int level) {
    return q.wheel_.occupied_[static_cast<std::size_t>(level)];
  }
  static std::uint32_t& wheel_head(EventQueue& q) { return q.wheel_.head_; }
  // Overflow-tier internals.
  static std::uint32_t& overflow_next_free(EventQueue& q, std::uint32_t e) {
    return q.overflow_[e].next_free;
  }
  /// Points slot `slot`'s closure at overflow entry `entry`.
  static void refer_to_overflow(EventQueue& q, std::uint32_t slot,
                                std::uint32_t entry) {
    q.fns_[slot].rebind(EventQueue::OverflowRef{entry});
  }
  /// Replaces slot `slot`'s closure with an inline one, leaving its
  /// overflow entry live but unreferenced.
  static void inline_closure(EventQueue& q, std::uint32_t slot) {
    q.fns_[slot].rebind([] {});
  }
  static std::size_t& wheel_live(EventQueue& q) { return q.wheel_.live_; }
  static constexpr std::uint32_t wheel_nil() { return TimingWheel::kNil; }
};

}  // namespace d2::sim

namespace d2::store {

struct SortedKeyIndexTestPeer {
  template <class V>
  static void swap_first_two_keys(SortedKeyIndex<V>& idx) {
    auto& chunk = *idx.chunks_.front();
    std::swap(chunk.keys[0], chunk.keys[1]);
  }
  template <class V>
  static void corrupt_directory(SortedKeyIndex<V>& idx) {
    idx.last_.front() = Key::min();
  }
  template <class V>
  static void corrupt_size(SortedKeyIndex<V>& idx) {
    ++idx.size_;
  }
  /// Grows the first chunk's key array past the kMaxChunk + 1 cap.
  template <class V>
  static void bloat_first_chunk(SortedKeyIndex<V>& idx) {
    idx.chunks_.front()->keys.reserve(SortedKeyIndex<V>::kMaxChunk + 2);
  }
};

struct BlockMapTestPeer {
  /// Slot of stored key `k`.
  static std::uint32_t& slot_of(BlockMap& m, const Key& k) {
    return *m.index_.find(k);
  }
  static std::uint32_t& next_free(BlockMap& m, std::uint32_t slot) {
    return m.slab_[slot].next_free;
  }
  static std::uint32_t& generation(BlockMap& m, std::uint32_t slot) {
    return m.slab_[slot].generation;
  }
  static std::uint32_t& free_head(BlockMap& m) { return m.free_head_; }
  static constexpr std::uint32_t no_slot() { return BlockMap::kNoSlot; }
  static void drift_primary_count(BlockMap& m) { ++m.primary_count_[0]; }
  static void drift_physical_bytes(BlockMap& m) { ++m.physical_bytes_[0]; }
};

struct LookupCacheTestPeer {
  static void invert_ranges(LookupCache& c) {
    c.entries_.for_each([](const Key& end, LookupCache::Entry& e) {
      (void)end;
      e.start = Key::max();
    });
  }
};

struct RetrievalCacheTestPeer {
  static void break_lru_ring(RetrievalCache& c) {
    // Point the tail marker somewhere that is not the end of the chain.
    c.lru_tail_ = c.lru_head_;
  }
  static void sever_lru_link(RetrievalCache& c) {
    c.slab_[c.slab_[c.lru_head_].next].prev = RetrievalCache::kNull;
  }
  static void drop_table_entry(RetrievalCache& c) {
    SlotTableTestPeer::clear_first_bucket(c.table_);
  }
};

}  // namespace d2::store

namespace d2::dht {

struct RingTestPeer {
  static void break_bijection(Ring& r) {
    r.ids_.begin()->second = Key::from_uint64(0xdeadbeef);
  }
};

}  // namespace d2::dht

namespace d2 {
namespace {

Key K(std::uint64_t v) { return Key::from_uint64(v); }

/// Runs `fn` and asserts it throws InvariantError whose message names the
/// violated invariant (contains `fragment`).
template <class Fn>
void ExpectInvariantNamed(Fn&& fn, const std::string& fragment) {
  try {
    fn();
    ADD_FAILURE() << "no exception thrown (expected InvariantError naming \""
                  << fragment << "\")";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "InvariantError message\n  \"" << e.what()
        << "\"\ndoes not name \"" << fragment << "\"";
  } catch (const std::exception& e) {
    ADD_FAILURE() << "threw a different exception type: " << e.what();
  }
}

// ------------------------------------------------------------ clean runs --

TEST(Invariants, HealthyStructuresPassTheirAudits) {
  sim::EventQueue q;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(q.push(i, [] {}));
  for (std::size_t i = 0; i < ids.size(); i += 3) q.discard(ids[i]);
  for (int i = 0; i < 10; ++i) q.pop();
  EXPECT_NO_THROW(q.check_invariants());

  store::SortedKeyIndex<int> idx;
  for (std::uint64_t i = 0; i < 500; ++i) idx.insert(K(i * 7), int(i));
  for (std::uint64_t i = 0; i < 500; i += 2) idx.erase(K(i * 7));
  EXPECT_NO_THROW(idx.check_invariants());

  store::BlockMap map(8);
  for (std::uint64_t i = 0; i < 64; ++i) {
    map.insert(K(i), 1000,
               {int(i % 8), int((i + 1) % 8), int((i + 2) % 8)});
  }
  map.mark_missing(K(3), 4);
  EXPECT_NO_THROW(map.check_invariants());

  store::LookupCache cache(hours(1));
  cache.insert(0, 1, K(100), K(200));
  cache.insert(0, 2, K(200), K(300));
  EXPECT_NO_THROW(cache.check_invariants());

  store::RetrievalCache rc(kB(64));
  for (std::uint64_t i = 0; i < 32; ++i) rc.insert(K(i), kB(4));
  rc.lookup(K(30));
  rc.erase(K(31));
  EXPECT_NO_THROW(rc.check_invariants());

  dht::Ring ring;
  for (int i = 0; i < 16; ++i) {
    ring.add(i, K(std::uint64_t(i) * 1000 + 1));
  }
  ring.move(3, K(77777));
  EXPECT_NO_THROW(ring.check_invariants());
}

// ------------------------------------------------------------ event queue --

TEST(Invariants, EventQueueDetectsOrphanedSlot) {
  sim::EventQueue q;
  q.push(1, [] {});
  q.push(2, [] {});
  // Clear a live slot's mark without putting it on the free list: the slot
  // is now neither live nor free.
  sim::EventQueueTestPeer::meta(q)[0] = 0;
  ExpectInvariantNamed([&] { q.check_invariants(); }, "orphaned slot");
}

TEST(Invariants, EventQueueDetectsFreeListCycle) {
  sim::EventQueue q;
  const sim::EventId id = q.push(2, [] {});
  q.push(1, [] {});
  q.discard(id);  // slot 0 joins the free list
  // Make the free list point back at its own head.
  auto& meta = sim::EventQueueTestPeer::meta(q);
  meta[0] = (meta[0] & ~sim::EventQueueTestPeer::slot_mask()) | 0;
  ExpectInvariantNamed([&] { q.check_invariants(); }, "free-list cycle");
}

TEST(Invariants, EventQueueSlotKeepsItsAddressAcrossPageGrowth) {
  // The slab is paged: growth allocates new pages and never moves a slot
  // already handed out, unlike a vector's doubling copy.
  using Peer = sim::EventQueueTestPeer;
  constexpr std::size_t kPage = sim::PagedArray<sim::EventFn>::kPageSlots;
  sim::EventQueue q;
  int fired = 0;
  q.push(1, [&fired] { fired = 7; });  // slot 0
  const sim::InlineEventFn* fn = &Peer::fns(q)[0];
  const std::uint64_t* meta = &Peer::meta(q)[0];
  const std::uint64_t* order = &Peer::order(q)[0];
  const SimTime* time = &Peer::wheel_time(q, 0);
  const std::uint64_t meta_word = *meta;
  for (std::size_t i = 0; i < 3 * kPage; ++i) q.push(2, [] {});
  ASSERT_EQ(q.slots(), 3 * kPage + 1);
  EXPECT_EQ(&Peer::fns(q)[0], fn);
  EXPECT_EQ(&Peer::meta(q)[0], meta);
  EXPECT_EQ(&Peer::order(q)[0], order);
  EXPECT_EQ(&Peer::wheel_time(q, 0), time);
  EXPECT_EQ(*meta, meta_word);
  EXPECT_EQ(*time, SimTime{1});
  EXPECT_NO_THROW(q.check_invariants());
  sim::EventQueue::Event first = q.pop();
  first.fn();
  EXPECT_EQ(fired, 7);
}

/// A closure too large for an event slot: it goes to the overflow tier.
auto big_closure() {
  const Key k = K(42);
  return [k] { (void)k; };
}

TEST(Invariants, EventQueueDetectsOverflowFreeListCycle) {
  sim::EventQueue q;
  const sim::EventId id = q.push(2, big_closure());
  q.push(1, big_closure());
  q.discard(id);  // overflow entry 0 joins the overflow free list
  sim::EventQueueTestPeer::overflow_next_free(q, 0) = 0;
  ExpectInvariantNamed([&] { q.check_invariants(); },
                       "overflow free-list cycle");
}

TEST(Invariants, EventQueueDetectsSlotReferringToAFreeOverflowEntry) {
  sim::EventQueue q;
  const sim::EventId id = q.push(2, big_closure());  // slot 0, entry 0
  q.push(1, big_closure());                          // slot 1, entry 1
  q.discard(id);
  sim::EventQueueTestPeer::refer_to_overflow(q, 1, 0);
  ExpectInvariantNamed([&] { q.check_invariants(); },
                       "slot refers to a free overflow entry");
}

TEST(Invariants, EventQueueDetectsOrphanedOverflowEntry) {
  sim::EventQueue q;
  q.push(1, big_closure());
  sim::EventQueueTestPeer::inline_closure(q, 0);
  ExpectInvariantNamed([&] { q.check_invariants(); },
                       "orphaned overflow entry");
}

TEST(Invariants, EventQueueDetectsLiveCountDrift) {
  sim::EventQueue q;
  q.push(1, [] {});
  ++sim::EventQueueTestPeer::live(q);
  ExpectInvariantNamed([&] { q.check_invariants(); },
                       "live-mark count disagrees with live_");
}

// ----------------------------------------------------------- timing wheel --
// Each test breaks one wheel invariant on a healthy queue and asserts
// the audit names it. Slot ids are the slab allocation order: a fresh
// queue hands out 0, 1, 2, ...

TEST(Invariants, WheelDetectsWrongBucketForSlotTime) {
  sim::EventQueue q;
  q.push(milliseconds(5), [] {});
  // Rewrite the resident slot's time: place() now maps it elsewhere, so
  // the bucket it physically sits in no longer matches its time.
  sim::EventQueueTestPeer::wheel_time(q, 0) = milliseconds(9);
  ExpectInvariantNamed([&] { q.check_invariants(); },
                       "wrong bucket for its time");
}

TEST(Invariants, WheelDetectsBrokenPrevLink) {
  sim::EventQueue q;
  q.push(7, [] {});  // slot 0
  q.push(7, [] {});  // slot 1: same bucket, linked after slot 0
  sim::EventQueueTestPeer::wheel_prev(q, 1) =
      sim::EventQueueTestPeer::wheel_nil();
  ExpectInvariantNamed([&] { q.check_invariants(); }, "prev link broken");
}

TEST(Invariants, WheelDetectsLinkOutOfRange) {
  sim::EventQueue q;
  q.push(7, [] {});
  q.push(7, [] {});
  // Point a next link past the slot arrays (but not at the kNil end
  // marker): the walk must bounds-check before following it.
  sim::EventQueueTestPeer::wheel_next(q, 0) = 1000000;
  ExpectInvariantNamed([&] { q.check_invariants(); }, "link out of range");
}

TEST(Invariants, WheelDetectsStaleOccupancyBit) {
  sim::EventQueue q;
  q.push(1, [] {});
  // Claim some empty far-level bucket is occupied.
  sim::EventQueueTestPeer::wheel_occupied(q, 5) |= std::uint64_t{1} << 33;
  ExpectInvariantNamed([&] { q.check_invariants(); },
                       "occupancy bit disagrees with bucket");
}

TEST(Invariants, WheelDetectsWrongHeadCache) {
  sim::EventQueue q;
  q.push(seconds(1), [] {});  // slot 0: the true minimum
  q.push(seconds(2), [] {});  // slot 1
  sim::EventQueueTestPeer::wheel_head(q) = 1;
  ExpectInvariantNamed([&] { q.check_invariants(); },
                       "head cache is not the (time, seq) minimum");
}

TEST(Invariants, WheelDetectsResidentCountDrift) {
  sim::EventQueue q;
  q.push(1, [] {});
  ++sim::EventQueueTestPeer::wheel_live(q);
  ExpectInvariantNamed([&] { q.check_invariants(); },
                       "resident count disagrees with owner");
}

// ----------------------------------------------------------- sorted index --

TEST(Invariants, SortedIndexDetectsUnsortedChunk) {
  store::SortedKeyIndex<int> idx;
  for (std::uint64_t i = 0; i < 8; ++i) idx.insert(K(i * 10), int(i));
  store::SortedKeyIndexTestPeer::swap_first_two_keys(idx);
  ExpectInvariantNamed([&] { idx.check_invariants(); },
                       "chunk not strictly sorted");
}

TEST(Invariants, SortedIndexDetectsStaleDirectory) {
  store::SortedKeyIndex<int> idx;
  for (std::uint64_t i = 1; i <= 8; ++i) idx.insert(K(i * 10), int(i));
  store::SortedKeyIndexTestPeer::corrupt_directory(idx);
  ExpectInvariantNamed([&] { idx.check_invariants(); },
                       "directory max out of date");
}

TEST(Invariants, SortedIndexDetectsSizeDrift) {
  store::SortedKeyIndex<int> idx;
  idx.insert(K(1), 1);
  store::SortedKeyIndexTestPeer::corrupt_size(idx);
  ExpectInvariantNamed([&] { idx.check_invariants(); },
                       "size counter disagrees with contents");
}

TEST(Invariants, SortedIndexDetectsChunkCapacityPastTheCap) {
  store::SortedKeyIndex<int> idx;
  for (std::uint64_t i = 1; i <= 8; ++i) idx.insert(K(i * 10), int(i));
  EXPECT_NO_THROW(idx.check_invariants());
  store::SortedKeyIndexTestPeer::bloat_first_chunk(idx);
  ExpectInvariantNamed([&] { idx.check_invariants(); },
                       "chunk capacity past kMaxChunk + 1");
}

// -------------------------------------------------------------- block map --

TEST(Invariants, BlockMapDetectsPrimaryCountDrift) {
  store::BlockMap map(4);
  map.insert(K(1), 100, {0, 1, 2});
  store::BlockMapTestPeer::drift_primary_count(map);
  ExpectInvariantNamed([&] { map.check_invariants(); },
                       "primary count accounting out of sync");
}

TEST(Invariants, BlockMapDetectsPhysicalBytesDrift) {
  store::BlockMap map(4);
  map.insert(K(1), 100, {0, 1, 2});
  store::BlockMapTestPeer::drift_physical_bytes(map);
  ExpectInvariantNamed([&] { map.check_invariants(); },
                       "physical bytes accounting out of sync");
}

TEST(Invariants, BlockMapDetectsDuplicateReplica) {
  store::BlockMap map(4);
  map.insert(K(1), 100, {0, 1, 2});
  store::BlockState* b = map.find_mutable(K(1));
  ASSERT_NE(b, nullptr);
  b->replicas.push_back(b->replicas.front());
  ExpectInvariantNamed([&] { map.check_invariants(); },
                       "duplicate node in replica set");
}

TEST(Invariants, BlockMapDetectsSlabFreeListCycle) {
  using Peer = store::BlockMapTestPeer;
  store::BlockMap map(4);
  map.insert(K(1), 100, {0, 1});
  map.insert(K(2), 100, {1, 2});
  const std::uint32_t freed = Peer::slot_of(map, K(1));
  map.erase(K(1));
  Peer::next_free(map, freed) = freed;
  ExpectInvariantNamed([&] { map.check_invariants(); },
                       "slab free-list cycle");
}

TEST(Invariants, BlockMapDetectsSlabFreeListLinkOutOfRange) {
  using Peer = store::BlockMapTestPeer;
  store::BlockMap map(4);
  map.insert(K(1), 100, {0, 1});
  const std::uint32_t freed = Peer::slot_of(map, K(1));
  map.erase(K(1));
  Peer::next_free(map, freed) = 1000;
  ExpectInvariantNamed([&] { map.check_invariants(); },
                       "slab free-list link out of range");
}

TEST(Invariants, BlockMapDetectsIndexNamingAFreeSlot) {
  using Peer = store::BlockMapTestPeer;
  store::BlockMap map(4);
  map.insert(K(1), 100, {0, 1});
  map.insert(K(2), 100, {1, 2});
  const std::uint32_t freed = Peer::slot_of(map, K(1));
  map.erase(K(1));
  Peer::slot_of(map, K(2)) = freed;
  ExpectInvariantNamed([&] { map.check_invariants(); },
                       "index names a free slab slot");
}

TEST(Invariants, BlockMapDetectsTwoKeysSharingASlot) {
  using Peer = store::BlockMapTestPeer;
  store::BlockMap map(4);
  map.insert(K(1), 100, {0, 1});
  map.insert(K(2), 100, {1, 2});
  Peer::slot_of(map, K(2)) = Peer::slot_of(map, K(1));
  ExpectInvariantNamed([&] { map.check_invariants(); },
                       "two keys share a slab slot");
}

TEST(Invariants, BlockMapDetectsOrphanedSlabSlot) {
  using Peer = store::BlockMapTestPeer;
  store::BlockMap map(4);
  map.insert(K(1), 100, {0, 1});
  map.insert(K(2), 100, {1, 2});
  map.erase(K(1));
  Peer::free_head(map) = Peer::no_slot();  // the freed slot is lost
  ExpectInvariantNamed([&] { map.check_invariants(); },
                       "orphaned slab slot");
}

TEST(Invariants, BlockMapDetectsZeroGeneration) {
  // Generation 0 is the default handle's: a slot holding it would make
  // BlockHandle{} resolve to a block.
  using Peer = store::BlockMapTestPeer;
  store::BlockMap map(4);
  map.insert(K(1), 100, {0, 1});
  Peer::generation(map, Peer::slot_of(map, K(1))) = 0;
  ExpectInvariantNamed([&] { map.check_invariants(); },
                       "slab generation out of range");
}

// ----------------------------------------------------------- lookup cache --

TEST(Invariants, LookupCacheDetectsInvertedRange) {
  store::LookupCache cache(hours(1));
  cache.insert(0, 1, K(100), K(200));
  store::LookupCacheTestPeer::invert_ranges(cache);
  ExpectInvariantNamed([&] { cache.check_invariants(); },
                       "range start past its end key");
}

// -------------------------------------------------------- retrieval cache --

TEST(Invariants, RetrievalCacheDetectsUnclosedLruRing) {
  store::RetrievalCache rc(kB(64));
  for (std::uint64_t i = 0; i < 4; ++i) rc.insert(K(i), kB(4));
  store::RetrievalCacheTestPeer::break_lru_ring(rc);
  ExpectInvariantNamed([&] { rc.check_invariants(); }, "LRU ring not closed");
}

TEST(Invariants, RetrievalCacheDetectsSeveredLruLink) {
  store::RetrievalCache rc(kB(64));
  for (std::uint64_t i = 0; i < 4; ++i) rc.insert(K(i), kB(4));
  store::RetrievalCacheTestPeer::sever_lru_link(rc);
  ExpectInvariantNamed([&] { rc.check_invariants(); },
                       "LRU prev/next links disagree");
}

TEST(Invariants, RetrievalCacheDetectsDroppedTableEntry) {
  store::RetrievalCache rc(kB(64));
  for (std::uint64_t i = 0; i < 4; ++i) rc.insert(K(i), kB(4));
  store::RetrievalCacheTestPeer::drop_table_entry(rc);
  ExpectInvariantNamed([&] { rc.check_invariants(); },
                       "table population disagrees with size_");
}

TEST(Invariants, SlotTableDetectsDroppedEntry) {
  const Key key = K(42);
  const auto key_of = [&key](std::uint32_t) -> const Key& { return key; };
  SlotTable t;
  t.insert_at(t.probe(key, key_of), 0, key_of);
  EXPECT_NO_THROW(t.check_invariants(key_of));
  SlotTableTestPeer::clear_first_bucket(t);
  ExpectInvariantNamed([&] { t.check_invariants(key_of); },
                       "occupancy disagrees with entry count");
}

// ------------------------------------------------------------------- ring --

TEST(Invariants, RingDetectsBrokenBijection) {
  dht::Ring ring;
  for (int i = 0; i < 8; ++i) {
    ring.add(i, K(std::uint64_t(i) * 100 + 1));
  }
  dht::RingTestPeer::break_bijection(ring);
  ExpectInvariantNamed([&] { ring.check_invariants(); },
                       "id maps are not inverse bijections");
}

// ----------------------------------------------------------------- system --

TEST(Invariants, SystemAuditPassesOnHealthyRun) {
  core::SystemConfig config;
  config.node_count = 16;
  sim::Simulator sim;
  core::System system(config, sim);
  for (std::uint64_t i = 0; i < 200; ++i) system.put(K(i * 37), 4096);
  for (std::uint64_t i = 0; i < 200; i += 4) system.remove(K(i * 37));
  sim.run_until(minutes(5));
  EXPECT_NO_THROW(system.check_invariants());
}

TEST(Invariants, RuntimeParanoidFlagAuditsWithoutParanoidBuild) {
  // The `d2sim --paranoid` path: audits run because the config asks for
  // them, whether or not the build defines D2_PARANOID.
  core::SystemConfig config;
  config.node_count = 8;
  config.paranoid_audits = true;
  sim::Simulator sim;
  core::System system(config, sim);
  for (std::uint64_t i = 0; i < 100; ++i) system.put(K(i * 13), 1024);
  system.start_load_balancing();
  sim.run_until(hours(2));
  EXPECT_NO_THROW(system.check_invariants());
}

/// A system after one load-balancing move, so pointer members wait on
/// recorded fetch timers; returns the last key with such a member, whose
/// timer was armed after others and so is not its queue's next event.
Key system_with_recorded_timer(core::System& system) {
  for (std::uint64_t i = 0; i < 200; ++i) system.put(K(i * 37), 4096);
  bool moved = false;
  for (int p = 0; p < system.config().node_count && !moved; ++p) {
    moved = system.probe_once(p);
  }
  D2_REQUIRE(moved);
  EXPECT_NO_THROW(system.check_invariants());
  Key found;
  bool any = false;
  system.block_map().for_each_block(
      [&](const Key& k, const store::BlockState& b) {
        for (const store::Replica& r : b.replicas) {
          if (r.fetch_timer != sim::Simulator::kNoEvent) {
            found = k;
            any = true;
          }
        }
      });
  D2_REQUIRE(any);
  return found;
}

store::Replica& recorded_member(core::System& system, const Key& k) {
  for (store::Replica& r : system.block_map().find_mutable(k)->replicas) {
    if (r.fetch_timer != sim::Simulator::kNoEvent) return r;
  }
  D2_REQUIRE(false);
  return system.block_map().find_mutable(k)->replicas.front();
}

TEST(Invariants, SystemDetectsFetchTimerNotDueAtFetchDue) {
  core::SystemConfig config;
  config.node_count = 16;
  sim::Simulator sim;
  core::System system(config, sim);
  const Key k = system_with_recorded_timer(system);
  recorded_member(system, k).fetch_due += 1;
  ExpectInvariantNamed([&] { system.check_invariants(); },
                       "recorded fetch timer is not pending");
}

TEST(Invariants, SystemDetectsFetchTimerNamingNoPendingEvent) {
  core::SystemConfig config;
  config.node_count = 16;
  sim::Simulator sim;
  core::System system(config, sim);
  const Key k = system_with_recorded_timer(system);
  store::Replica& r = recorded_member(system, k);
  EXPECT_TRUE(sim.discard_local(r.fetch_timer));
  ExpectInvariantNamed([&] { system.check_invariants(); },
                       "recorded fetch timer is not pending");
}

TEST(Invariants, SystemDetectsFetchTimerForAMemberWithAFetchInFlight) {
  core::SystemConfig config;
  config.node_count = 16;
  sim::Simulator sim;
  core::System system(config, sim);
  const Key k = system_with_recorded_timer(system);
  recorded_member(system, k).fetch_in_flight = true;
  ExpectInvariantNamed([&] { system.check_invariants(); },
                       "fetch timer recorded for a member that has data or "
                       "a fetch in flight");
}

// ---------------------------------------------------------- preconditions --

TEST(Preconditions, BlockMapRejectsNegativeSize) {
  store::BlockMap map(4);
  EXPECT_THROW(map.insert(K(1), -1, {0, 1}), PreconditionError);
}

TEST(Preconditions, BlockMapRejectsMemberBytesExceedingSize) {
  store::BlockMap map(4);
  EXPECT_THROW(map.insert(K(1), 100, {0, 1}, 200), PreconditionError);
}

TEST(Preconditions, LookupCacheRejectsNegativeNode) {
  store::LookupCache cache(hours(1));
  EXPECT_THROW(cache.insert(0, -1, K(1), K(2)), PreconditionError);
}

TEST(Preconditions, ParanoidGatePacesAudits) {
  ParanoidGate gate;
  // Small structures audit on every mutation...
  EXPECT_TRUE(gate.due(10));
  // ...large ones roughly every size/16 mutations.
  int fired = 0;
  for (int i = 0; i < 1600; ++i) {
    if (gate.due(1600)) ++fired;
  }
  EXPECT_EQ(fired, 16);
}

}  // namespace
}  // namespace d2
