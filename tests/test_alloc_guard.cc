// Steady-state allocation guard for the hot paths.
//
// A global counting operator new/delete observes every heap allocation in
// the test binary. Each test warms a structure to its high-water mark,
// then asserts that the steady-state loop — the part that runs millions
// of times per experiment — performs ZERO heap allocations:
//
//   * sim::EventQueue push / discard / pop (InlineFunction events in a
//     slot slab; no per-event nodes, no std::function boxes),
//   * store::LookupCache hit path (chunked sorted index, no tree nodes),
//   * store::RetrievalCache hit path and insert/evict churn at capacity
//     (slab + intrusive LRU + backward-shift open addressing),
//   * store::BlockMap reassigning blocks inside an arc walk, to their
//     current members (the unchanged sets of System's readjustment) and
//     to a same-size set whose departing member holds no data,
//   * core::VolumeSet::apply of a read of an existing file (string_view
//     routing into reused buffers, hashed volume lookup, heterogeneous
//     child lookup, root-to-leaf meta walk, write-back cache slots),
//   * fs::WritebackCache stage/touch/cancel/collect/mark_clean churn over
//     recycled keys (slots and predecessor entries recycle through their
//     free lists),
//   * core::OpBatchRunner applying and flushing batches of tracked gets
//     at its op cap.
//
// These guards are the teeth behind DESIGN.md §5c: a regression that
// reintroduces boxing (e.g., an std::function member, a node-based map)
// fails here deterministically rather than showing up as a vague
// benchmark slowdown.
//
// The counters are plain (non-atomic) because every d2_test binary is
// single-threaded; keep this test out of any sanitizer job that injects
// allocating instrumentation threads.
//
// Paranoid builds (-DD2_PARANOID=ON) run full-structure audits inside the
// very mutators measured here, and the audits allocate scratch (census
// vectors, heap copies) by design — so the zero-allocation assertions are
// skipped there (every guard above except the LookupCache hit path). The guarantee is about release hot paths, which the
// default CI configuration still enforces.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <optional>

#include "common/key.h"
#include "core/op_batch.h"
#include "core/replay.h"
#include "core/system.h"
#include "fs/writeback_cache.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "store/block_map.h"
#include "store/lookup_cache.h"
#include "store/retrieval_cache.h"

namespace {
std::size_t g_news = 0;
std::size_t g_deletes = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_news;
  return std::malloc(n);
}

void* operator new[](std::size_t n) { return operator new(n); }

void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}

void operator delete(void* p) noexcept {
  ++g_deletes;
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}

namespace d2 {
namespace core {

struct SystemTestPeer {
  static void move(System& sys, int node, const Key& new_id) {
    sys.execute_move(dht::MoveDecision{node, sys.owner_of(new_id), new_id});
  }
};

}  // namespace core

namespace {

Key K(std::uint64_t v) { return Key::from_uint64(v); }

/// Allocation counts observed across a scope.
struct AllocProbe {
  std::size_t news0 = g_news;
  std::size_t deletes0 = g_deletes;
  std::size_t news() const { return g_news - news0; }
  std::size_t deletes() const { return g_deletes - deletes0; }
};

TEST(AllocGuard, CountingOperatorsAreLive) {
  const AllocProbe probe;
  delete new int(7);
  EXPECT_GE(probe.news(), 1u);
  EXPECT_GE(probe.deletes(), 1u);
}

TEST(AllocGuard, EventQueuePushDiscardPopIsAllocationFree) {
#ifdef D2_PARANOID
  GTEST_SKIP() << "paranoid audits allocate inside the measured hot path";
#endif
  sim::EventQueue q;
  long long fired = 0;
  std::vector<sim::EventId> ids;
  // Discards free their slots for the next push, so each round refills
  // the same slots and the slab stays at its warm-up size.
  auto round_trip = [&](int round) {
    ids.clear();  // capacity retained
    for (int i = 0; i < 256; ++i) {
      const Key k = K(static_cast<std::uint64_t>(i) + 1);
      ids.push_back(q.push(round * 1000 + i, [&fired, k] {
        fired += static_cast<long long>(k.limb(Key::kLimbs - 1) != 0);
      }));
    }
    // Every other event, the first one (the queue's next) included: that
    // one is declined and still pops.
    for (int i = 0; i < 256; i += 2) {
      q.discard(ids[static_cast<std::size_t>(i)]);
    }
    while (!q.empty()) q.pop().fn();
  };
  round_trip(0);
  const std::size_t warm_slots = q.slots();

  const AllocProbe probe;
  for (int round = 1; round <= 100; ++round) round_trip(round);
  EXPECT_EQ(probe.news(), 0u) << "EventQueue discard churn allocated";
  EXPECT_EQ(probe.deletes(), 0u);
  EXPECT_EQ(q.slots(), warm_slots);
  EXPECT_EQ(fired, 101 * 129);  // 128 kept + the declined head, per round
}

/// One round of push / discard / pop over 256 closures built by
/// `make(i)`, at times from `base`; `ids` is reused scratch.
template <class Make>
void churn_round(sim::EventQueue& q, SimTime base, Make&& make,
                 std::vector<sim::EventId>& ids) {
  ids.clear();
  for (int i = 0; i < 256; ++i) ids.push_back(q.push(base + i, make(i)));
  for (int i = 0; i < 256; i += 2) q.discard(ids[static_cast<std::size_t>(i)]);
  while (!q.empty()) q.pop().fn();
}

TEST(AllocGuard, EventQueueInlineTierIsAllocationFree) {
#ifdef D2_PARANOID
  GTEST_SKIP() << "paranoid audits allocate inside the measured hot path";
#endif
  // Pointer-plus-scalars closures, like the fetch timer's, stay in their
  // slots: the overflow tier is never touched.
  sim::EventQueue q;
  long long sink = 0;
  auto make = [&sink](int i) {
    auto fn = [s = &sink, i] { *s += i; };
    static_assert(sim::kFitsInlineEvent<decltype(fn)>);
    return fn;
  };
  std::vector<sim::EventId> ids;
  churn_round(q, 0, make, ids);
  const std::size_t slots = q.slots();

  const AllocProbe probe;
  for (int round = 1; round <= 100; ++round) {
    churn_round(q, round * 1000, make, ids);
  }
  EXPECT_EQ(probe.news(), 0u) << "inline-tier churn allocated";
  EXPECT_EQ(probe.deletes(), 0u);
  EXPECT_EQ(q.slots(), slots);
  EXPECT_EQ(q.overflow_slots(), 0u);
  EXPECT_GT(sink, 0);
}

TEST(AllocGuard, EventQueueOverflowTierIsAllocationFree) {
#ifdef D2_PARANOID
  GTEST_SKIP() << "paranoid audits allocate inside the measured hot path";
#endif
  // Key-capturing closures live in the overflow tier; its entries
  // recycle through their own free list like the slots do.
  sim::EventQueue q;
  long long sink = 0;
  auto make = [&sink](int i) {
    const Key k = K(static_cast<std::uint64_t>(i) + 1);
    auto fn = [s = &sink, k] { *s += static_cast<long long>(k.limb(Key::kLimbs - 1)); };
    static_assert(!sim::kFitsInlineEvent<decltype(fn)>);
    return fn;
  };
  std::vector<sim::EventId> ids;
  churn_round(q, 0, make, ids);
  const std::size_t slots = q.slots();
  const std::size_t overflow = q.overflow_slots();
  ASSERT_GT(overflow, 0u);

  const AllocProbe probe;
  for (int round = 1; round <= 100; ++round) {
    churn_round(q, round * 1000, make, ids);
  }
  EXPECT_EQ(probe.news(), 0u) << "overflow-tier churn allocated";
  EXPECT_EQ(probe.deletes(), 0u);
  EXPECT_EQ(q.slots(), slots);
  EXPECT_EQ(q.overflow_slots(), overflow);
  EXPECT_GT(sink, 0);
}

TEST(AllocGuard, SystemFetchArmFireCompleteIsAllocationFree) {
#ifdef D2_PARANOID
  GTEST_SKIP() << "paranoid audits allocate inside the measured hot path";
#endif
  // A move makes a node the pointer primary of a run of blocks; the node
  // is down when the stabilization timers fire, so they lapse, and its
  // recovery arms a fetch timer per pointer member; each fires, enqueues
  // its transfer on the migration link, and the completion promotes the
  // member.
  // The first cycle sizes every buffer; the second, over fewer blocks,
  // runs its arm -> fire -> complete span without allocating. (Moves
  // themselves allocate: the ring is a std::map.)
  core::SystemConfig c;
  c.node_count = 16;
  c.replicas = 3;
  c.seed = 7;
  c.pointer_stabilization = hours(1);
  c.regen_delay = days(30);  // no regeneration inside the test
  sim::Simulator sim;
  core::System sys(c, sim, nullptr);
  auto key = [](std::uint64_t i) { return K(1000 + i); };
  for (std::uint64_t i = 0; i < 300; ++i) sys.put(key(i), kB(8));
  for (std::uint64_t i = 5000; i < 5100; ++i) sys.put(key(i), kB(8));
  // Every key sits below every node ID: the smallest-ID node owns them.
  const int light = sys.ring().nodes_in_order().back();
  const auto trace = sim::FailureTrace::from_intervals(
      c.node_count, days(1),
      {{light, minutes(30), minutes(90)},
       {light, hours(3) + minutes(30), hours(3) + minutes(90)}});
  sys.attach_failure_trace(&trace, 0);
  const auto promotions = [&sys] {
    return sys.metrics().find_counter("system.pointer_promotions")->value();
  };

  core::SystemTestPeer::move(sys, light, key(299));  // 300 pointers
  sim.run_until(hours(3));
  ASSERT_EQ(promotions(), 300);
  core::SystemTestPeer::move(sys, light, key(5099));  // 100 pointers
  const std::int64_t before = promotions();

  const AllocProbe probe;
  sim.run_until(hours(6));
  EXPECT_EQ(probe.news(), 0u) << "fetch arm/fire/complete allocated";
  EXPECT_EQ(probe.deletes(), 0u);
  EXPECT_EQ(promotions() - before, 100);
}

TEST(AllocGuard, SimulatorScheduleDispatchIsAllocationFree) {
#ifdef D2_PARANOID
  GTEST_SKIP() << "paranoid audits allocate inside the measured hot path";
#endif
  sim::Simulator sim;
  long long fired = 0;
  // Self-rescheduling functor: the pattern used by System's periodic
  // maintenance events. One warm run_until sizes queue internals.
  struct Tick {
    sim::Simulator* sim;
    long long* fired;
    void operator()() const {
      ++*fired;
      if (*fired % 1000 != 0) sim->schedule_after(5, *this);
    }
  };
  sim.schedule_after(1, Tick{&sim, &fired});
  sim.run_until(10'000);

  const AllocProbe probe;
  sim.schedule_after(1, Tick{&sim, &fired});
  sim.run_until(20'000);
  EXPECT_EQ(probe.news(), 0u) << "Simulator dispatch steady state allocated";
  EXPECT_EQ(probe.deletes(), 0u);
  EXPECT_GE(fired, 2000);
}

TEST(AllocGuard, LookupCacheHitPathIsAllocationFree) {
  store::LookupCache cache(hours(100));  // no sweeps during the test
  for (std::uint64_t i = 0; i < 64; ++i) {
    cache.insert(1, static_cast<int>(i), K(i * 100), K(i * 100 + 99));
  }

  const AllocProbe probe;
  long long sum = 0;
  for (int round = 0; round < 1000; ++round) {
    for (std::uint64_t i = 0; i < 64; ++i) {
      const auto hit = cache.find(2, K(i * 100 + 50));
      ASSERT_TRUE(hit.has_value());
      sum += *hit;
    }
  }
  EXPECT_EQ(probe.news(), 0u) << "LookupCache hit path allocated";
  EXPECT_EQ(probe.deletes(), 0u);
  EXPECT_GT(sum, 0);
}

TEST(AllocGuard, RetrievalCacheHitAndChurnAreAllocationFree) {
#ifdef D2_PARANOID
  GTEST_SKIP() << "paranoid audits allocate inside the measured hot path";
#endif
  store::RetrievalCache cache(kB(8) * 128);
  // Warm past the high-water mark: fill to capacity, then enough extra
  // inserts that slab, free list, and table have seen peak occupancy.
  for (std::uint64_t i = 0; i < 512; ++i) cache.insert(K(i), kB(8));

  const AllocProbe probe;
  // Hit path.
  for (int round = 0; round < 1000; ++round) {
    for (std::uint64_t i = 512 - 128; i < 512; ++i) {
      ASSERT_TRUE(cache.lookup(K(i)));
    }
  }
  // Insert/evict churn at capacity: every insert of a fresh key evicts
  // the LRU entry; slots recycle through the free list, and backward-
  // shift deletion keeps the table at live occupancy (no rehash).
  for (std::uint64_t i = 512; i < 4096; ++i) {
    cache.insert(K(i), kB(8));
    cache.erase(K(i - 64));
  }
  EXPECT_EQ(probe.news(), 0u) << "RetrievalCache steady state allocated";
  EXPECT_EQ(probe.deletes(), 0u);
}

TEST(AllocGuard, BlockMapReassignToCurrentMembersIsAllocationFree) {
#ifdef D2_PARANOID
  GTEST_SKIP() << "paranoid audits allocate inside the measured hot path";
#endif
  store::BlockMap map(8);
  const std::vector<int> set = {0, 1, 2};
  for (std::uint64_t i = 1; i <= 512; ++i) map.insert(K(i * 16), kB(8), set);

  const AllocProbe probe;
  int changed = 0;
  for (int round = 0; round < 100; ++round) {
    map.for_each_in_arc(K(100), K(4000),
                        [&](const Key& k, store::BlockState& b) {
                          changed += map.reassign_replicas(k, b, set);
                        });
    changed += map.reassign_replicas(K(16), *map.find_mutable(K(16)), set);
  }
  EXPECT_EQ(probe.news(), 0u) << "unchanged reassignment allocated";
  EXPECT_EQ(probe.deletes(), 0u);
  EXPECT_EQ(changed, 0);
}

TEST(AllocGuard, BlockMapSameSizeReassignmentIsAllocationFree) {
#ifdef D2_PARANOID
  GTEST_SKIP() << "paranoid audits allocate inside the measured hot path";
#endif
  // Every round swaps each block's third member between nodes 2 and 3.
  // The departing member holds no data (node 2 lost its copy, node 3
  // joins as a pointer), so no copy turns stale: the new member list is
  // built in the slice's scratch array and copied over the old one.
  store::BlockMap map(8);
  const std::vector<int> with2 = {0, 1, 2};
  const std::vector<int> with3 = {0, 1, 3};
  for (std::uint64_t i = 1; i <= 512; ++i) {
    map.insert(K(i * 16), kB(8), with2);
    map.mark_missing(K(i * 16), 2);
  }
  auto swap_round = [&](const std::vector<int>& set) {
    int changed = 0;
    map.for_each_in_arc(K(0), K(512 * 16),
                        [&](const Key& k, store::BlockState& b) {
                          changed += map.reassign_replicas(k, b, set);
                        });
    return changed;
  };
  swap_round(with3);  // sizes the scratch array
  swap_round(with2);

  const AllocProbe probe;
  int changed = 0;
  for (int round = 0; round < 50; ++round) {
    changed += swap_round(with3);
    changed += swap_round(with2);
  }
  EXPECT_EQ(probe.news(), 0u) << "same-size reassignment allocated";
  EXPECT_EQ(probe.deletes(), 0u);
  EXPECT_EQ(changed, 100 * 512);
  EXPECT_NO_THROW(map.check_invariants());
}

TEST(AllocGuard, VolumeSetReadOfExistingFileIsAllocationFree) {
#ifdef D2_PARANOID
  GTEST_SKIP() << "paranoid audits allocate inside the measured hot path";
#endif
  using Op = trace::TraceRecord::Op;
  core::VolumeSet volumes(fs::KeyScheme::kD2);
  std::vector<fs::StoreOp> ops;
  const std::string_view path = "home/u1/docs/src/main.c";
  volumes.apply(trace::TraceRecord{0, 1, Op::kWrite, path, "", 0, kB(24)}, 0,
                ops);
  const trace::TraceRecord read{0, 1, Op::kRead, path, "", 0, kB(24)};
  // Reads alternately inside and past the 30 s window: every other one
  // re-fetches the metadata chain and the data blocks (new heap entries)
  // and expires the previous fetch's entries.
  SimTime t = minutes(1);
  auto read_round = [&] {
    std::size_t gets = 0;
    for (const SimTime step : {seconds(10), seconds(45)}) {
      t += step;
      ops.clear();
      volumes.apply(read, t, ops);
      gets += ops.size();
    }
    return gets;
  };
  for (int i = 0; i < 8; ++i) read_round();

  const AllocProbe probe;
  std::size_t gets = 0;
  for (int i = 0; i < 1000; ++i) gets += read_round();
  EXPECT_EQ(probe.news(), 0u) << "VolumeSet read of an existing file allocated";
  EXPECT_EQ(probe.deletes(), 0u);
  // root, docs, src, inode and three data blocks, once per round.
  EXPECT_EQ(gets, 1000u * 7);
}

TEST(AllocGuard, WritebackCacheChurnOverRecycledKeysIsAllocationFree) {
#ifdef D2_PARANOID
  GTEST_SKIP() << "paranoid audits allocate inside the measured hot path";
#endif
  fs::WritebackCache cache(seconds(30));
  std::vector<fs::StoreOp> out;
  // One round: a minute of staging, touching, cancelling and reading over
  // fixed key sets. Rounds start two minutes apart, so each one flushes
  // and expires the previous round's keys and their slots recycle.
  auto round = [&](SimTime start) {
    for (std::uint64_t i = 0; i < 64; ++i) {
      const SimTime t = start + static_cast<SimTime>(i) * seconds(1);
      cache.collect_expired(t, out);
      const Key k = K(i % 48);
      if (!cache.has_pending(k)) {
        cache.stage_put(k, kB(8), t, K(1000 + i % 48));
      } else if (i % 7 == 0) {
        cache.cancel_put(k);
      } else {
        cache.touch_put(k, kB(8), t);
      }
      const Key r = K(500 + i % 32);
      if (!cache.is_fresh(r, t)) cache.mark_clean(r, t);
    }
    out.clear();
  };
  for (int w = 0; w < 8; ++w) round(w * minutes(2));

  const AllocProbe probe;
  for (int w = 8; w < 400; ++w) round(w * minutes(2));
  EXPECT_EQ(probe.news(), 0u) << "WritebackCache churn allocated";
  EXPECT_EQ(probe.deletes(), 0u);

  // Predecessor entries: keys staged alternately with and without one,
  // cancelled at a different rate than the keys above, so an entry freed
  // by one key's cancel or flush is taken by another key's stage in an
  // order that shifts from round to round.
  auto pred_round = [&](SimTime start) {
    for (std::uint64_t i = 0; i < 96; ++i) {
      const SimTime t = start + static_cast<SimTime>(i) * seconds(1) / 2;
      cache.collect_expired(t, out);
      const Key k = K(2000 + (i * 7) % 40);
      if (!cache.has_pending(k)) {
        std::optional<Key> pred;
        if ((i + static_cast<std::uint64_t>(start / minutes(2))) % 2 == 0) {
          pred = K(3000 + i);
        }
        cache.stage_put(k, kB(8), t, pred);
      } else if (i % 5 == 0) {
        cache.cancel_put(k);
      } else {
        cache.touch_put(k, kB(8), t);
      }
    }
    out.clear();
  };
  for (int w = 400; w < 408; ++w) pred_round(w * minutes(2));
  const std::size_t bytes = cache.allocated_bytes();

  const AllocProbe pred_probe;
  for (int w = 408; w < 800; ++w) pred_round(w * minutes(2));
  EXPECT_EQ(pred_probe.news(), 0u) << "predecessor recycling allocated";
  EXPECT_EQ(pred_probe.deletes(), 0u);
  EXPECT_EQ(cache.allocated_bytes(), bytes);
}

TEST(AllocGuard, OpBatchWindowAtTheCapIsAllocationFree) {
#ifdef D2_PARANOID
  GTEST_SKIP() << "paranoid audits allocate inside the measured hot path";
#endif
  // Batches of tracked gets: the first one at the cap sizes the outcome
  // buffer, and every later batch of that size applies its gets and
  // flushes in it.
  core::SystemConfig c;
  c.node_count = 16;
  c.replicas = 3;
  c.seed = 7;
  sim::Simulator sim;
  core::System sys(c, sim, nullptr);
  for (std::uint64_t i = 0; i < 64; ++i) sys.put(K(1000 + i), kB(8));
  core::OpBatchRunner batch(sys, sim);
  constexpr std::size_t kCap = core::OpBatchRunner::kMaxBatchOps;
  SimTime t = 0;
  auto add = [&](std::size_t n) {
    t += seconds(1);
    for (std::size_t i = 0; i < n; ++i) {
      batch.add(fs::StoreOp{fs::StoreOp::Kind::kGet, K(1000 + i % 64), kB(8)},
                t, static_cast<std::int32_t>(i));
    }
  };
  auto all_served = [&] {
    for (const core::OpBatchRunner::GetOutcome& o : batch.outcomes()) {
      if (!o.known || !o.available) return false;
    }
    return true;
  };
  add(kCap - 1);
  EXPECT_FALSE(batch.should_flush_before(t));
  add(1);
  EXPECT_TRUE(batch.should_flush_before(t));  // the cap asks for a drain
  batch.flush();

  const AllocProbe probe;
  for (int w = 0; w < 4; ++w) {
    add(kCap);
    batch.flush();
  }
  EXPECT_EQ(probe.news(), 0u) << "an op batch at the cap allocated";
  EXPECT_EQ(probe.deletes(), 0u);
  EXPECT_EQ(batch.outcomes().size(), kCap);
  EXPECT_TRUE(all_served());
}

}  // namespace
}  // namespace d2
