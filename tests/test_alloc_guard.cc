// Steady-state allocation guard for the hot paths.
//
// A global counting operator new/delete observes every heap allocation in
// the test binary. Each test warms a structure to its high-water mark,
// then asserts that the steady-state loop — the part that runs millions
// of times per experiment — performs ZERO heap allocations:
//
//   * sim::EventQueue push / cancel / pop (InlineFunction events in a
//     slot slab; no per-event nodes, no std::function boxes),
//   * store::LookupCache hit path (chunked sorted index, no tree nodes),
//   * store::RetrievalCache hit path and insert/evict churn at capacity
//     (slab + intrusive LRU + backward-shift open addressing),
//   * store::BlockMap reassigning blocks to their current members inside
//     an arc walk (the unchanged sets of System's readjustment).
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
// skipped there. The guarantee is about release hot paths, which the
// default CI configuration still enforces.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "common/key.h"
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

TEST(AllocGuard, EventQueuePushCancelPopIsAllocationFree) {
#ifdef D2_PARANOID
  GTEST_SKIP() << "paranoid audits allocate inside the measured hot path";
#endif
  sim::EventQueue q;
  long long sink = 0;
  // Warm to high-water: slot slab and heap vector reach steady capacity.
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 256; ++i) {
    ids.push_back(q.push(i, [&sink] { ++sink; }));
  }
  for (int i = 0; i < 256; i += 2) q.cancel(ids[static_cast<std::size_t>(i)]);
  while (!q.empty()) q.pop().fn();

  const AllocProbe probe;
  for (int round = 0; round < 100; ++round) {
    ids.clear();  // capacity retained
    for (int i = 0; i < 256; ++i) {
      const Key k = K(static_cast<std::uint64_t>(i));
      ids.push_back(q.push(round * 1000 + i, [&sink, k] {
        sink += static_cast<long long>(k.limb(0));
      }));
    }
    for (int i = 0; i < 256; i += 2) {
      q.cancel(ids[static_cast<std::size_t>(i)]);
    }
    while (!q.empty()) q.pop().fn();
  }
  EXPECT_EQ(probe.news(), 0u) << "EventQueue steady state allocated";
  EXPECT_EQ(probe.deletes(), 0u);
  EXPECT_GT(sink, 0);
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
                          changed += map.reassign_replicas(k, b, set, round);
                        });
    changed += map.reassign_replicas(K(16), set, round);
  }
  EXPECT_EQ(probe.news(), 0u) << "unchanged reassignment allocated";
  EXPECT_EQ(probe.deletes(), 0u);
  EXPECT_EQ(changed, 0);
}

}  // namespace
}  // namespace d2
