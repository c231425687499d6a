// Arc-partitioned simulation tests (DESIGN.md §9): the ArcPlan keyspace
// bijection, deterministic mailbox release order, merged multi-queue
// scheduling, and serial/parallel window equivalence — the properties
// the byte-identical `--arc-workers N` claim rests on.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "common/arc_plan.h"
#include "common/key.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/system.h"
#include "sim/failure.h"
#include "sim/partition.h"
#include "sim/simulator.h"

namespace d2 {
namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

// ---------------------------------------------------------------------------
// ArcPlan: arc_of / lower_bound must be an exact bijection at every
// boundary, for arc counts with and without 2^64 divisibility.

TEST(ArcPlan, BoundariesRoundTripForManyArcCounts) {
  for (int arcs : {1, 2, 3, 4, 5, 7, 16, 33, 64, 255, 1024}) {
    const ArcPlan plan(arcs);
    EXPECT_EQ(plan.lower_bound(0), Key::min());
    EXPECT_EQ(plan.lower_bound(arcs), Key::max());
    for (int a = 0; a < arcs; ++a) {
      const Key lo = plan.lower_bound(a);
      EXPECT_EQ(plan.arc_of(lo), a) << "arcs=" << arcs << " a=" << a;
      // The key one limb step below the boundary belongs to the arc
      // before (arc_of only reads limb 0, so this is the true
      // predecessor boundary-wise).
      if (a > 0) {
        const Key below = Key::from_high64(lo.limb(0) - 1);
        EXPECT_EQ(plan.arc_of(below), a - 1) << "arcs=" << arcs << " a=" << a;
      }
    }
    EXPECT_EQ(plan.arc_of(Key::max()), arcs - 1);
  }
}

TEST(ArcPlan, RandomKeysLandInsideTheirArc) {
  Rng rng(991);
  for (int arcs : {2, 3, 13, 1024}) {
    const ArcPlan plan(arcs);
    for (int i = 0; i < 2000; ++i) {
      const Key k = Key::random(rng);
      const int a = plan.arc_of(k);
      ASSERT_GE(a, 0);
      ASSERT_LT(a, arcs);
      EXPECT_GE(k, plan.lower_bound(a));
      if (a + 1 < arcs) EXPECT_LT(k, plan.lower_bound(a + 1));
    }
  }
}

// ---------------------------------------------------------------------------
// Mailbox: deliver() must release staged messages in (time, src_arc,
// seq) order — a pure function of what each lane posted, independent of
// posting interleaving across lanes.

TEST(Mailbox, DeliversInTimeSrcSeqOrder) {
  constexpr int kArcs = 5;
  sim::Mailbox mbox;
  mbox.reset(kArcs);

  // Random traffic with many duplicate timestamps to exercise both
  // tie-break levels. Each message's payload is its posting identity.
  Rng rng(2024);
  struct Posted {
    SimTime time;
    int src;
    std::uint32_t seq;
  };
  std::vector<Posted> posted;
  std::vector<std::uint32_t> next_seq(kArcs, 0);
  for (int i = 0; i < 400; ++i) {
    const int src = static_cast<int>(rng.next_below(kArcs));
    const int dst = static_cast<int>(rng.next_below(kArcs));
    const SimTime t = static_cast<SimTime>(rng.next_below(20));  // dense ties
    posted.push_back(Posted{t, src, next_seq[static_cast<std::size_t>(src)]++});
    mbox.post(src, t, dst, sim::EventFn([] {}));
  }
  ASSERT_EQ(mbox.staged(), posted.size());

  std::vector<std::tuple<SimTime, int, std::uint32_t>> delivered;
  mbox.deliver([&](SimTime t, int src, std::uint32_t seq, int dst,
                   const sim::EventFn& fn) {
    (void)dst;
    (void)fn;
    delivered.emplace_back(t, src, seq);
  });
  ASSERT_EQ(delivered.size(), posted.size());
  EXPECT_TRUE(mbox.empty());

  // Total order: strictly increasing (time, src, seq).
  for (std::size_t i = 1; i < delivered.size(); ++i) {
    EXPECT_LT(delivered[i - 1], delivered[i]) << "at " << i;
  }
  // Every posted (time, src, seq) identity is released exactly once.
  std::vector<std::tuple<SimTime, int, std::uint32_t>> expected;
  for (const Posted& p : posted) expected.emplace_back(p.time, p.src, p.seq);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(delivered, expected);
}

TEST(Mailbox, DeliverClearsAndIsReusable) {
  sim::Mailbox mbox;
  mbox.reset(2);
  int fired = 0;
  mbox.post(0, 5, 1, sim::EventFn([] {}));
  mbox.deliver([&](SimTime, int, std::uint32_t, int, const sim::EventFn&) {
    ++fired;
  });
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(mbox.empty());
  // Second round after drain: seq restarts from 0 per lane.
  mbox.post(1, 3, 0, sim::EventFn([] {}));
  mbox.post(1, 3, 0, sim::EventFn([] {}));
  std::vector<std::uint32_t> seqs;
  mbox.deliver([&](SimTime, int, std::uint32_t seq, int, const sim::EventFn&) {
    seqs.push_back(seq);
  });
  EXPECT_EQ(seqs, (std::vector<std::uint32_t>{0, 1}));
}

// ---------------------------------------------------------------------------
// Simulator: the merged serial engine pops the minimum (time, order)
// across every queue, so which queue holds an event must not show in
// execution order.

TEST(PartitionedSimulator, MergedOrderIndependentOfQueuePlacement) {
  // Same (time, push-order) schedule, once all on one queue and once
  // striped across four arc queues; execution order must match.
  auto run_log = [](int arcs) {
    sim::Simulator sim(sim::ArcConfig{arcs, 1, 0});
    std::vector<int> log;
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
      const SimTime t = static_cast<SimTime>(rng.next_below(50));
      sim.schedule_arc_at(i % arcs, t, [&log, i] { log.push_back(i); });
    }
    sim.run();
    return log;
  };
  EXPECT_EQ(run_log(1), run_log(4));
  EXPECT_EQ(run_log(1), run_log(13));
}

TEST(PartitionedSimulator, GlobalQueueInterleavesWithArcQueues) {
  sim::Simulator sim(sim::ArcConfig{3, 1, 0});
  std::vector<int> log;
  sim.schedule_arc_at(0, 10, [&] { log.push_back(0); });
  sim.schedule_at(10, [&] { log.push_back(100); });  // same time, pushed later
  sim.schedule_arc_at(2, 5, [&] { log.push_back(2); });
  sim.schedule_arc_at(1, 20, [&] { log.push_back(1); });
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{2, 0, 100, 1}));
}

// ---------------------------------------------------------------------------
// Parallel windows: with workers > 1, per-arc event chains (including
// in-window reschedules and past-window mailboxed pushes) plus global
// events reading every shard must produce the same state as workers=1.

struct ChainedRun {
  std::vector<std::uint64_t> acc;
  std::uint64_t global_acc;
  std::uint64_t checksum;  // order-insensitive digest of executed events
  std::uint64_t windows;
};

ChainedRun chained_run(int arcs, int workers, SimTime lookahead = 0) {
  sim::Simulator sim(sim::ArcConfig{arcs, workers, lookahead});
  std::vector<std::uint64_t> acc(static_cast<std::size_t>(arcs), 0);
  std::uint64_t global_acc = 0;
  constexpr SimTime kEnd = 5000;

  // Each arc runs a self-rescheduling chain with an arc-specific stride,
  // mixing (arc, now) into its own accumulator. Strides are co-prime-ish
  // so lanes desynchronize; reschedules land both inside and past
  // windows (global events below bound the windows).
  struct Chain {
    sim::Simulator* sim;
    std::vector<std::uint64_t>* acc;
    int arc;
    SimTime stride;
    void operator()() const {
      auto& a = (*acc)[static_cast<std::size_t>(arc)];
      a = mix(a, static_cast<std::uint64_t>(sim->now()) * 31 +
                     static_cast<std::uint64_t>(arc));
      if (sim->now() + stride < kEnd) {
        sim->schedule_arc_after(arc, stride, *this);
      }
    }
  };
  for (int a = 0; a < arcs; ++a) {
    sim.schedule_arc_at(
        a, 1 + a, Chain{&sim, &acc, a, static_cast<SimTime>(17 + 13 * a)});
  }

  // Periodic global events: order-sensitive fold over every shard — any
  // lane outrunning a barrier or a reordered chain step changes this.
  struct Global {
    sim::Simulator* sim;
    std::vector<std::uint64_t>* acc;
    std::uint64_t* global_acc;
    void operator()() const {
      for (std::uint64_t v : *acc) *global_acc = mix(*global_acc, v);
      if (sim->now() + 250 < kEnd) sim->schedule_after(250, *this);
    }
  };
  sim.schedule_at(100, Global{&sim, &acc, &global_acc});

  // run_until, not run(): only the bounded runner opens parallel windows,
  // and every event above lies strictly before kEnd.
  sim.run_until(kEnd);
  return {acc, global_acc, sim.event_time_checksum(), sim.windows_executed()};
}

TEST(PartitionedSimulator, ParallelWindowsMatchSerialExactly) {
  const auto serial = chained_run(/*arcs=*/6, /*workers=*/1);
  for (int workers : {2, 4}) {
    const auto parallel = chained_run(6, workers);
    EXPECT_EQ(parallel.acc, serial.acc) << workers;
    EXPECT_EQ(parallel.global_acc, serial.global_acc) << workers;
    EXPECT_EQ(parallel.checksum, serial.checksum) << workers;
  }
}

TEST(PartitionedSimulator, AdaptiveHorizonRunsTheSameEventsAsConservative) {
  // Window-trace differential (DESIGN.md §12): the adaptive horizon
  // (lookahead 0, windows extend to the next global event) and a
  // conservative cap chop the run into different windows, yet the
  // executed event multiset — and therefore the final state — must be
  // identical. The checksum is order-insensitive, so it is the digest of
  // *what ran*, not of how the run was windowed.
  const auto adaptive = chained_run(6, 4, 0);
  for (SimTime cap : {SimTime{50}, SimTime{250}, SimTime{1000}}) {
    const auto conservative = chained_run(6, 4, cap);
    EXPECT_EQ(conservative.acc, adaptive.acc) << "cap=" << cap;
    EXPECT_EQ(conservative.global_acc, adaptive.global_acc) << "cap=" << cap;
    EXPECT_EQ(conservative.checksum, adaptive.checksum) << "cap=" << cap;
    // Capping can only add barriers: adaptive windows are maximal.
    EXPECT_LE(adaptive.windows, conservative.windows) << "cap=" << cap;
  }
  // A cap short enough to split inter-global stretches must actually
  // produce more windows, or the differential is vacuous.
  EXPECT_GT(chained_run(6, 4, 50).windows, adaptive.windows);
}

TEST(PartitionedSimulator, ArcPhaseMailboxesLaneSchedulesDeterministically) {
  auto run = [](int workers) {
    sim::Simulator sim(sim::ArcConfig{4, workers, 0});
    std::vector<std::uint64_t> acc(4, 0);
    sim.run_until(10);
    sim.run_arc_phase([&](int arc) {
      EXPECT_TRUE(sim.in_lane());
      EXPECT_EQ(sim.lane_arc(), arc);
      acc[static_cast<std::size_t>(arc)] =
          mix(0, static_cast<std::uint64_t>(arc));
      // Future own-arc work from inside a phase lane goes through the
      // mailbox (phase windows are zero-length) and must still fire.
      sim.schedule_arc_after(arc, 5 + arc, [&acc, arc] {
        acc[static_cast<std::size_t>(arc)] =
            mix(acc[static_cast<std::size_t>(arc)], 77);
      });
    });
    sim.run();
    return acc;
  };
  const auto serial = run(1);
  for (std::uint64_t v : serial) EXPECT_NE(v, 0u);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(3), serial);
}

TEST(PartitionedSimulator, LanesMayOnlyScheduleOntoTheirOwnArc) {
  sim::Simulator sim(sim::ArcConfig{2, 1, 0});
  bool threw = false;
  sim.run_arc_phase([&](int arc) {
    if (arc != 0) return;
    try {
      sim.schedule_arc_after(1, 10, [] {});  // cross-arc from lane 0
    } catch (const std::exception&) {
      threw = true;
    }
  });
  EXPECT_TRUE(threw);
}

// ---------------------------------------------------------------------------
// System: the sharded store/TTL/accounting state must behave identically
// for any arc count, including TTL expiry and delayed removal (the two
// event kinds that run on arc lanes).

std::uint64_t system_run_digest(int arcs, int workers) {
  core::SystemConfig cfg;
  cfg.node_count = 12;
  cfg.replicas = 3;
  cfg.seed = 99;
  cfg.block_ttl = hours(2);
  cfg.arcs = arcs;
  cfg.arc_workers = workers;
  sim::Simulator sim(sim::ArcConfig{arcs, workers, 0});
  core::System system(cfg, sim);

  Rng rng(4321);
  std::vector<Key> keys;
  for (int i = 0; i < 300; ++i) keys.push_back(Key::random(rng));
  for (const Key& k : keys) system.put(k, kB(4));
  sim.run_until(hours(1));
  // Refresh one third, remove one third, let the rest expire.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i % 3 == 0) system.refresh(keys[i]);
    if (i % 3 == 1) system.remove(keys[i]);
  }
  sim.run_until(hours(5));
  system.check_invariants();

  std::uint64_t h = 0;
  h = mix(h, static_cast<std::uint64_t>(system.block_map().block_count()));
  h = mix(h, static_cast<std::uint64_t>(system.user_write_bytes()));
  h = mix(h, static_cast<std::uint64_t>(system.user_removed_bytes()));
  for (const Key& k : keys) h = mix(h, system.has(k) ? 1 : 0);
  return h;
}

TEST(PartitionedSystem, TtlAndRemovalIdenticalAcrossArcCounts) {
  const std::uint64_t base = system_run_digest(1, 1);
  EXPECT_EQ(system_run_digest(4, 1), base);
  EXPECT_EQ(system_run_digest(16, 1), base);
  EXPECT_EQ(system_run_digest(4, 2), base);
  EXPECT_EQ(system_run_digest(16, 4), base);
}

// ---------------------------------------------------------------------------
// Queue-placement properties (DESIGN.md §12): key-local timers must live
// on their owner arc's queue — every event on the global queue is a
// parallel-window barrier, so a misplaced timer silently serializes the
// run even though the output stays correct.

constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

TEST(PartitionedSystem, FetchAndTtlTimersLandOnArcQueuesNotTheGlobalQueue) {
  core::SystemConfig cfg;
  cfg.node_count = 16;
  cfg.replicas = 3;
  cfg.seed = 7;
  cfg.block_ttl = hours(6);
  cfg.arcs = 8;
  sim::Simulator sim(sim::ArcConfig{cfg.arcs, 1, 0});
  core::System system(cfg, sim);

  Rng rng(11);
  std::vector<Key> keys;
  for (int i = 0; i < 200; ++i) keys.push_back(Key::random(rng));
  for (const Key& k : keys) system.put(k, kB(4));

  // Every block now has a pending TTL expiry timer — and the global
  // queue must hold none of them.
  EXPECT_GT(sim.events_pending(), 0u);
  EXPECT_EQ(sim.next_global_event_time(), kNever);

  // A node outage triggers readjustment: the regen-delay event it leaves
  // behind is legitimately global (it readjusts a ring arc), but every
  // fetch timer and transfer completion it spawns must land on the owner
  // key's arc queue.
  const auto trace = sim::FailureTrace::from_intervals(
      cfg.node_count, days(1), {{0, minutes(10), hours(3)}});
  system.attach_failure_trace(&trace, 0);
  sim.run_until(minutes(11));  // past the down transition
  EXPECT_EQ(sim.next_global_event_time(), minutes(10) + cfg.regen_delay);

  // Step just past the readjustment: the fetch transfers it started are
  // still in flight, so their completion events are pending — and if they
  // sit on arc queues, the earliest pending event is strictly earlier
  // than the earliest global event (the recovery at hours(3)). A
  // misrouted completion makes the two coincide.
  sim.run_until(minutes(10) + cfg.regen_delay + milliseconds(1));
  ASSERT_GT(sim.events_pending(), 0u);
  EXPECT_LT(sim.next_event_time(), sim.next_global_event_time());
  EXPECT_EQ(sim.next_global_event_time(), hours(3));  // the recovery only
}

TEST(PartitionedSystem, ProbeWorkReachesGlobalQueueOnlyAsCommitTicks) {
  core::SystemConfig cfg;
  cfg.node_count = 16;
  cfg.replicas = 3;
  cfg.seed = 7;
  cfg.arcs = 8;
  sim::Simulator sim(sim::ArcConfig{cfg.arcs, 1, 0});
  core::System system(cfg, sim);
  system.start_load_balancing();

  // Per-node probe due times are jittered (almost surely off any epoch
  // boundary), yet the only global events the probe machinery creates
  // are its epoch-aligned commit ticks.
  ASSERT_LT(sim.next_global_event_time(), kNever);
  for (int tick = 0; tick < 5; ++tick) {
    EXPECT_EQ(sim.next_global_event_time() % core::System::kProbeCommitInterval,
              0)
        << "tick " << tick;
    sim.run_until(sim.next_global_event_time());
  }
}

}  // namespace
}  // namespace d2
