#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/assert.h"
#include "common/key.h"
#include "common/rng.h"
#include "core/op_batch.h"
#include "core/repair.h"
#include "core/system.h"
#include "obs/metrics.h"
#include "sim/bandwidth.h"
#include "sim/event_queue.h"
#include "sim/failure.h"
#include "sim/simulator.h"

namespace d2::sim {
namespace {

TEST(InlineFunction, WrapsCapturesUpToBudget) {
  int hits = 0;
  std::uint64_t payload[8] = {7, 0, 0, 0, 0, 0, 0, 35};  // Key-sized capture
  EventFn fn = [&hits, payload] { hits += static_cast<int>(payload[0] + payload[7]); };
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(hits, 84);
}

TEST(InlineFunction, DefaultIsEmptyAndResetClears) {
  EventFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
  fn = [] {};
  EXPECT_TRUE(static_cast<bool>(fn));
  fn.reset();
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(InlineFunction, CopiesAreIndependentInvocables) {
  int count = 0;
  EventFn a = [&count] { ++count; };
  EventFn b = a;  // trivially copyable: slab-style memcpy semantics
  a();
  b();
  EXPECT_EQ(count, 2);
  a.reset();
  b();  // resetting one copy must not disturb another
  EXPECT_EQ(count, 3);
}

TEST(InlineFunction, CapacityMatchesAuditedBudget) {
  // The budget is load-bearing: System::refresh captures
  // {this, Key, SimTime} = 80 bytes. If Key grows or the budget shrinks,
  // this fails before an opaque static_assert does.
  static_assert(EventFn::capacity() >= sizeof(void*) + sizeof(Key) +
                                           sizeof(SimTime));
  SUCCEED();
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(30, [&] { fired.push_back(3); });
  q.push(10, [&] { fired.push_back(1); });
  q.push(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, StableForEqualTimes) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.push(5, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  EventId id = q.push(10, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
  EXPECT_FALSE(q.cancel(id));  // double-cancel is a no-op
}

TEST(EventQueue, CancelMiddleEventOnly) {
  EventQueue q;
  std::vector<int> fired;
  q.push(1, [&] { fired.push_back(1); });
  EventId mid = q.push(2, [&] { fired.push_back(2); });
  q.push(3, [&] { fired.push_back(3); });
  q.cancel(mid);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  SimTime seen = -1;
  sim.schedule_at(100, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule_at(50, [&] {
    sim.schedule_after(25, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{75}));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(10, [&] { ++count; });
  sim.schedule_at(20, [&] { ++count; });
  sim.schedule_at(30, [&] { ++count; });
  sim.run_until(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 20);
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, PastSchedulingThrows) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, [] {}), d2::PreconditionError);
  EXPECT_THROW(sim.schedule_after(-1, [] {}), d2::PreconditionError);
}

// Recurring chains use a self-rescheduling functor (as the balance
// experiment's sampler does): a recursive std::function would both
// heap-allocate and fail EventFn's trivially-copyable capture gate.
struct Ticker {
  Simulator* sim;
  int* fires;
  void operator()() const {
    if (++*fires < 5) sim->schedule_after(10, *this);
  }
};

TEST(Simulator, RecurringEventChain) {
  Simulator sim;
  int fires = 0;
  sim.schedule_after(10, Ticker{&sim, &fires});
  sim.run();
  EXPECT_EQ(fires, 5);
  EXPECT_EQ(sim.now(), 50);
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(Simulator, EventSlotsGaugeKeepsPendingHighWater) {
  obs::Registry metrics;
  Simulator sim;
  sim.bind_metrics(&metrics);
  for (int i = 1; i <= 4; ++i) sim.schedule_at(i, [] {});
  sim.run();
  sim.schedule_at(10, [] {});  // reuses a freed slot
  sim.export_metrics();
  EXPECT_EQ(metrics.find_gauge("sim.events_pending")->value(), 1.0);
  EXPECT_EQ(metrics.find_gauge("sim.event_slots")->value(), 4.0);
}

TEST(Simulator, EventSlabBytesGaugeCountsAllocatedPages) {
  obs::Registry metrics;
  Simulator sim;
  sim.bind_metrics(&metrics);
  sim.export_metrics();
  EXPECT_EQ(metrics.find_gauge("sim.event_slab_bytes")->value(), 0.0);
  // One page of each per-slot array on the global queue and on the
  // key-local queue.
  sim.schedule_at(1, [] {});
  sim.schedule_local_at(2, [] {});
  sim.schedule_local_at(3, [] {});
  EventQueue one_page;
  one_page.push(1, [] {});
  sim.export_metrics();
  EXPECT_EQ(sim.event_slab_bytes(), 2 * one_page.slab_bytes());
  EXPECT_EQ(metrics.find_gauge("sim.event_slab_bytes")->value(),
            static_cast<double>(sim.event_slab_bytes()));
  // Pages stay allocated once the events have run.
  sim.run();
  EXPECT_EQ(sim.event_slab_bytes(), 2 * one_page.slab_bytes());
}

TEST(Simulator, DiscardsKeyLocalEvents) {
  Simulator sim;
  int fired = 0;
  const EventId next = sim.schedule_local_at(10, [&] { fired += 1; });
  const EventId later = sim.schedule_local_at(20, [&] { fired += 10; });
  sim.schedule_at(30, [&] { fired += 100; });
  EXPECT_EQ(sim.local_pending_time(later), SimTime{20});
  EXPECT_FALSE(sim.discard_local(next));  // the queue's next event: declined
  EXPECT_TRUE(sim.discard_local(later));
  EXPECT_FALSE(sim.local_pending_time(later).has_value());
  EXPECT_FALSE(sim.discard_local(later));  // already gone
  EXPECT_FALSE(sim.discard_local(Simulator::kNoEvent));
  EXPECT_EQ(sim.events_pending(), 2u);
  sim.run();
  EXPECT_EQ(fired, 101);
  EXPECT_EQ(sim.events_processed(), 2u);
}

// ---------------------------------------------------------------------------
// Event classes (DESIGN.md §9): global and key-local events merge into one
// (time, order) sequence; only global events fence an op batch, and the
// commit hook runs before global events and at flush start, never before
// a key-local event.

constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

TEST(EventClasses, GlobalAndLocalEventsMergeByTimeAndOrder) {
  Simulator sim;
  std::vector<int> log;
  sim.schedule_local_at(10, [&] { log.push_back(0); });
  sim.schedule_at(10, [&] { log.push_back(100); });  // same time, pushed later
  sim.schedule_local_at(5, [&] { log.push_back(2); });
  sim.schedule_local_at(20, [&] { log.push_back(1); });
  sim.schedule_at(20, [&] { log.push_back(101); });
  sim.schedule_local_at(20, [&] { log.push_back(3); });
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{2, 0, 100, 1, 101, 3}));
}

TEST(EventClasses, MergedOrderIndependentOfEventClass) {
  // The same (time, push-order) schedule, once all global and once
  // alternating classes: execution order must match.
  auto run_log = [](bool mixed) {
    Simulator sim;
    std::vector<int> log;
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
      const SimTime t = static_cast<SimTime>(rng.next_below(50));
      if (mixed && i % 2 == 1) {
        sim.schedule_local_at(t, [&log, i] { log.push_back(i); });
      } else {
        sim.schedule_at(t, [&log, i] { log.push_back(i); });
      }
    }
    sim.run();
    return log;
  };
  EXPECT_EQ(run_log(false), run_log(true));
}

TEST(EventClasses, CommitHookRunsBeforeGlobalEventsAndAtFlushStart) {
  Simulator sim;
  std::string log;
  sim.set_commit_hook([&] { log += 'C'; });
  sim.schedule_local_at(1, [&] { log += 'L'; });
  sim.schedule_local_at(2, [&] { log += 'L'; });
  sim.schedule_at(3, [&] { log += 'G'; });
  sim.schedule_local_at(4, [&] { log += 'L'; });
  sim.schedule_local_at(6, [&] { log += 'L'; });
  // Before the global event, then at the idle fixpoint (t = 4 is past 3).
  sim.run_until(3);
  EXPECT_EQ(log, "LLCGC");
  // An op flush: one commit point, then key-local events with none.
  log.clear();
  sim.commit_point();
  sim.run_local_until(5);
  sim.run_local_until(7);
  EXPECT_EQ(log, "CLL");
  EXPECT_EQ(sim.now(), 7);
}

TEST(EventClasses, OpFlushCommitsOnceAtItsStart) {
  core::SystemConfig cfg;
  cfg.node_count = 8;
  Simulator sim;
  core::System system(cfg, sim);
  core::OpBatchRunner batch(system, sim);
  std::string log;
  // Replaces the system's reservation relay; nothing is staged here.
  sim.set_commit_hook([&] { log += 'C'; });
  sim.schedule_local_at(5, [&] { log += 'L'; });
  sim.schedule_local_at(15, [&] { log += 'L'; });
  Rng rng(5);
  batch.add(fs::StoreOp{fs::StoreOp::Kind::kPut, Key::random(rng), kB(4)}, 10);
  batch.add(fs::StoreOp{fs::StoreOp::Kind::kPut, Key::random(rng), kB(4)}, 20);
  batch.flush();
  EXPECT_EQ(log, "CLL");
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(system.block_map().block_count(), 2u);
}

TEST(EventClasses, KeyLocalEventsNeverFenceABatch) {
  core::SystemConfig cfg;
  cfg.node_count = 8;
  cfg.block_ttl = minutes(5);
  Simulator sim;
  core::System system(cfg, sim);
  core::OpBatchRunner batch(system, sim);
  Rng rng(3);
  for (int i = 0; i < 20; ++i) system.put(Key::random(rng), kB(4));
  // Only TTL expiries are pending: no global event, so no fence.
  ASSERT_GT(sim.events_pending(), 0u);
  EXPECT_EQ(sim.next_global_event_time(), kNever);
  batch.add(fs::StoreOp{fs::StoreOp::Kind::kPut, Key::random(rng), kB(4)},
            minutes(1));
  EXPECT_FALSE(batch.should_flush_before(hours(1)));  // past every expiry
  batch.add(fs::StoreOp{fs::StoreOp::Kind::kPut, Key::random(rng), kB(4)},
            hours(1));
  batch.flush();
  // The expiries ran inside the flush; the first staged block's TTL
  // (1 min + 5 min) expired too, the last one's is still pending.
  EXPECT_EQ(system.block_map().block_count(), 1u);
  EXPECT_EQ(sim.events_pending(), 1u);
  // A global event at or before the next op fences the batch.
  sim.schedule_at(hours(2), [] {});
  batch.add(fs::StoreOp{fs::StoreOp::Kind::kPut, Key::random(rng), kB(4)},
            hours(1));
  EXPECT_FALSE(batch.should_flush_before(hours(2) - 1));
  EXPECT_TRUE(batch.should_flush_before(hours(2)));
}

/// A seeded run of puts, same-size re-puts (TTL refreshes), removes and
/// gets, applied through OpBatchRunner flushes or one run_until per op,
/// reduced to a digest of what each get saw, what survived and the byte
/// totals.
std::uint64_t ttl_and_removal_digest(bool batched) {
  core::SystemConfig cfg;
  cfg.node_count = 12;
  cfg.replicas = 3;
  cfg.seed = 99;
  cfg.block_ttl = hours(1);
  Simulator sim;
  core::System system(cfg, sim);
  core::OpBatchRunner batch(system, sim);
  // A global event mid-replay fences the batch once.
  sim.schedule_at(minutes(90), [] {});
  std::uint64_t h = 0;
  auto fold = [&h](std::uint64_t v) { h = h * 1000003 + v; };
  auto flush = [&] {
    batch.flush();
    for (const core::OpBatchRunner::GetOutcome& o : batch.outcomes()) {
      fold(o.known ? 1 : 0);
    }
  };
  auto apply = [&](fs::StoreOp::Kind kind, const Key& k, SimTime t) {
    const fs::StoreOp op{kind, k, kB(4)};
    if (batched) {
      if (batch.should_flush_before(t)) {
        flush();
        sim.run_until(t);
      }
      batch.add(op, t, /*tag=*/0);
      return;
    }
    sim.run_until(t);
    switch (kind) {
      case fs::StoreOp::Kind::kPut:
        system.put(k, op.size);
        return;
      case fs::StoreOp::Kind::kRemove:
        system.remove(k);
        return;
      case fs::StoreOp::Kind::kGet:
        fold(system.has(k) ? 1 : 0);
        return;
    }
  };
  Rng rng(4321);
  std::vector<Key> keys;
  for (int i = 0; i < 300; ++i) keys.push_back(Key::random(rng));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    apply(fs::StoreOp::Kind::kPut, keys[i], seconds(10) * static_cast<SimTime>(i));
  }
  // Re-put one third, read one third and remove the rest. The first 60
  // keys' ops come before their TTL expiry, the others' after it.
  const fs::StoreOp::Kind kinds[] = {fs::StoreOp::Kind::kPut,
                                     fs::StoreOp::Kind::kGet,
                                     fs::StoreOp::Kind::kRemove};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const SimTime t = minutes(50) + seconds(20) * static_cast<SimTime>(i);
    apply(kinds[i % 3], keys[i], t);
  }
  flush();
  sim.run_until(minutes(160));  // past the last op, before its expiry
  system.check_invariants();
  fold(system.block_map().block_count());
  fold(static_cast<std::uint64_t>(system.user_write_bytes()));
  fold(static_cast<std::uint64_t>(system.user_removed_bytes()));
  for (const Key& k : keys) fold(system.has(k) ? 1 : 0);
  return h;
}

TEST(EventClasses, TtlAndRemovalIdenticalBatchedOrPerOp) {
  EXPECT_EQ(ttl_and_removal_digest(true), ttl_and_removal_digest(false));
}

TEST(EventClasses, FetchAndTtlTimersAreKeyLocalEvents) {
  core::SystemConfig cfg;
  cfg.node_count = 16;
  cfg.replicas = 3;
  cfg.seed = 7;
  cfg.block_ttl = hours(6);
  Simulator sim;
  core::System system(cfg, sim);

  Rng rng(11);
  for (int i = 0; i < 200; ++i) system.put(Key::random(rng), kB(4));

  // Every block now has a pending TTL expiry timer — and none of them is
  // a global event.
  EXPECT_GT(sim.events_pending(), 0u);
  EXPECT_EQ(sim.next_global_event_time(), kNever);

  // A node outage triggers readjustment: the regen-delay event it leaves
  // behind is legitimately global (it readjusts a ring arc), but every
  // fetch timer and transfer completion it spawns must be key-local.
  const auto trace = FailureTrace::from_intervals(
      cfg.node_count, days(1), {{0, minutes(10), hours(3)}});
  system.attach_failure_trace(&trace, 0);
  sim.run_until(minutes(11));  // past the down transition
  EXPECT_EQ(sim.next_global_event_time(), minutes(10) + cfg.regen_delay);

  // Step just past the readjustment: the fetch transfers it started are
  // still in flight, so their completion events are pending — and if they
  // are key-local, the earliest pending event is strictly earlier than
  // the earliest global event (the recovery at hours(3)). A completion
  // scheduled as a global event makes the two coincide.
  sim.run_until(minutes(10) + cfg.regen_delay + milliseconds(1));
  ASSERT_GT(sim.events_pending(), 0u);
  EXPECT_LT(sim.next_event_time(), sim.next_global_event_time());
  EXPECT_EQ(sim.next_global_event_time(), hours(3));  // the recovery only
}

TEST(EventClasses, ProbeWorkReachesGlobalQueueOnlyAsCommitTicks) {
  core::SystemConfig cfg;
  cfg.node_count = 16;
  cfg.replicas = 3;
  cfg.seed = 7;
  Simulator sim;
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

// The arc-partitioned engine is gone; the settings that configured it
// accept only their serial values, everywhere they are still read.
TEST(SerialEngine, RejectsPartitionedSettings) {
  EXPECT_THROW(Simulator(ArcConfig{2, 1, 0}), PreconditionError);
  EXPECT_THROW(Simulator(ArcConfig{1, 2, 0}), PreconditionError);
  EXPECT_THROW(Simulator(ArcConfig{1, 1, seconds(1)}), PreconditionError);
  EXPECT_NO_THROW(Simulator(ArcConfig{1, 1, 0, SchedulerKind::kHeap}));

  Simulator sim;
  core::SystemConfig cfg;
  cfg.node_count = 8;
  cfg.arcs = 2;
  EXPECT_THROW(core::System(cfg, sim), PreconditionError);
  cfg.arcs = 1;
  cfg.arc_workers = 2;
  EXPECT_THROW(core::System(cfg, sim), PreconditionError);

  core::RepairConfig rc;
  rc.arcs = 2;
  EXPECT_THROW(core::RepairEngine(rc, sim), PreconditionError);
  core::DurabilityParams dp;
  dp.arc_workers = 2;
  EXPECT_THROW(core::run_durability(dp), PreconditionError);
}

TEST(BandwidthLink, TransmissionTimeMatchesRate) {
  // 750 kbps, 750k bits = 93750 bytes in exactly 1 second.
  BandwidthLink link(kbps(750));
  const SimTime done = link.enqueue(0, 93750);
  EXPECT_EQ(done, seconds(1));
}

TEST(BandwidthLink, SerializesTransfers) {
  BandwidthLink link(kbps(800));  // 100 KB/s
  const SimTime first = link.enqueue(0, 100000);
  const SimTime second = link.enqueue(0, 100000);
  EXPECT_EQ(first, seconds(1));
  EXPECT_EQ(second, seconds(2));
  EXPECT_EQ(link.total_bytes(), 200000);
}

TEST(BandwidthLink, IdleGapNotCharged) {
  BandwidthLink link(kbps(800));
  link.enqueue(0, 100000);              // busy until 1s
  const SimTime done = link.enqueue(seconds(5), 100000);
  EXPECT_EQ(done, seconds(6));          // starts fresh at 5s
}

TEST(BandwidthLink, BacklogReflectsQueue) {
  BandwidthLink link(kbps(800));
  EXPECT_EQ(link.backlog(0), 0);
  link.enqueue(0, 100000);
  EXPECT_EQ(link.backlog(0), seconds(1));
  EXPECT_EQ(link.backlog(seconds(2)), 0);
}

TEST(BandwidthLink, PeekDoesNotMutate) {
  BandwidthLink link(kbps(800));
  const SimTime peeked = link.peek_completion(0, 100000);
  EXPECT_EQ(peeked, seconds(1));
  EXPECT_EQ(link.busy_until(), 0);
  EXPECT_EQ(link.total_bytes(), 0);
}

TEST(Units, TransmissionTimeBasics) {
  EXPECT_EQ(transmission_time(0, kbps(100)), 0);
  // 1500 bytes at 1500 kbps = 8 ms.
  EXPECT_EQ(transmission_time(1500, kbps(1500)), milliseconds(8));
}

}  // namespace
}  // namespace d2::sim
