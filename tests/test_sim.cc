#include <gtest/gtest.h>

#include "common/assert.h"
#include "common/key.h"
#include "obs/metrics.h"
#include "sim/bandwidth.h"
#include "sim/event_queue.h"
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

TEST(Simulator, CancelScheduledEvent) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
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
