// Differential property tests: the timing-wheel EventQueue against a
// test-local reference model (sim/event_queue.h, DESIGN.md §11).
//
// The model keeps pending events in a std::map keyed by (time, order) and
// hands out slots from a LIFO free list, so it predicts the exact id of
// every push and the exact (time, id) of every pop, plus empty/pending,
// next_time, next_order, pending times and the discard rule (declined
// only for the queue's next event). Every test drives the queue and the
// model through an identical op schedule and compares them after every
// single op; check_invariants() runs on the queue after every op too, so
// any structural drift (wheel bucket membership, free list) surfaces at
// the op that caused it, not at the end.
//
// Coverage targets the wheel's hard cases: equal-time FIFO runs,
// discard-at-top (declined, the event still pops), cascade boundaries
// (times straddling 64^k digit rollovers), overflow times (above bit 47,
// including kSimTimeNever), seq-tag reuse under slot churn, pushes
// before the last popped time (a precondition violation), and long
// randomized push/discard/pop schedules over several time magnitudes.

#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/key.h"
#include "common/rng.h"
#include "common/units.h"
#include "sim/paged_array.h"
#include "sim/timing_wheel.h"

namespace d2::sim {
namespace {

constexpr int kSeqBits = 36;  // EventId: slot << 36 | seq

/// Reference scheduler: what the EventQueue must do, in the plainest
/// terms. Slots recycle last-freed-first; seqs count pushes from 1.
class ModelQueue {
 public:
  /// The id the next push will return (slot reuse, then seq).
  EventId push(SimTime t, std::uint64_t order) {
    std::uint64_t slot = slots_;
    if (free_.empty()) {
      ++slots_;
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    const EventId id = (slot << kSeqBits) | next_seq_++;
    EXPECT_TRUE(by_key_.emplace(std::pair{t, order}, id).second)
        << "two pending events share (time, order)";
    by_id_[id] = {t, order};
    return id;
  }
  /// Plain push: the merge order is the push's seq.
  EventId push(SimTime t) { return push(t, next_seq_); }

  /// Removes `id` unless it is not pending or is the next event.
  bool discard(EventId id) {
    auto it = by_id_.find(id);
    if (it == by_id_.end() || by_key_.begin()->second == id) return false;
    by_key_.erase(it->second);
    release(it);
    return true;
  }

  std::pair<SimTime, EventId> pop() {
    const auto [key, id] = *by_key_.begin();
    by_key_.erase(by_key_.begin());
    release(by_id_.find(id));
    return {key.first, id};
  }

  std::optional<SimTime> pending_time(EventId id) const {
    auto it = by_id_.find(id);
    if (it == by_id_.end()) return std::nullopt;
    return it->second.first;
  }
  bool empty() const { return by_key_.empty(); }
  std::size_t pending() const { return by_key_.size(); }
  std::size_t slots() const { return slots_; }
  SimTime next_time() const { return by_key_.begin()->first.first; }
  std::uint64_t next_order() const { return by_key_.begin()->first.second; }

 private:
  using Key = std::pair<SimTime, std::uint64_t>;  // (time, order)
  void release(std::map<EventId, Key>::iterator it) {
    free_.push_back(it->first >> kSeqBits);
    by_id_.erase(it);
  }

  std::map<Key, EventId> by_key_;
  std::map<EventId, Key> by_id_;
  std::vector<std::uint64_t> free_;
  std::uint64_t slots_ = 0;
  std::uint64_t next_seq_ = 1;
};

/// Drives the queue and the model in lockstep and checks observable
/// equivalence after every operation.
class QueuePair {
 public:
  EventId push(SimTime t) {
    const EventId a = queue_.push(t, [] {});
    EXPECT_EQ(a, model_.push(t)) << "slot/seq allocation diverged at t=" << t;
    compare();
    return a;
  }

  EventId push_ordered(SimTime t, std::uint64_t order) {
    const EventId a = queue_.push_ordered(t, order, [] {});
    EXPECT_EQ(a, model_.push(t, order));
    compare();
    return a;
  }

  /// Best-effort discard on both: they must agree, which pins the rule
  /// that only the queue's next event is declined.
  bool discard(EventId id) {
    const bool a = queue_.discard(id);
    EXPECT_EQ(a, model_.discard(id)) << "discard result diverged for id="
                                     << id;
    compare();
    return a;
  }

  /// Pending time of `id` on both; they must agree.
  std::optional<SimTime> pending_time(EventId id) const {
    const std::optional<SimTime> a = queue_.pending_time(id);
    EXPECT_EQ(a, model_.pending_time(id)) << "pending time diverged, id="
                                          << id;
    return a;
  }

  std::pair<SimTime, EventId> pop() {
    const EventQueue::Event a = queue_.pop();
    const auto [t, id] = model_.pop();
    EXPECT_EQ(a.time, t) << "pop time diverged";
    EXPECT_EQ(a.id, id) << "pop id diverged at t=" << a.time;
    compare();
    return {a.time, a.id};
  }

  /// Pushes a closure that records `tag` when it runs: a two-word one
  /// that lives in its slot, or, when `big`, one carrying a Key, which
  /// outgrows the slot and lives in the overflow tier.
  EventId push_tagged(SimTime t, std::uint64_t tag, bool big) {
    EventId a;
    if (big) {
      auto fn = [this, k = Key::from_uint64(tag)] {
        ran_ = k.limb(Key::kLimbs - 1);
      };
      static_assert(!kFitsInlineEvent<decltype(fn)>);
      a = queue_.push(t, fn);
    } else {
      auto fn = [this, tag] { ran_ = tag; };
      static_assert(kFitsInlineEvent<decltype(fn)>);
      a = queue_.push(t, fn);
    }
    EXPECT_EQ(a, model_.push(t)) << "slot/seq allocation diverged at t=" << t;
    compare();
    return a;
  }

  /// Pops and runs the popped closure; returns the popped id and the tag
  /// its closure recorded.
  std::pair<EventId, std::uint64_t> pop_run() {
    const EventQueue::Event a = queue_.pop();
    const auto [t, id] = model_.pop();
    EXPECT_EQ(a.time, t) << "pop time diverged";
    EXPECT_EQ(a.id, id) << "pop id diverged at t=" << a.time;
    compare();
    a.fn();
    return {a.id, ran_};
  }

  std::size_t overflow_slots() const { return queue_.overflow_slots(); }

  bool empty() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.pending(); }
  std::size_t slots() const {
    EXPECT_EQ(queue_.slots(), model_.slots()) << "slab sizes diverged";
    return queue_.slots();
  }
  SimTime next_time() const { return queue_.next_time(); }
  /// next_time(), or `fallback` when empty.
  SimTime next_time_or(SimTime fallback) const {
    return queue_.empty() ? fallback : queue_.next_time();
  }

  /// Drains both, asserting the stream is sorted by (time, id-order) —
  /// FIFO for equal times because ids carry seqs.
  std::vector<std::pair<SimTime, EventId>> drain() {
    std::vector<std::pair<SimTime, EventId>> out;
    SimTime prev_t = 0;
    bool first = true;
    while (!empty()) {
      const auto [t, id] = pop();
      if (!first) {
        EXPECT_LE(prev_t, t) << "pop stream went backwards";
      }
      first = false;
      prev_t = t;
      out.push_back({t, id});
    }
    return out;
  }

 private:
  void compare() {
    ASSERT_NO_THROW(queue_.check_invariants());
    ASSERT_EQ(queue_.empty(), model_.empty());
    ASSERT_EQ(queue_.pending(), model_.pending());
    if (!queue_.empty()) {
      ASSERT_EQ(queue_.next_time(), model_.next_time());
      ASSERT_EQ(queue_.next_order(), model_.next_order());
    }
  }

  EventQueue queue_;
  ModelQueue model_;
  std::uint64_t ran_ = 0;  // tag of the last closure run
};

TEST(EventQueueDifferential, EqualTimeTiesPopInPushOrder) {
  QueuePair q;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) ids.push_back(q.push(seconds(5)));
  for (int i = 0; i < 200; ++i) {
    const auto [t, id] = q.pop();
    EXPECT_EQ(t, seconds(5));
    EXPECT_EQ(id, ids[static_cast<std::size_t>(i)])
        << "FIFO order broken at pop " << i;
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueDifferential, InterleavedTiesKeepPerTimeFifo) {
  // Two interleaved time values: ties within each must stay FIFO even
  // though pushes alternate.
  QueuePair q;
  for (int i = 0; i < 50; ++i) {
    q.push(milliseconds(1 + (i % 2)));
  }
  q.drain();
}

TEST(EventQueueDifferential, DiscardOfTheNextEventIsDeclinedAndItStillPops) {
  QueuePair q;
  const EventId first = q.push(seconds(1));
  const EventId second = q.push(seconds(2));
  EXPECT_FALSE(q.discard(first));
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_EQ(q.pending_time(first), seconds(1));
  const auto [t, id] = q.pop();
  EXPECT_EQ(t, seconds(1));
  EXPECT_EQ(id, first);
  // The survivor is now the next event, so it is declined too.
  EXPECT_FALSE(q.discard(second));
  EXPECT_EQ(q.pop().second, second);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueDifferential, DiscardFreesItsSlotForTheNextPush) {
  QueuePair q;
  q.push(seconds(1));
  const EventId later = q.push(seconds(5));
  q.push(seconds(9));
  EXPECT_EQ(q.pending_time(later), seconds(5));
  EXPECT_TRUE(q.discard(later));
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_FALSE(q.pending_time(later).has_value());
  // The freed slot is the next one handed out: same slot, new seq.
  const EventId reused = q.push(seconds(3));
  EXPECT_EQ(reused >> 36, later >> 36);
  EXPECT_NE(reused, later);
  const auto popped = q.drain();
  ASSERT_EQ(popped.size(), 3u);
  EXPECT_EQ(popped[0].first, seconds(1));
  EXPECT_EQ(popped[1].first, seconds(3));
  EXPECT_EQ(popped[2].first, seconds(9));
}

TEST(EventQueueDifferential, DiscardOfStaleAndNoEventIdsIsANoOp) {
  QueuePair q;
  q.push(seconds(1));
  const EventId id = q.push(seconds(2));
  EXPECT_FALSE(q.discard(0));  // Simulator::kNoEvent: never a real id
  EXPECT_FALSE(q.discard(id + (std::uint64_t{1} << 36)));  // unknown slot
  EXPECT_TRUE(q.discard(id));
  EXPECT_FALSE(q.discard(id));  // already discarded
  const EventId reused = q.push(seconds(2));
  EXPECT_FALSE(q.discard(id)) << "stale id discarded the slot's new tenant";
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_TRUE(q.discard(reused));
  q.pop();
  EXPECT_FALSE(q.discard(reused));  // discarded, and its slot popped empty
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueDifferential, SeqTagReuseUnderSlotChurn) {
  // Hammer a small slot population so slots recycle constantly; stale
  // ids from earlier generations must never discard the new occupant.
  QueuePair q;
  Rng rng(11);
  std::vector<EventId> stale;
  std::vector<EventId> live;
  for (int round = 0; round < 400; ++round) {
    const EventId id = q.push(static_cast<SimTime>(rng.next_below(1000)));
    live.push_back(id);
    if (live.size() > 4) {
      const std::size_t pick = rng.next_below(live.size());
      if (q.discard(live[pick])) {
        stale.push_back(live[pick]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
    if (!stale.empty() && round % 7 == 0) {
      EXPECT_FALSE(q.discard(stale[rng.next_below(stale.size())]));
    }
  }
  q.drain();
}

TEST(EventQueueDifferential, PagedSlabAcrossPageBoundaries) {
  // The slot arrays are paged (sim/paged_array.h). Push, discard and pop
  // at the slots on either side of page boundaries, then grow the slab
  // past its high-water mark, in lockstep with the model.
  constexpr std::size_t kPage = PagedArray<EventFn>::kPageSlots;
  const std::size_t edges[] = {kPage - 1, kPage, 3 * kPage};
  auto slot_of = [](EventId id) { return static_cast<std::size_t>(id >> 36); };
  QueuePair q;
  std::size_t peak = 0;
  auto push = [&](SimTime t) {
    const EventId id = q.push(t);
    peak = std::max(peak, q.pending());
    return id;
  };
  // A fresh queue hands out slots 0, 1, 2, ... in push order.
  std::vector<EventId> ids;
  for (std::size_t s = 0; s <= 3 * kPage; ++s) {
    ids.push_back(push(static_cast<SimTime>(1000 + s)));
    ASSERT_EQ(slot_of(ids.back()), s);
  }
  EXPECT_EQ(q.slots(), 3 * kPage + 1);
  EXPECT_TRUE(q.discard(ids[kPage - 1]));
  EXPECT_TRUE(q.discard(ids[kPage]));
  EXPECT_TRUE(q.discard(ids[3 * kPage]));
  // The free list hands the edge slots back, last freed first, before
  // the slab grows; their early times make them the next three pops.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(slot_of(push(static_cast<SimTime>(1 + i))), edges[2 - i]);
  }
  EXPECT_EQ(q.slots(), 3 * kPage + 1);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(slot_of(q.pop().second), edges[2 - i]);
  }
  // Free a page's worth of slots, then push three pages: the pushes
  // refill the free slots and grow the slab into a fifth page.
  for (std::size_t i = 0; i < kPage; ++i) q.pop();
  for (std::size_t i = 0; i < 3 * kPage; ++i) {
    push(static_cast<SimTime>(5000 + (i * 7) % 997));
  }
  EXPECT_GT(peak, 4 * kPage);
  EXPECT_EQ(q.slots(), peak);
  q.drain();
  EXPECT_EQ(q.slots(), peak);  // slots are recycled, never released
}

TEST(EventQueueDifferential, MixedTiersAcrossPageBoundaries) {
  // Slot-resident and overflow-tier closures interleaved over more than
  // two pages of each tier, with discards (the head among them) and pops;
  // every popped closure must be the one pushed under its id, and the
  // overflow tier must end at the most large closures pending.
  constexpr std::size_t kPage = PagedArray<InlineEventFn>::kPageSlots;
  QueuePair q;
  Rng rng(23);
  std::map<EventId, std::pair<std::uint64_t, bool>> pending;  // tag, big
  std::size_t big_pending = 0;
  std::size_t big_peak = 0;
  std::uint64_t next_tag = 1;
  auto push = [&](SimTime t) {
    const bool big = rng.next_below(3) != 0;
    const std::uint64_t tag = next_tag++;
    pending[q.push_tagged(t, tag, big)] = {tag, big};
    if (big) big_peak = std::max(big_peak, ++big_pending);
  };
  auto forget = [&](EventId id) {
    if (pending.at(id).second) --big_pending;
    pending.erase(id);
  };
  auto pick = [&] {
    auto it = pending.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng.next_below(pending.size())));
    return it->first;
  };
  SimTime clock = 0;
  for (std::size_t i = 0; i < 7 * kPage / 2; ++i) {
    push(clock + static_cast<SimTime>(rng.next_below(1u << 16)));
  }
  for (int op = 0; op < 12000; ++op) {
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 40 || pending.empty()) {
      push(clock + static_cast<SimTime>(rng.next_below(1u << 16)));
    } else if (roll < 70) {
      const EventId id = pick();
      if (q.discard(id)) forget(id);
    } else {
      const auto [id, ran] = q.pop_run();
      ASSERT_EQ(pending.count(id), 1u) << "popped an id that is not pending";
      EXPECT_EQ(ran, pending.at(id).first) << "popped another id's closure";
      forget(id);
      clock = std::max(clock, q.next_time_or(clock));
    }
  }
  EXPECT_GT(big_peak, 2 * kPage);
  EXPECT_EQ(q.overflow_slots(), big_peak);
  while (!pending.empty()) {
    const auto [id, ran] = q.pop_run();
    EXPECT_EQ(ran, pending.at(id).first);
    forget(id);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.overflow_slots(), big_peak);  // recycled, never released
}

TEST(EventQueueDifferential, CascadeBoundaries) {
  // Times straddling every 64^k digit rollover the wheel can represent:
  // popping the event just below a boundary forces the event just above
  // it to cascade down one or more levels.
  QueuePair q;
  std::vector<SimTime> times;
  for (int level = 1; level < 8; ++level) {
    const SimTime boundary = SimTime{1} << (6 * level);
    times.push_back(boundary - 1);
    times.push_back(boundary);
    times.push_back(boundary + 1);
    times.push_back(2 * boundary - 1);
    times.push_back(2 * boundary);
  }
  // Push in a fixed shuffled order (worst case for level locality).
  Rng rng(3);
  for (std::size_t i = times.size(); i > 1; --i) {
    std::swap(times[i - 1], times[rng.next_below(i)]);
  }
  for (const SimTime t : times) q.push(t);
  const auto popped = q.drain();
  std::sort(times.begin(), times.end());
  ASSERT_EQ(popped.size(), times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(popped[i].first, times[i]);
  }
}

TEST(EventQueueDifferential, CascadePreservesFifoWithinBoundaryTies) {
  // Several events at the *same* far-future time, pushed before a near
  // event; popping the near event cascades the tied group as a unit and
  // must keep its internal push order.
  QueuePair q;
  const SimTime far = (SimTime{1} << 24) + 17;
  std::vector<EventId> ids;
  for (int i = 0; i < 20; ++i) ids.push_back(q.push(far));
  q.push(seconds(1));
  const auto popped = q.drain();
  ASSERT_EQ(popped.size(), 21u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(popped[static_cast<std::size_t>(i + 1)].second,
              ids[static_cast<std::size_t>(i)])
        << "cascade reordered equal-time events";
  }
}

TEST(EventQueueDifferential, PushBeforeTheLastPoppedTimeThrows) {
  // The wheel places events relative to its cursor, the last popped
  // time; the simulator never pushes below it, so a push there is a
  // precondition violation, not a case to order.
  EventQueue q;
  q.push(seconds(10), [] {});
  q.push(seconds(20), [] {});
  EXPECT_EQ(q.pop().time, seconds(10));
  EXPECT_THROW(q.push(seconds(3), [] {}), PreconditionError);
  EXPECT_NO_THROW(q.check_invariants());  // the rejected push took no slot
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_NO_THROW(q.push(seconds(10), [] {}));  // at the cursor is fine
  EXPECT_EQ(q.slots(), 2u);

  TimingWheel w;
  w.ensure_capacity(3);
  w.insert(0, seconds(5));
  EXPECT_EQ(w.pop_min(), 0u);
  EXPECT_THROW(w.insert(1, seconds(5) - 1), PreconditionError);
  w.insert(2, seconds(5));
  EXPECT_EQ(w.min_time(), seconds(5));
}

TEST(EventQueueDifferential, OverflowTimesBeyondWheelHorizon) {
  // Times whose top 16 bits differ from the cursor live on the overflow
  // list until the clock gets close enough; kSimTimeNever (INT64_MAX)
  // must be representable and pop last.
  QueuePair q;
  const SimTime horizon = SimTime{1} << 48;
  q.push(kSimTimeNever);
  q.push(horizon + seconds(1));
  q.push(horizon);
  q.push(seconds(1));
  const auto popped = q.drain();
  ASSERT_EQ(popped.size(), 4u);
  EXPECT_EQ(popped[0].first, seconds(1));
  EXPECT_EQ(popped[1].first, horizon);
  EXPECT_EQ(popped[2].first, horizon + seconds(1));
  EXPECT_EQ(popped[3].first, kSimTimeNever);
}

TEST(EventQueueDifferential, ExplicitMergeOrdersAgree) {
  // push_ordered carries the simulator's cross-queue merge key; the
  // queue must surface the model's next_order at every step.
  QueuePair q;
  std::uint64_t order = 100;
  Rng rng(17);
  for (int i = 0; i < 64; ++i) {
    q.push_ordered(static_cast<SimTime>(rng.next_below(50)), order++);
  }
  q.drain();
}

// Long randomized schedules over several time magnitudes. The magnitude
// sweep matters: small ranges stress level-0 ties, large ranges stress
// multi-level cascades and the overflow list.
class EventQueueRandomized
    : public ::testing::TestWithParam<std::pair<std::uint64_t, std::uint64_t>> {
};

TEST_P(EventQueueRandomized, SchedulesAgreeOpByOp) {
  // Pushes at or after the last popped time (never below it), discards
  // of random pushed ids (pending or popped) and pops.
  const auto [seed, range] = GetParam();
  Rng rng(seed);
  QueuePair q;
  std::vector<EventId> live;
  SimTime clock = 0;
  for (int op = 0; op < 3000; ++op) {
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 55 || q.empty()) {
      // Push around the current clock; one in eight goes far out or to
      // kSimTimeNever to keep the overflow list busy.
      SimTime t = clock + static_cast<SimTime>(rng.next_below(range));
      if (roll % 8 == 0) {
        t = (rng.next_below(2) != 0) ? kSimTimeNever
                                     : t + (SimTime{1} << 49);
      }
      live.push_back(q.push(t));
    } else if (roll < 80 && !live.empty()) {
      const std::size_t pick = rng.next_below(live.size());
      q.discard(live[pick]);  // may be stale (already popped) or the head
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      clock = q.pop().first;
      // Occasionally push exactly at the new clock: the cursor itself.
      if (roll % 5 == 0) live.push_back(q.push(clock));
    }
  }
  q.drain();
}

TEST_P(EventQueueRandomized, DiscardSchedulesAgreeOpByOp) {
  // Discards land on random pending ids (the head among them now and
  // then), on popped ids and on ids already discarded; pending times are
  // compared on random ids after every op.
  const auto [seed, range] = GetParam();
  Rng rng(seed + 100);
  QueuePair q;
  std::vector<EventId> ids;  // every id pushed, pending or not
  SimTime clock = 0;
  int removed = 0;
  for (int op = 0; op < 3000; ++op) {
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 50 || q.empty()) {
      SimTime t = clock + static_cast<SimTime>(rng.next_below(range));
      if (roll % 8 == 0) t += SimTime{1} << 49;  // overflow list
      ids.push_back(q.push(t));
    } else if (roll < 80) {
      removed += q.discard(ids[rng.next_below(ids.size())]) ? 1 : 0;
    } else {
      clock = std::max(clock, q.pop().first);
    }
    q.pending_time(ids[rng.next_below(ids.size())]);
  }
  EXPECT_GT(removed, 0);
  q.drain();
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndRanges, EventQueueRandomized,
    ::testing::Values(std::pair<std::uint64_t, std::uint64_t>{1, 64},
                      std::pair<std::uint64_t, std::uint64_t>{2, 4096},
                      std::pair<std::uint64_t, std::uint64_t>{3, 1u << 20},
                      std::pair<std::uint64_t, std::uint64_t>{4,
                                                              1ull << 40}));

}  // namespace
}  // namespace d2::sim
