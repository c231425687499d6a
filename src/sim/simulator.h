// Discrete-event simulator: virtual clock plus event scheduling.
//
// All d2 experiments (availability §8, performance §9, load balance §10)
// run inside one Simulator. Nothing in the library reads wall-clock time;
// the clock only advances by draining scheduled events.
//
// ## Event classes (DESIGN.md §9)
//
// Every event belongs to one of two classes, each on its own queue:
//   - *global* events (schedule_at / schedule_after) read or mutate state
//     beyond one block: failure transitions, regeneration, probe commit
//     ticks, the webcache sweep, the imbalance sampler, every repair
//     event;
//   - *key-local* events (schedule_local_at) touch one block's state:
//     TTL expiry, delayed removes, fetch timers and fetch completions.
// Every push draws its merge key from one counter and the engine always
// pops the minimum (time, order) across both queues, so the class of an
// event never changes when it runs. The class decides two things: only
// a pending global event fences an op batch (next_global_event_time,
// core/op_batch.h), and the commit hook runs before every global event,
// never before a key-local one.
#pragma once

#include <functional>
#include <limits>
#include <optional>
#include <utility>

#include "common/assert.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "sim/event_queue.h"

namespace d2::sim {

/// Construction knobs. Only `scheduler` is live: `arcs`, `workers` and
/// `lookahead` configured the removed arc-partitioned engine, and every
/// constructor that takes them accepts only 1, 1 and 0
/// (require_serial_engine).
struct ArcConfig {
  int arcs = 1;
  int workers = 1;
  SimTime lookahead = 0;
  /// Scheduler backend for both queues: the timing wheel, or the binary
  /// heap kept as the differential reference (`--scheduler heap`). Pop
  /// order is identical either way.
  SchedulerKind scheduler = SchedulerKind::kWheel;
};

/// Throws PreconditionError unless (arcs, workers, lookahead) is the
/// serial (1, 1, 0): the arc-partitioned engine they configured is gone.
inline void require_serial_engine(int arcs, int workers,
                                  SimTime lookahead = 0) {
  D2_REQUIRE_MSG(arcs == 1 && workers == 1 && lookahead == 0,
                 "the arc-partitioned engine was removed: arcs, workers and "
                 "lookahead accept only 1, 1 and 0");
}

class Simulator {
 public:
  /// Never a real event id (queue seqs start at 1): what a caller stores
  /// for "no pending event".
  static constexpr EventId kNoEvent = 0;

  Simulator() : Simulator(ArcConfig{}) {}
  explicit Simulator(const ArcConfig& cfg);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Mirrors simulator accounting into `registry` under `sim.*`:
  /// `sim.events_processed` is kept live from here on (any events already
  /// processed are added in, so simulators sharing a registry sum),
  /// `sim.events_pending` / `sim.event_slots` /
  /// `sim.event_overflow_slots` / `sim.event_slab_bytes` /
  /// `sim.clock_seconds` gauges are refreshed by export_metrics(). Pass
  /// nullptr to unbind.
  void bind_metrics(obs::Registry* registry);

  /// Snapshots the point-in-time quantities (pending events, clock) into
  /// the bound registry; call before dumping. No-op when unbound.
  void export_metrics();

  /// Schedules global event `f` at absolute simulated time `t` (>= now).
  /// The callback is built in place in its queue slot, or in the queue's
  /// overflow tier when its captures outgrow kEventInlineBytes: they must
  /// fit kEventCaptureBytes and be trivially copyable — scheduling never
  /// heap-allocates.
  template <class F>
  EventId schedule_at(SimTime t, F&& f) {
    return push(global_, t, std::forward<F>(f));
  }

  /// Schedules global event `f` `delay` microseconds from now (delay >= 0).
  template <class F>
  EventId schedule_after(SimTime delay, F&& f) {
    D2_REQUIRE(delay >= 0);
    return push(global_, now_ + delay, std::forward<F>(f));
  }

  /// Schedules key-local event `f` at time `t` (>= now); same closure
  /// rules as schedule_at.
  template <class F>
  EventId schedule_local_at(SimTime t, F&& f) {
    return push(local_, t, std::forward<F>(f));
  }

  /// Best-effort, O(1) removal of pending key-local event `id`:
  /// EventQueue::discard. The key-local queue's next event is never
  /// removed, so the discarded event's owner must still let it fire as a
  /// no-op. kNoEvent and ids that are no longer pending are no-ops.
  /// Returns whether the event was removed.
  bool discard_local(EventId id);

  /// Due time of pending key-local event `id`, or nullopt when it is not
  /// pending. For audits (System::check_invariants).
  std::optional<SimTime> local_pending_time(EventId id) const;

  /// Runs until both queues are empty.
  void run();

  /// Runs all events with time <= t in (time, order) sequence, then sets
  /// now to t.
  void run_until(SimTime t);

  /// Runs a single event if one is pending; returns false if both queues
  /// are empty.
  bool step();

  /// Runs the commit hook now. The start of an op flush is a commit point
  /// (core/op_batch.h).
  void commit_point() { commit(); }

  /// Runs the key-local events due at or before `t`, with no commit
  /// point, then sets the clock to `t`. An op flush calls it before each
  /// op, so an event due at or before the op runs first, as run_until
  /// would have run it. Requires now() <= t < next_global_event_time():
  /// a due global event must run through run_until, behind its commit
  /// point.
  void run_local_until(SimTime t);

  /// Registers a hook the simulator invokes at every *commit point*: just
  /// before a global event is popped, at the idle fixpoint of run /
  /// run_until, and at commit_point() (the start of an op flush). It is
  /// never invoked before a key-local event, so work key-local events
  /// stage (core::System's bandwidth-link reservations) resolves in
  /// batches at these points. The hook may schedule events (clamped
  /// >= now()) but must not pop any.
  // d2-lint: allow(std-function) — invoked per commit point, not per event
  void set_commit_hook(std::function<void()> hook) {
    commit_hook_ = std::move(hook);
  }

  /// Earliest pending event time, or std::numeric_limits<SimTime>::max()
  /// when idle.
  SimTime next_event_time() const;

  /// Earliest pending *global* event, or max() when none. This is the
  /// op-batch fence: key-local events merge into an op flush, so only a
  /// global event forces one (core/op_batch.h).
  SimTime next_global_event_time() const {
    return global_.empty() ? std::numeric_limits<SimTime>::max()
                           : global_.next_time();
  }

  std::uint64_t events_processed() const { return events_processed_; }
  std::size_t events_pending() const {
    return local_.pending() + global_.pending();
  }
  /// Summed slab size of both queues: each queue's pending-event
  /// high-water mark, which sets its memory (slots are never freed).
  std::size_t event_slots() const { return local_.slots() + global_.slots(); }
  /// Summed overflow-tier size of both queues: each queue's high-water of
  /// pending events whose closure outgrew its slot (EventQueue).
  std::size_t event_overflow_slots() const {
    return local_.overflow_slots() + global_.overflow_slots();
  }
  /// Bytes of both queues' allocated slab pages (EventQueue::slab_bytes).
  std::size_t event_slab_bytes() const {
    return local_.slab_bytes() + global_.slab_bytes();
  }

 private:
  template <class F>
  EventId push(EventQueue& q, SimTime t, F&& f) {
    D2_REQUIRE_MSG(t >= now_, "cannot schedule into the past");
    return q.push_ordered(t, order_counter_++, std::forward<F>(f));
  }

  /// The queue holding the earliest (time, order) event; nullptr when
  /// both are empty.
  EventQueue* head();
  /// Pops and executes the head of `q`.
  void step_queue(EventQueue& q);
  /// Runs the commit hook (if any); true when it scheduled new events,
  /// meaning the head must be re-evaluated before popping.
  bool commit();

  EventQueue local_;
  EventQueue global_;
  std::uint64_t order_counter_ = 1;

  SimTime now_ = 0;
  std::uint64_t events_processed_ = 0;
  // d2-lint: allow(std-function) — invoked per commit point, not per event
  std::function<void()> commit_hook_;

  obs::Registry* metrics_ = nullptr;
  obs::Counter* events_counter_ = nullptr;
};

}  // namespace d2::sim
