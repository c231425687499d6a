// Discrete-event simulator: virtual clock plus event scheduling, with
// optional arc-partitioned execution.
//
// All d2 experiments (availability §8, performance §9, load balance §10)
// run inside one Simulator. Nothing in the library reads wall-clock time;
// the clock only advances by draining scheduled events.
//
// ## Arc partitioning (DESIGN.md §9)
//
// The simulator owns `arcs + 1` event queues: one per keyspace arc
// (common/arc_plan.h) plus a global queue for events that touch
// cross-arc state (ring membership, probes, migration). Every push
// carries a merge key drawn from one global counter, and the serial
// engine always pops the minimum (time, order) across all queues — so
// with one arc, or with many arcs executed serially, the schedule is
// *the same total order* the single-queue engine produced, bit for bit.
//
// With `workers > 1`, runs of arc-local events strictly before the next
// global event are executed as a parallel *window*: each arc's lane
// drains its own queue on a worker thread, confined to arc-owned state.
// Lane rules (enforced with D2_REQUIRE):
//   - a lane may schedule only onto its own arc;
//   - pushes that land inside the current window go directly onto the
//     lane's queue with a lane-striped merge key (the lane owns it);
//   - anything at or past the window end is staged in the cross-arc
//     Mailbox and released at the barrier in (time, src_arc, seq) order
//     with fresh merge keys.
// Only same-time events in *different* arcs can observe a different
// relative order than the serial engine, and those are state-disjoint by
// the lane rules — which is why `--arc-workers N` output is byte-equal
// to `--arc-workers 1` (tests/test_partition.cc, golden arc variants).
#pragma once

#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/lane.h"
#include "common/thread_annotations.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "sim/partition.h"

namespace d2::sim {

class Simulator {
 public:
  /// Arc index for the global (cross-arc) queue in schedule_arc_at.
  static constexpr int kGlobalArc = -1;
  /// Returned for mailboxed schedules, which are not cancellable (queue
  /// seqs start at 1, so no real event ever has id 0).
  static constexpr EventId kNoEvent = 0;

  Simulator() : Simulator(ArcConfig{}) {}
  explicit Simulator(const ArcConfig& cfg);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  int arcs() const { return arcs_; }
  int workers() const { return pool_.workers(); }

  /// Current simulated time: the lane-local event time inside an arc
  /// lane, the coordinator clock otherwise.
  SimTime now() const {
    // Members read directly, never through a `const LaneCtx&`: GCC 12's
    // UBSan emits a false "reference binding to null pointer" on
    // references bound to a thread_local behind its TLS wrapper at -O2.
    return tl_lane_.owner == this ? tl_lane_.now : now_;
  }

  /// True while the calling thread is executing an arc lane (a parallel
  /// window or run_arc_phase) of *this* simulator. Arc-owned code uses
  /// this to pick per-arc scratch and skip global-state work.
  bool in_lane() const { return tl_lane_.owner == this; }

  /// The arc the calling lane owns. Requires in_lane().
  int lane_arc() const {
    D2_REQUIRE_MSG(in_lane(), "lane_arc() outside an arc lane");
    return tl_lane_.arc;
  }

  /// Mirrors simulator accounting into `registry` under `sim.*`:
  /// `sim.events_processed` is kept live from here on (any events already
  /// processed are added in, so simulators sharing a registry sum),
  /// `sim.events_pending` / `sim.event_slots` / `sim.clock_seconds`
  /// gauges are refreshed by export_metrics(). Pass nullptr to unbind.
  void bind_metrics(obs::Registry* registry);

  /// Snapshots the point-in-time quantities (pending events, clock) into
  /// the bound registry; call before dumping. No-op when unbound.
  void export_metrics();

  /// Schedules `f` at absolute simulated time `t` (>= now) on the global
  /// queue. The callback becomes an EventFn built in place in its queue
  /// slot: its captures must fit the inline budget (kEventCaptureBytes)
  /// and be trivially copyable — scheduling never heap-allocates. Must
  /// not be called from an arc lane (global events are coordinator-only).
  template <class F>
  EventId schedule_at(SimTime t, F&& f) {
    return schedule_arc_at(kGlobalArc, t, std::forward<F>(f));
  }

  /// Schedules `f` `delay` microseconds from now (delay >= 0).
  template <class F>
  EventId schedule_after(SimTime delay, F&& f) {
    D2_REQUIRE(delay >= 0);
    return schedule_arc_at(kGlobalArc, now() + delay, std::forward<F>(f));
  }

  /// Schedules `f` at time `t` on arc `arc`'s queue (kGlobalArc for the
  /// global queue). From an arc lane, `arc` must be the lane's own arc;
  /// the push is direct when `t` falls inside the current window and
  /// staged in the mailbox otherwise (returning kNoEvent).
  template <class F>
  EventId schedule_arc_at(int arc, SimTime t, F&& f) {
    D2_REQUIRE_MSG(arc >= kGlobalArc && arc < arcs_, "arc index out of range");
    // Direct tl_lane_ member reads, no reference — see now().
    if (tl_lane_.owner == this) {
      D2_REQUIRE_MSG(
          arc == tl_lane_.arc,
          "arc lanes may only schedule onto their own arc; cross-arc and "
          "global effects must run from the coordinator");
      D2_REQUIRE_MSG(t >= tl_lane_.now, "cannot schedule into the past");
      if (t < window_end_) {
        // Fires inside the window this lane is currently draining: push
        // straight onto the lane's own queue (single-writer) with a
        // lane-striped merge key above every pre-window key.
        const std::uint64_t idx = ++lane_pushes_[static_cast<std::size_t>(arc)];
        D2_REQUIRE_MSG(idx < kLaneOrderStride,
                       "lane push budget exhausted within one window");
        return queues_[static_cast<std::size_t>(arc)].push_ordered(
            t,
            window_base_ +
                static_cast<std::uint64_t>(arc) * kLaneOrderStride + idx,
            std::forward<F>(f));
      }
      mailbox_.post(arc, t, arc, EventFn(std::forward<F>(f)));
      return kNoEvent;
    }
    D2_REQUIRE_MSG(t >= now_, "cannot schedule into the past");
    return queues_[queue_index(arc)].push_ordered(t, order_counter_++,
                                                  std::forward<F>(f));
  }

  template <class F>
  EventId schedule_arc_after(int arc, SimTime delay, F&& f) {
    D2_REQUIRE(delay >= 0);
    return schedule_arc_at(arc, now() + delay, std::forward<F>(f));
  }

  /// Cancels a pending *global-queue* event; no-op if already fired.
  /// Ids returned for arc-queue events are not cancellable (arc events
  /// use deadline-check patterns instead — see System's TTL refresh).
  bool cancel(EventId id) {
    return queues_[static_cast<std::size_t>(arcs_)].cancel(id);
  }

  /// Runs until every queue is empty (serial merged order).
  void run();

  /// Runs all events with time <= t in deterministic merged order, then
  /// sets now to t. With workers > 1, stretches of arc-local events
  /// between global events execute as parallel windows.
  void run_until(SimTime t);

  /// Runs a single event if one is pending (serial merged order);
  /// returns false if all queues are empty.
  bool step();

  /// Runs fn(arc) for every arc as confined lanes at the current time —
  /// the bulk-application hook for batched workload ops (core/op_batch.h).
  /// Everything the lanes schedule is mailboxed and delivered at the
  /// closing barrier; with workers() == 1 the lanes run inline, in arc
  /// order, on the caller.
  // d2-lint: allow(std-function) — one type-erased call per phase barrier
  void run_arc_phase(const std::function<void(int)>& fn);

  /// Runs fn(arc) for every arc as lanes with an *open push window* ending
  /// at `window_end` (exclusive): unlike run_arc_phase, lanes may advance
  /// their own clock and interleave their arc's pending events with bulk
  /// work via lane_advance(). The caller guarantees every lane_advance
  /// target lies strictly before `window_end`, which must not span a
  /// pending global event. Used by core/op_batch.h to merge replayed
  /// workload ops with arc-local timer events in one barrier (DESIGN.md
  /// §12). Events left in a lane's queue past its last advance stay
  /// pending; the coordinator clock afterwards is the furthest lane time,
  /// capped back to the earliest still-pending event.
  // d2-lint: allow(std-function) — one type-erased call per window barrier
  void run_op_window(SimTime window_end, const std::function<void(int)>& fn);

  /// From inside a run_op_window lane: pops and executes this lane's
  /// events with time <= t (events tied with an op run first, matching
  /// the serial run_until-then-apply schedule), then sets the lane clock
  /// to t. Requires t < the window end and t >= the lane clock.
  void lane_advance(SimTime t);

  /// Registers a hook the simulator invokes at every *commit point*: just
  /// before a global-queue event is popped, at the idle fixpoint of run /
  /// run_until, and at the start of an arc phase or op window. Commit
  /// points are mode-independent — they fall at the same simulated times
  /// with the same coordinator clock for any arcs/workers setting — so
  /// cross-arc commitments staged by arc lanes (e.g. core::System's
  /// bandwidth-link reservations) resolve identically in serial and
  /// parallel execution. The hook may schedule events (clamped >= now())
  /// but must not pop any; it is called once per global event / barrier,
  /// not per event.
  // d2-lint: allow(std-function) — invoked per commit point, not per event
  void set_commit_hook(std::function<void()> hook) {
    commit_hook_ = std::move(hook);
  }

  /// Earliest pending event time across all queues, or
  /// std::numeric_limits<SimTime>::max() when idle.
  SimTime next_event_time() const;

  /// Earliest pending *global-queue* event, or max() when none. This is
  /// the op-batch fence: arc-local events merge into op windows, so only
  /// a global event forces a flush (core/op_batch.h).
  SimTime next_global_event_time() const;

  std::uint64_t events_processed() const { return events_processed_; }
  std::size_t events_pending() const;
  /// Summed slab size of every queue: each queue's pending-event
  /// high-water mark, which sets its memory (slots are never freed).
  std::size_t event_slots() const;

  /// Order-insensitive digest of everything executed: the wrapping sum of
  /// all executed event times. Within one engine mode the execution order
  /// is deterministic, but window *boundaries* differ between adaptive
  /// and conservative horizons — this digest is equal whenever the same
  /// multiset of events ran, which is what the window-trace differential
  /// tests assert (tests/test_partition.cc).
  std::uint64_t event_time_checksum() const { return time_checksum_; }

  /// Parallel windows executed so far (event windows + op windows).
  std::uint64_t windows_executed() const { return windows_; }

 private:
  /// Per-thread lane binding. Keyed by owner so nested simulators
  /// (parallel trials each running their own) never cross-talk.
  struct LaneCtx {
    const Simulator* owner = nullptr;
    int arc = -1;
    SimTime now = 0;
  };
  /// RAII lane binding for the duration of one lane execution. Also
  /// mirrors the binding into the process-wide lane::tl_binding so
  /// store/core shard mutators can run their D2_ASSERT_OWNER_LANE
  /// cross-check without depending on the simulator (common/lane.h).
  struct LaneGuard {
    LaneGuard(const Simulator* owner, int arc, SimTime now) {
      tl_lane_ = LaneCtx{owner, arc, now};
      lane::bind(owner, arc);
    }
    ~LaneGuard() {
      lane::unbind();
      tl_lane_ = LaneCtx{};
    }
  };

  /// Merge-key stride reserved per lane per window; bounds how many
  /// events one lane may push inside a single window.
  static constexpr std::uint64_t kLaneOrderStride = std::uint64_t{1} << 20;

  std::size_t queue_index(int arc) const {
    return static_cast<std::size_t>(arc == kGlobalArc ? arcs_ : arc);
  }

  /// Index of the queue holding the globally earliest (time, order)
  /// event; -1 when all queues are empty.
  int min_queue() const;
  /// Pops and executes the head of queue `qi` on the coordinator.
  void step_queue(int qi);
  /// Executes one parallel window: all arc events with time < window_end.
  void run_window(SimTime window_end);
  /// Releases mailboxed messages into their queues with fresh merge keys.
  void deliver_mailbox();
  /// Runs the commit hook (if any); true when it scheduled new events,
  /// meaning the merged head must be re-evaluated before popping.
  bool commit();
  /// Folds per-lane counters/digests into the totals after a barrier and
  /// updates the window metrics; returns the furthest lane time.
  SimTime fold_lanes(SimTime window_start, SimTime window_end);

  // constinit: no dynamic-init TLS wrapper. Besides being faster, the
  // wrapper trips a GCC 12 UBSan false positive ("member access within
  // null pointer") on every access from another TU at -O2.
  static thread_local constinit LaneCtx tl_lane_;

  int arcs_;
  SimTime lookahead_;
  // [0, arcs_) arc-local; [arcs_] global — hence the `queue` domain.
  std::vector<EventQueue> queues_ D2_SHARDED_BY_ARC(queue);
  std::uint64_t order_counter_ = 1;
  Mailbox mailbox_;
  WorkerPool pool_;

  // Window state (coordinator-written; lanes read window_end_/base_ and
  // each lane writes only its own lane_* slot).
  SimTime window_end_ = 0;  // exclusive; 0 = no window open
  std::uint64_t window_base_ = 0;
  std::vector<std::uint64_t> lane_pushes_ D2_SHARDED_BY_ARC(arc);
  // Per-lane events processed / last event time / checksum partials.
  std::vector<std::uint64_t> lane_events_ D2_SHARDED_BY_ARC(arc);
  std::vector<SimTime> lane_last_time_ D2_SHARDED_BY_ARC(arc);
  std::vector<std::uint64_t> lane_time_sum_ D2_SHARDED_BY_ARC(arc);

  SimTime now_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t time_checksum_ = 0;
  // d2-lint: allow(std-function) — invoked per commit point, not per event
  std::function<void()> commit_hook_;

  // Partition-coordinator observability (exported as sim.window.*): how
  // many windows ran, how wide they were, how much work they carried and
  // how evenly the lanes shared it.
  std::uint64_t windows_ = 0;
  SimTime window_span_sum_ = 0;
  SimTime window_span_max_ = 0;
  std::uint64_t window_events_ = 0;
  std::uint64_t lane_busy_num_ = 0;  // sum over windows of total lane events
  std::uint64_t lane_busy_den_ = 0;  // sum over windows of arcs * max lane

  obs::Registry* metrics_ = nullptr;
  obs::Counter* events_counter_ = nullptr;
};

}  // namespace d2::sim
