// Arc-partitioned simulation machinery: the deterministic cross-arc
// mailbox and the worker pool that executes per-arc lanes.
//
// The partitioned Simulator (sim/simulator.h) owns one EventQueue per
// arc plus a global queue and merges them serially by a (time, order)
// key. When it opens a parallel window or an arc phase, each arc's
// events/ops run on a lane confined to that arc's state. A lane may push
// onto its own queue directly, but anything else it schedules — events
// past the window, cross-arc traffic — is staged here as a timestamped
// message and released only at the next barrier, in the deterministic
// total order (time, src_arc, seq): seq is the per-source posting index,
// so the release order is a pure function of what each lane did, never
// of thread interleaving. DESIGN.md §9 derives why this reproduces the
// serial schedule bit-for-bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/assert.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/units.h"
#include "sim/event_queue.h"

namespace d2::sim {

/// Partitioning knobs for the Simulator (mirrored from SystemConfig by
/// the experiment drivers).
struct ArcConfig {
  int arcs = 1;     // keyspace partitions (P)
  int workers = 1;  // lanes executed concurrently; 1 = fully serial
  /// Conservative sync-horizon cap, kept as an explicit fallback / test
  /// knob: when > 0, parallel windows never span more than this much
  /// simulated time past their first event. The default 0 engages the
  /// adaptive horizon (DESIGN.md §12): windows extend all the way to the
  /// next global event. Every barrier fully drains the mailbox, so no
  /// committed cross-arc send is outstanding at window open (the
  /// simulator asserts it), and 0 is both the fastest and an
  /// always-correct setting. Output is byte-identical for any value
  /// (window-trace differential tests in tests/test_partition.cc).
  SimTime lookahead = 0;
  /// Scheduler backend for every queue: the timing wheel, or the binary
  /// heap kept as the differential reference (`--scheduler heap`). Pop
  /// order is identical either way.
  SchedulerKind scheduler = SchedulerKind::kWheel;
};

/// Deterministic cross-arc message buffer. post() is called by lanes
/// (each lane writes only its own staging vector — single-writer, no
/// locks); deliver() is called by the coordinator at a barrier and
/// drains everything in (time, src_arc, seq) order.
class Mailbox {
 public:
  void reset(int arcs) {
    lanes_.assign(static_cast<std::size_t>(arcs), {});
    floor_ = 0;
  }

  /// Stages `fn` for arc `dst_arc` at simulated time `time`. Only the
  /// lane running arc `src_arc` may pass that src (single-writer rule).
  void post(int src_arc, SimTime time, int dst_arc, const EventFn& fn) {
    auto& lane = lanes_[static_cast<std::size_t>(src_arc)];
    lane.push_back(Msg{time, dst_arc, fn});
  }

  bool empty() const {
    for (const auto& lane : lanes_) {
      if (!lane.empty()) return false;
    }
    return true;
  }

  std::size_t staged() const {
    std::size_t n = 0;
    for (const auto& lane : lanes_) n += lane.size();
    return n;
  }

  /// Sets the delivery floor: the start of the window whose lanes are
  /// about to post. Every message staged from now on must target a time
  /// at or after it — a send into the past would mean a lane outran the
  /// horizon, the exact corruption the watermark invariant guards.
  void set_floor(SimTime floor) { floor_ = floor; }
  SimTime floor() const { return floor_; }

  /// Audits the watermark invariant: no staged message precedes the
  /// delivery floor. Throws InvariantError naming the violation.
  /// Coordinator-only (lanes may be appending).
  void check_invariants() const {
    for (const auto& lane : lanes_) {
      for (const Msg& m : lane) {
        D2_ASSERT_MSG(m.time >= floor_,
                      "mailbox: staged cross-arc send precedes the window "
                      "delivery floor");
      }
    }
  }

  /// Drains every staged message into `sink(time, src_arc, seq, dst_arc,
  /// fn)` in (time, src_arc, seq) order, where seq is the message's
  /// posting index within its source lane. Coordinator-only.
  template <class Sink>
  void deliver(Sink&& sink) {
    refs_.clear();
    for (std::uint32_t src_arc = 0; src_arc < lanes_.size(); ++src_arc) {
      const auto& lane = lanes_[src_arc];
      for (std::uint32_t seq = 0; seq < lane.size(); ++seq) {
        refs_.push_back(Ref{lane[seq].time, src_arc, seq});
      }
    }
    std::sort(refs_.begin(), refs_.end(), [](const Ref& a, const Ref& b) {
      if (a.time != b.time) return a.time < b.time;
      if (a.src_arc != b.src_arc) return a.src_arc < b.src_arc;
      return a.seq < b.seq;
    });
    for (const Ref& r : refs_) {
      const Msg& m = lanes_[r.src_arc][r.seq];
      sink(m.time, static_cast<int>(r.src_arc), r.seq, m.dst_arc, m.fn);
    }
    for (auto& lane : lanes_) lane.clear();
  }

 private:
  struct Msg {
    SimTime time;
    int dst_arc;
    EventFn fn;  // trivially copyable; stored by value
  };
  struct Ref {
    SimTime time;
    std::uint32_t src_arc;
    std::uint32_t seq;
  };
  // Not mutex-guarded: each source lane writes only its own staging
  // vector (single-writer rule) and the coordinator drains between
  // windows — the arc checker, not a capability, owns this invariant.
  std::vector<std::vector<Msg>> lanes_ D2_SHARDED_BY_ARC(arc);  // index = source arc
  std::vector<Ref> refs_;  // scratch, reused across barriers
  SimTime floor_ = 0;      // delivery floor (watermark invariant)
};

/// Fixed pool of threads that executes fn(arc) for every arc of a phase
/// or window. With workers == 1 no threads exist and everything runs
/// inline on the caller — the exact same code path the parallel build
/// takes, minus the handoff — which is what makes `--arc-workers 1`
/// trivially identical to the pre-partition engine. The calling thread
/// always participates as one of the workers. Exceptions thrown by
/// lanes (e.g. InvariantError from a paranoid audit) are captured and
/// the first one rethrown on the caller after the barrier.
class WorkerPool {
 public:
  explicit WorkerPool(int workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int workers() const { return workers_; }

  /// Runs fn(arc) for arc in [0, arcs), distributing arcs over the
  /// workers; returns once every arc finished. fn must confine itself to
  /// arc-owned state (see the lane rules in sim/simulator.h).
  // d2-lint: allow(std-function) — one call per barrier, not per event
  void run_arcs(int arcs, const std::function<void(int)>& fn);

 private:
  void worker_loop();
  /// Claims and runs arcs until none remain. Entered and left holding
  /// mu_; the lock is dropped around each fn() call.
  // d2-lint: allow(std-function) — one call per barrier, not per event
  void work(const std::function<void(int)>& fn) D2_REQUIRES(mu_);

  const int workers_;
  std::vector<std::thread> threads_;  // workers_ - 1 of them

  Mutex mu_;
  CondVar start_cv_;
  CondVar done_cv_;
  // d2-lint: allow(std-function) — handoff pointer, never invoked per event
  const std::function<void(int)>* job_ D2_GUARDED_BY(mu_) = nullptr;  // null = idle
  std::uint64_t generation_ D2_GUARDED_BY(mu_) = 0;  // bumped per run_arcs call
  int arcs_total_ D2_GUARDED_BY(mu_) = 0;
  int next_arc_ D2_GUARDED_BY(mu_) = 0;   // next unclaimed arc
  int done_arcs_ D2_GUARDED_BY(mu_) = 0;  // completed lanes this generation
  std::exception_ptr first_error_ D2_GUARDED_BY(mu_);
  bool shutdown_ D2_GUARDED_BY(mu_) = false;
};

}  // namespace d2::sim
