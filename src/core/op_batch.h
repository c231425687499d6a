// Batched workload-op application over the arc-partitioned System.
//
// The serial replay loop alternates run_until(record_time) with put/
// remove/get calls — one synchronization point per record. With the
// system sharded into arcs (DESIGN.md §9) the ops themselves are
// key-local, so a backlog of them can be applied as one op *window*
// (sim::Simulator::run_op_window): every op is routed to the arc owning
// its key and executed in-lane, in arrival order, using the
// explicit-time entry points (put_at et al.) so TTL deadlines and
// removal delays are anchored exactly where the one-run_until-per-op
// engine would put them.
//
// Arc-local timer events (TTL expiry, delayed removes, fetch timers) do
// NOT fence a batch: each lane interleaves its own pending events with
// its ops by time via lane_advance(op.t) — an event due at or before an
// op runs first, exactly the serial run_until-then-apply order. Events
// an op schedules inside the window (a remove's +30s timer, say) land
// on the lane's own queue and are picked up by a later advance the same
// way. Only two things force a drain, checked by should_flush_before(t):
//   1. global-event fence — a pending *global* event (failure
//      transition, probe commit tick, regeneration check) at or before
//      t mutates cross-arc state every lane reads, so the backlog must
//      drain (flush, then run_until(t)) first;
//   2. batch-size cap — a deterministic op-count bound so staging
//      memory stays flat on million-user replays.
// A window within the cap keeps its staging buffers for the next one, so
// steady-state replay stages and flushes without allocating. A larger
// batch (populate stages every initial put in one) gives its buffers
// back when it flushes, instead of pinning them for the rest of the run.
// Ops for different keys in the same batch are state-disjoint unless
// they share an arc, and same-arc ops apply in arrival order — so the
// interleaving the serial loop would have produced is preserved
// wherever it is observable.
//
// Gets are evaluated in-lane at their position in arrival order; their
// outcomes are recorded into slots and consumed by the caller after
// flush() (aggregation over outcomes is order-insensitive, so per-arc
// evaluation order does not show in results).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/assert.h"
#include "common/thread_annotations.h"
#include "core/system.h"
#include "fs/writeback_cache.h"
#include "sim/simulator.h"

namespace d2::core {

class OpBatchRunner {
 public:
  /// Result of one staged get, tagged with the caller's `tag` (e.g. the
  /// task index a record belongs to).
  struct GetOutcome {
    std::int32_t tag = -1;
    bool known = false;      // system.has(key)
    bool available = false;  // system.block_available(key)
    int serving = -1;        // serving node, -1 = none
  };

  /// Staged ops at which should_flush_before forces a drain, and the
  /// staging capacity past which flush() frees its buffers: ~a few MB of
  /// Items at the million-user scale, far wider than the global-event
  /// fence ever allows in failure-bearing runs.
  static constexpr std::size_t kMaxBatchOps = 1 << 16;

  OpBatchRunner(System& system, sim::Simulator& sim)
      : system_(system),
        sim_(sim),
        per_arc_(static_cast<std::size_t>(system.config().arcs)) {}

  bool empty() const { return items_.empty(); }

  /// True when staging an op at time `t` requires draining the backlog
  /// first (see the flush rules in the file comment).
  bool should_flush_before(SimTime t) const {
    if (items_.empty()) return false;
    if (sim_.next_global_event_time() <= t) return true;
    return items_.size() >= kMaxBatchOps;
  }

  /// Stages one op at absolute time `t` (>= every earlier staged time).
  /// Gets with a negative tag are untracked reads and are dropped, like
  /// the serial loop drops them.
  void add(const fs::StoreOp& op, SimTime t, std::int32_t tag = -1) {
    if (op.kind == fs::StoreOp::Kind::kGet && tag < 0) return;
    D2_REQUIRE_MSG(items_.empty() || t >= last_time_,
                   "batched ops must be staged in time order");
    last_time_ = t;
    std::size_t slot = 0;
    if (op.kind == fs::StoreOp::Kind::kGet) slot = get_count_++;
    const int arc = system_.block_map().arc_of(op.key);
    per_arc_[static_cast<std::size_t>(arc)].push_back(items_.size());
    items_.push_back(Item{op.key, op.size, t, tag, slot, op.kind});
  }

  /// Applies the backlog as one op window and clears it. Get outcomes
  /// (in staging order) are in outcomes() until the next flush.
  void flush() {
    outcomes_.clear();
    if (items_.empty()) return;
    outcomes_.resize(get_count_);
    // The window reaches to the next global event (the fence guarantees
    // it lies past every staged op); with no global pending the window
    // just needs to clear the last op.
    SimTime window_end = sim_.next_global_event_time();
    if (window_end == std::numeric_limits<SimTime>::max()) {
      window_end = last_time_ + 1;
    }
    sim_.run_op_window(window_end, [this](int arc) {
      for (std::size_t idx : per_arc_[static_cast<std::size_t>(arc)]) {
        const Item& it = items_[idx];
        // Run this arc's timer events due up to the op, then the op —
        // the serial run_until-then-apply order, lane-locally.
        sim_.lane_advance(it.t);
        apply(it);
      }
    });
    for (std::vector<std::size_t>& lane : per_arc_) release_or_clear(lane);
    release_or_clear(items_);
    get_count_ = 0;
  }

  const std::vector<GetOutcome>& outcomes() const { return outcomes_; }

 private:
  struct Item {
    Key key;
    Bytes size = 0;
    SimTime t = 0;
    std::int32_t tag = -1;
    std::size_t slot = 0;  // outcome index (gets only)
    fs::StoreOp::Kind kind = fs::StoreOp::Kind::kPut;
  };

  /// Empties `v`, freeing its storage if it grew past the cap.
  template <class T>
  static void release_or_clear(std::vector<T>& v) {
    if (v.capacity() > kMaxBatchOps) {
      std::vector<T>().swap(v);
    } else {
      v.clear();
    }
  }

  void apply(const Item& it) {
    switch (it.kind) {
      case fs::StoreOp::Kind::kPut:
        system_.put_at(it.key, it.size, it.t);
        return;
      case fs::StoreOp::Kind::kRemove:
        system_.remove_at(it.key, it.t);
        return;
      case fs::StoreOp::Kind::kGet: {
        GetOutcome& o = outcomes_[it.slot];
        o.tag = it.tag;
        // One index search serves all three fields.
        const store::BlockState* b = system_.block_map().find(it.key);
        o.known = b != nullptr;
        if (!o.known) return;
        if (const std::optional<int> node = system_.serving_node(*b)) {
          o.available = true;
          o.serving = *node;
        }
        return;
      }
    }
  }

  System& system_;
  sim::Simulator& sim_;
  SimTime last_time_ = 0;
  std::size_t get_count_ = 0;
  std::vector<Item> items_;  // staging order
  // Item indices per arc.
  std::vector<std::vector<std::size_t>> per_arc_ D2_SHARDED_BY_ARC(arc);
  std::vector<GetOutcome> outcomes_;
};

}  // namespace d2::core
