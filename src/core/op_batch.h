// Batched workload-op application.
//
// The replay loop would alternate run_until(record_time) with put/
// remove/get calls — one commit point per record. The ops are key-local,
// so a backlog of them is staged and applied in one flush, in arrival
// order, through the explicit-time entry points (put_at et al.), so TTL
// deadlines and removal delays are anchored exactly where the
// one-run_until-per-op loop would put them.
//
// Key-local timer events (TTL expiry, delayed removes, fetch timers and
// completions) do NOT fence a batch: before each op the flush runs the
// key-local events due at or before the op's time
// (Simulator::run_local_until) — the run_until-then-apply order, minus
// the commit points. Events an op schedules land on the key-local queue
// and are picked up before a later op the same way. Only two things
// force a drain, checked by should_flush_before(t):
//   1. global-event fence — a pending *global* event (failure
//      transition, probe commit tick, regeneration check) at or before
//      t mutates state every op reads, so the backlog must drain (flush,
//      then run_until(t)) first;
//   2. batch-size cap — a deterministic op-count bound so staging
//      memory stays flat on million-user replays.
// A flush opens with one commit point. A batch within the cap keeps its
// staging buffer for the next one, so steady-state replay stages and
// flushes without allocating. A larger batch (populate stages every
// initial put in one) gives its buffer back when it flushes, instead of
// pinning it for the rest of the run.
//
// Gets are evaluated at their position in arrival order; their outcomes
// are recorded into slots and consumed by the caller after flush().
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/assert.h"
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
  /// staging capacity past which flush() frees its buffer: ~a few MB of
  /// Items at the million-user scale, far wider than the global-event
  /// fence ever allows in failure-bearing runs.
  static constexpr std::size_t kMaxBatchOps = 1 << 16;

  OpBatchRunner(System& system, sim::Simulator& sim)
      : system_(system), sim_(sim) {}

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
    items_.push_back(Item{op.key, op.size, t, tag, slot, op.kind});
  }

  /// Applies the backlog and clears it; the clock ends at the last op's
  /// time. Get outcomes (in staging order) are in outcomes() until the
  /// next flush.
  void flush() {
    outcomes_.clear();
    if (items_.empty()) return;
    outcomes_.resize(get_count_);
    // Commitments staged since the last commit point resolve before the
    // ops observe shared state.
    sim_.commit_point();
    for (const Item& it : items_) {
      sim_.run_local_until(it.t);
      apply(it);
    }
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
  static void release_or_clear(std::vector<Item>& v) {
    if (v.capacity() > kMaxBatchOps) {
      std::vector<Item>().swap(v);
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
  std::vector<GetOutcome> outcomes_;
};

}  // namespace d2::core
