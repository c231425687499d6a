// Batched workload-op application.
//
// A replay loop hands each store op to add() with its record time. The
// runner runs the simulator to that time (Simulator::run_until) and
// applies the op at once, so TTL deadlines, removal delays and fetch
// completions land exactly where a one-run_until-per-op loop puts them.
// What a batch adds is the point where get outcomes drain: outcomes
// accumulate across adds and the caller consumes them after flush().
// should_flush_before(t) says when to drain:
//   1. a pending *global* event (failure transition, probe commit tick,
//      regeneration check) at or before t — the caller drains, then runs
//      the simulator through it;
//   2. kMaxBatchOps ops since the last flush.
// Key-local events (TTL expiry, delayed removes, fetch timers and
// completions) never end a batch early: add() runs them as the clock
// reaches them. The rule orders nothing; it only sets how often the
// caller folds outcomes, and so how large the outcome buffer grows.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/system.h"
#include "fs/writeback_cache.h"
#include "sim/simulator.h"

namespace d2::core {

class OpBatchRunner {
 public:
  /// Result of one tracked get, tagged with the caller's `tag` (e.g. the
  /// task index a record belongs to).
  struct GetOutcome {
    std::int32_t tag = -1;
    bool known = false;      // system.has(key)
    bool available = false;  // system.block_available(key)
    int serving = -1;        // serving node, -1 = none
  };

  /// Ops after which should_flush_before asks for a drain, so the
  /// outcome buffer stays flat on million-user replays.
  static constexpr std::size_t kMaxBatchOps = 1 << 16;

  OpBatchRunner(System& system, sim::Simulator& sim)
      : system_(system), sim_(sim) {}

  /// True when no op was added since the last flush.
  bool empty() const { return ops_ == 0; }

  /// True when the caller should flush before adding an op at time `t`
  /// (see the rules in the file comment).
  bool should_flush_before(SimTime t) const {
    if (ops_ == 0) return false;
    if (sim_.next_global_event_time() <= t) return true;
    return ops_ >= kMaxBatchOps;
  }

  /// Runs the simulator to time `t` (>= now) and applies one op there.
  /// Gets with a negative tag are untracked reads and are dropped; a
  /// tracked get appends its outcome.
  void add(const fs::StoreOp& op, SimTime t, std::int32_t tag = -1) {
    if (op.kind == fs::StoreOp::Kind::kGet && tag < 0) return;
    if (ops_++ == 0) outcomes_.clear();  // a new batch
    sim_.run_until(t);
    switch (op.kind) {
      case fs::StoreOp::Kind::kPut:
        system_.put(op.key, op.size);
        return;
      case fs::StoreOp::Kind::kRemove:
        system_.remove(op.key);
        return;
      case fs::StoreOp::Kind::kGet: {
        GetOutcome& o = outcomes_.emplace_back();
        o.tag = tag;
        // One index search serves all three fields.
        const store::BlockState* b = system_.block_map().find(op.key);
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

  /// Ends the batch. Its get outcomes, in add order, stay in outcomes()
  /// until the next add or flush.
  void flush() {
    if (ops_ == 0) outcomes_.clear();
    ops_ = 0;
  }

  const std::vector<GetOutcome>& outcomes() const { return outcomes_; }

 private:
  System& system_;
  sim::Simulator& sim_;
  std::size_t ops_ = 0;  // ops added since the last flush
  std::vector<GetOutcome> outcomes_;
};

}  // namespace d2::core
