#include "sim/simulator.h"

#include <algorithm>

#include "common/assert.h"

namespace d2::sim {

Simulator::Simulator(const ArcConfig& cfg)
    : local_(cfg.scheduler), global_(cfg.scheduler) {
  require_serial_engine(cfg.arcs, cfg.workers, cfg.lookahead);
}

EventQueue* Simulator::head() {
  if (local_.empty()) return global_.empty() ? nullptr : &global_;
  if (global_.empty()) return &local_;
  const SimTime tl = local_.next_time();
  const SimTime tg = global_.next_time();
  if (tl != tg) return tl < tg ? &local_ : &global_;
  return local_.next_order() < global_.next_order() ? &local_ : &global_;
}

void Simulator::step_queue(EventQueue& q) {
  EventQueue::Event ev = q.pop();
  D2_ASSERT(ev.time >= now_);
  now_ = ev.time;
  ++events_processed_;
  if (events_counter_ != nullptr) events_counter_->add(1);
  ev.fn();
}

// Commit point; an empty hook is a no-op by design.
// d2-lint: allow(unguarded-mutator) — the hook owns its own validation
bool Simulator::commit() {
  if (!commit_hook_) return false;
  const std::size_t before = events_pending();
  commit_hook_();
  return events_pending() != before;
}

// Best-effort by contract: kNoEvent and ids no longer pending are no-ops.
// d2-lint: allow(unguarded-mutator)
bool Simulator::discard_local(EventId id) {
  if (id == kNoEvent) return false;
  return local_.discard(id);
}

std::optional<SimTime> Simulator::local_pending_time(EventId id) const {
  if (id == kNoEvent) return std::nullopt;
  return local_.pending_time(id);
}

void Simulator::run() {
  while (true) {
    EventQueue* q = head();
    if (q == nullptr) {
      // Idle fixpoint: resolving commitments may schedule completions.
      if (commit()) continue;
      break;
    }
    // Commit point: staged commitments resolve before any global event
    // observes shared state. Resolution may change the head.
    if (q == &global_ && commit()) continue;
    step_queue(*q);
  }
}

bool Simulator::step() {
  EventQueue* q = head();
  if (q == nullptr) {
    if (!commit()) return false;
    q = head();
    if (q == nullptr) return false;
  } else if (q == &global_ && commit()) {
    q = head();
  }
  step_queue(*q);
  return true;
}

void Simulator::run_until(SimTime t) {
  D2_REQUIRE(t >= now_);
  while (true) {
    EventQueue* q = head();
    if (q == nullptr || q->next_time() > t) {
      // Nothing due: resolve outstanding commitments. Completions clamp
      // to >= now(), so they may land at or before t — loop to the
      // fixpoint where a commit adds nothing due.
      if (commit() && next_event_time() <= t) continue;
      break;
    }
    if (q == &global_ && commit()) continue;  // head may have changed
    step_queue(*q);
  }
  now_ = t;
}

void Simulator::run_local_until(SimTime t) {
  D2_REQUIRE_MSG(t >= now_, "the clock may not go backwards");
  D2_REQUIRE_MSG(t < next_global_event_time(),
                 "run_local_until past a pending global event");
  while (!local_.empty() && local_.next_time() <= t) step_queue(local_);
  now_ = t;
}

SimTime Simulator::next_event_time() const {
  const SimTime tl =
      local_.empty() ? std::numeric_limits<SimTime>::max() : local_.next_time();
  return std::min(tl, next_global_event_time());
}

void Simulator::bind_metrics(obs::Registry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    events_counter_ = nullptr;
    return;
  }
  events_counter_ = &registry->counter("sim.events_processed");
  // Contribute (not overwrite) any events processed before binding, so
  // several simulators — parallel trials — sharing one registry sum
  // instead of clobbering each other.
  if (events_processed_ > 0) {
    events_counter_->add(static_cast<std::int64_t>(events_processed_));
  }
}

void Simulator::export_metrics() {
  if (metrics_ == nullptr) return;
  metrics_->gauge("sim.events_pending")
      .set(static_cast<double>(events_pending()));
  metrics_->gauge("sim.event_slots").set(static_cast<double>(event_slots()));
  metrics_->gauge("sim.event_overflow_slots")
      .set(static_cast<double>(event_overflow_slots()));
  metrics_->gauge("sim.event_slab_bytes")
      .set(static_cast<double>(event_slab_bytes()));
  metrics_->gauge("sim.clock_seconds").set(to_seconds(now_));
}

}  // namespace d2::sim
