#include "sim/simulator.h"

#include <algorithm>

#include "common/assert.h"

namespace d2::sim {

thread_local constinit Simulator::LaneCtx Simulator::tl_lane_;

namespace {
std::vector<EventQueue> make_queues(const ArcConfig& cfg) {
  std::vector<EventQueue> queues;
  queues.reserve(static_cast<std::size_t>(cfg.arcs) + 1);
  for (int i = 0; i <= cfg.arcs; ++i) queues.emplace_back(cfg.scheduler);
  return queues;
}
}  // namespace

Simulator::Simulator(const ArcConfig& cfg)
    : arcs_(cfg.arcs),
      lookahead_(cfg.lookahead),
      queues_(make_queues(cfg)),
      pool_(cfg.workers),
      lane_pushes_(static_cast<std::size_t>(cfg.arcs), 0),
      lane_events_(static_cast<std::size_t>(cfg.arcs), 0),
      lane_last_time_(static_cast<std::size_t>(cfg.arcs), 0),
      lane_time_sum_(static_cast<std::size_t>(cfg.arcs), 0) {
  D2_REQUIRE_MSG(cfg.arcs >= 1, "simulator needs at least one arc");
  D2_REQUIRE_MSG(cfg.workers >= 1, "simulator needs at least one worker");
  D2_REQUIRE(cfg.lookahead >= 0);
  mailbox_.reset(cfg.arcs);
}

int Simulator::min_queue() const {
  int best = -1;
  SimTime best_time = 0;
  std::uint64_t best_order = 0;
  for (int qi = 0; qi <= arcs_; ++qi) {
    const EventQueue& q = queues_[static_cast<std::size_t>(qi)];
    if (q.empty()) continue;
    const SimTime t = q.next_time();
    const std::uint64_t o = q.next_order();
    if (best == -1 || t < best_time || (t == best_time && o < best_order)) {
      best = qi;
      best_time = t;
      best_order = o;
    }
  }
  return best;
}

void Simulator::step_queue(int qi) {
  EventQueue::Event ev = queues_[static_cast<std::size_t>(qi)].pop();
  D2_ASSERT(ev.time >= now_);
  now_ = ev.time;
  ++events_processed_;
  time_checksum_ += static_cast<std::uint64_t>(ev.time);
  if (events_counter_ != nullptr) events_counter_->add(1);
  ev.fn();
}

// Coordinator-internal commit point; an empty hook is a no-op by design.
// d2-lint: allow(unguarded-mutator) — the hook owns its own validation
bool Simulator::commit() {
  if (!commit_hook_) return false;
  const std::size_t before = events_pending();
  commit_hook_();
  return events_pending() != before;
}

void Simulator::run() {
  while (true) {
    const int qi = min_queue();
    if (qi == -1) {
      // Idle fixpoint: resolving commitments may schedule completions.
      if (commit()) continue;
      break;
    }
    // Commit point: cross-arc commitments resolve before any global event
    // observes shared state. Resolution may change the merged head.
    if (qi == arcs_ && commit()) continue;
    step_queue(qi);
  }
}

bool Simulator::step() {
  int qi = min_queue();
  if (qi == -1) {
    if (!commit()) return false;
    qi = min_queue();
    if (qi == -1) return false;
  } else if (qi == arcs_ && commit()) {
    qi = min_queue();
  }
  step_queue(qi);
  return true;
}

void Simulator::run_until(SimTime t) {
  D2_REQUIRE(t >= now_);
  const bool parallel = pool_.workers() > 1 && arcs_ > 1;
  while (true) {
    const int qi = min_queue();
    if (qi == -1 || queues_[static_cast<std::size_t>(qi)].next_time() > t) {
      // Nothing due: resolve outstanding commitments. Completions clamp
      // to >= now(), so they may land at or before t — loop to the
      // fixpoint where a commit adds nothing due.
      if (commit() && next_event_time() <= t) continue;
      break;
    }
    if (!parallel || qi == arcs_) {
      // Global events (and the whole serial engine) run on the
      // coordinator in merged (time, order) sequence, behind the commit
      // point when the head is global.
      if (qi == arcs_ && commit()) continue;  // head may have changed
      step_queue(qi);
      continue;
    }
    const SimTime head = queues_[static_cast<std::size_t>(qi)].next_time();
    // The earliest event is arc-local: open a parallel window over every
    // arc event strictly before the next global event (ties with a
    // global event stay serial so the merged tie-break by order key
    // decides, exactly as with one worker), capped by the run bound.
    SimTime window_end = t == std::numeric_limits<SimTime>::max()
                             ? t
                             : t + 1;  // half-open: include events at t
    const EventQueue& global = queues_[static_cast<std::size_t>(arcs_)];
    if (!global.empty()) window_end = std::min(window_end, global.next_time());
    // Adaptive sync horizon (DESIGN.md §12): every barrier fully drains
    // the mailbox, so at window-open no committed cross-arc send is
    // outstanding and the window runs all the way to the bound above. A
    // committed send (watermark) would cap it; the configured lookahead
    // stays available as an explicit conservative cap (windows shrink,
    // output is byte-identical — the window-trace differential tests).
    const SimTime wm = mailbox_.watermark();
    if (wm != Mailbox::kNoWatermark) {
      window_end = std::min(window_end, std::max(head + 1, wm));
    }
    if (lookahead_ > 0) window_end = std::min(window_end, head + lookahead_);
    if (window_end <= head) {
      // Horizon too tight to cover even the head event; run it serially
      // to guarantee progress.
      step_queue(qi);
      continue;
    }
    run_window(window_end);
  }
  now_ = t;
}

void Simulator::run_window(SimTime window_end) {
  D2_REQUIRE_MSG(window_end_ == 0 && !in_lane(), "nested parallel window");
  const SimTime window_start = now_;
  window_base_ = order_counter_;
  window_end_ = window_end;
  mailbox_.set_floor(window_end);
  std::fill(lane_pushes_.begin(), lane_pushes_.end(), 0);
  std::fill(lane_events_.begin(), lane_events_.end(), 0);
  std::fill(lane_time_sum_.begin(), lane_time_sum_.end(), 0);
  pool_.run_arcs(arcs_, [this, window_end](int arc) {
    const auto arc_i = static_cast<std::size_t>(arc);
    EventQueue& q = queues_[arc_i];
    LaneGuard guard(this, arc, now_);
    std::uint64_t n = 0;
    std::uint64_t sum = 0;
    SimTime last = now_;
    while (!q.empty() && q.next_time() < window_end) {
      EventQueue::Event ev = q.pop();
      D2_ASSERT(ev.time >= last);
      last = ev.time;
      tl_lane_.now = ev.time;
      ++n;
      sum += static_cast<std::uint64_t>(ev.time);
      ev.fn();
    }
    lane_events_[arc_i] = n;
    lane_time_sum_[arc_i] = sum;
    lane_last_time_[arc_i] = last;
  });
  const SimTime furthest = fold_lanes(window_start, window_end);
  now_ = furthest;
  window_end_ = 0;
  // Jump the merge-key counter past every lane stripe so later pushes
  // order after everything pushed inside the window.
  order_counter_ =
      window_base_ + static_cast<std::uint64_t>(arcs_) * kLaneOrderStride;
  deliver_mailbox();
}

void Simulator::run_op_window(
    SimTime window_end,
    // d2-lint: allow(std-function) — one type-erased call per window barrier
    const std::function<void(int)>& fn) {
  D2_REQUIRE_MSG(window_end_ == 0 && !in_lane(),
                 "run_op_window inside a window or lane");
  D2_REQUIRE_MSG(window_end > now_, "op window must extend past the clock");
  // Flush start is a commit point: commitments staged by events in
  // earlier windows must resolve before the ops observe shared state.
  commit();
  D2_REQUIRE_MSG(next_global_event_time() >= window_end,
                 "op window would span a pending global event");
  const SimTime window_start = now_;
  window_base_ = order_counter_;
  window_end_ = window_end;
  mailbox_.set_floor(window_end);
  std::fill(lane_pushes_.begin(), lane_pushes_.end(), 0);
  std::fill(lane_events_.begin(), lane_events_.end(), 0);
  std::fill(lane_time_sum_.begin(), lane_time_sum_.end(), 0);
  std::fill(lane_last_time_.begin(), lane_last_time_.end(), now_);
  pool_.run_arcs(arcs_, [this, &fn](int arc) {
    LaneGuard guard(this, arc, now_);
    fn(arc);
    // The lane clock ends at its last advance target (<= the last op this
    // lane applied); events past it stay queued for the next window.
    lane_last_time_[static_cast<std::size_t>(arc)] = tl_lane_.now;
  });
  const SimTime furthest = fold_lanes(window_start, window_end);
  window_end_ = 0;
  order_counter_ =
      window_base_ + static_cast<std::uint64_t>(arcs_) * kLaneOrderStride;
  deliver_mailbox();
  // Events left queued behind a lane's last advance must still be able to
  // pop (ev.time >= now_), so the clock advances to the furthest lane
  // time only when no earlier event is pending. Both quantities are
  // per-queue properties, so this clock is the same in serial and
  // parallel execution.
  now_ = std::max(now_, std::min(furthest, next_event_time()));
}

void Simulator::lane_advance(SimTime t) {
  // Direct tl_lane_ member reads, no reference — see now().
  D2_REQUIRE_MSG(tl_lane_.owner == this && window_end_ != 0,
                 "lane_advance outside an op-window lane");
  D2_REQUIRE_MSG(t >= tl_lane_.now, "lane clock may not go backwards");
  D2_REQUIRE_MSG(t < window_end_, "lane_advance past the op window end");
  const auto arc_i = static_cast<std::size_t>(tl_lane_.arc);
  EventQueue& q = queues_[arc_i];
  std::uint64_t n = 0;
  std::uint64_t sum = 0;
  SimTime last = tl_lane_.now;
  while (!q.empty() && q.next_time() <= t) {
    EventQueue::Event ev = q.pop();
    D2_ASSERT(ev.time >= last);
    last = ev.time;
    tl_lane_.now = ev.time;
    ++n;
    sum += static_cast<std::uint64_t>(ev.time);
    ev.fn();
  }
  lane_events_[arc_i] += n;
  lane_time_sum_[arc_i] += sum;
  tl_lane_.now = t;
}

SimTime Simulator::fold_lanes(SimTime window_start, SimTime window_end) {
  std::uint64_t total = 0;
  std::uint64_t lane_max = 0;
  SimTime furthest = window_start;
  for (int arc = 0; arc < arcs_; ++arc) {
    const auto arc_i = static_cast<std::size_t>(arc);
    total += lane_events_[arc_i];
    lane_max = std::max(lane_max, lane_events_[arc_i]);
    time_checksum_ += lane_time_sum_[arc_i];
    if (lane_events_[arc_i] > 0 || lane_last_time_[arc_i] > furthest) {
      furthest = std::max(furthest, lane_last_time_[arc_i]);
    }
  }
  events_processed_ += total;
  if (events_counter_ != nullptr && total > 0) {
    events_counter_->add(static_cast<std::int64_t>(total));
  }
  ++windows_;
  const SimTime span =
      window_end == std::numeric_limits<SimTime>::max()
          ? (furthest > window_start ? furthest - window_start : 0)
          : window_end - window_start;
  window_span_sum_ += span;
  window_span_max_ = std::max(window_span_max_, span);
  window_events_ += total;
  lane_busy_num_ += total;
  lane_busy_den_ += lane_max * static_cast<std::uint64_t>(arcs_);
  return furthest;
}

// d2-lint: allow(std-function) — one type-erased call per phase barrier
void Simulator::run_arc_phase(const std::function<void(int)>& fn) {
  D2_REQUIRE_MSG(window_end_ == 0 && !in_lane(),
                 "run_arc_phase inside a window or lane");
  commit();  // same commit point as an op-window flush
  mailbox_.set_floor(now_);
  pool_.run_arcs(arcs_, [this, &fn](int arc) {
    LaneGuard guard(this, arc, now_);
    fn(arc);
  });
  deliver_mailbox();
}

void Simulator::deliver_mailbox() {
  mailbox_.deliver([this](SimTime t, int /*src_arc*/, std::uint32_t /*seq*/,
                          int dst_arc, const EventFn& fn) {
    D2_ASSERT_MSG(t >= now_, "mailboxed event scheduled into the past");
    queues_[static_cast<std::size_t>(dst_arc)].push_ordered(
        t, order_counter_++, fn);
  });
}

SimTime Simulator::next_event_time() const {
  const int qi = min_queue();
  if (qi == -1) return std::numeric_limits<SimTime>::max();
  return queues_[static_cast<std::size_t>(qi)].next_time();
}

SimTime Simulator::next_global_event_time() const {
  const EventQueue& g = queues_[static_cast<std::size_t>(arcs_)];
  if (g.empty()) return std::numeric_limits<SimTime>::max();
  return g.next_time();
}

std::size_t Simulator::events_pending() const {
  std::size_t n = 0;
  for (const EventQueue& q : queues_) n += q.pending();
  return n;
}

std::size_t Simulator::event_slots() const {
  std::size_t n = 0;
  for (const EventQueue& q : queues_) n += q.slots();
  return n;
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
  metrics_->gauge("sim.clock_seconds").set(to_seconds(now_));
  // Partition-coordinator window statistics (DESIGN.md §12): how wide
  // the parallel windows actually ran, how much work they carried, and
  // how evenly the lanes shared it (1.0 = perfectly balanced).
  metrics_->gauge("sim.window.count").set(static_cast<double>(windows_));
  metrics_->gauge("sim.window.span_mean_seconds")
      .set(windows_ > 0 ? to_seconds(window_span_sum_) /
                              static_cast<double>(windows_)
                        : 0.0);
  metrics_->gauge("sim.window.span_max_seconds")
      .set(to_seconds(window_span_max_));
  metrics_->gauge("sim.window.events_mean")
      .set(windows_ > 0 ? static_cast<double>(window_events_) /
                              static_cast<double>(windows_)
                        : 0.0);
  metrics_->gauge("sim.window.lane_busy_fraction")
      .set(lane_busy_den_ > 0 ? static_cast<double>(lane_busy_num_) /
                                    static_cast<double>(lane_busy_den_)
                              : 0.0);
}

}  // namespace d2::sim
