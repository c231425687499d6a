#include "core/system.h"

#include <algorithm>
#include <tuple>

#include "common/assert.h"
#include "common/stats.h"
#include "dht/consistent_hash.h"

namespace d2::core {

namespace {
constexpr SimTime kFetchRetryDelay = minutes(10);
}  // namespace

System::System(const SystemConfig& config, sim::Simulator& sim,
               obs::Registry* metrics)
    : config_(config),
      sim_(sim),
      owned_metrics_(metrics == nullptr ? std::make_unique<obs::Registry>()
                                        : nullptr),
      metrics_(metrics == nullptr ? owned_metrics_.get() : metrics),
      rng_(config.seed),
      map_(config.node_count),
      balancer_(dht::LoadBalanceConfig{config.lb_threshold, 4}) {
  sim::require_serial_engine(config.arcs, config.arc_workers);
  D2_REQUIRE(config.node_count > 0);
  D2_REQUIRE(config.replicas > 0);
  D2_REQUIRE_MSG(config.ec_data_fragments >= 1 &&
                     config.ec_data_fragments <= config.replicas,
                 "a block needs 1 <= k <= n of its members");
  D2_REQUIRE_MSG(config.scatter_replicas >= 0 &&
                     config.scatter_replicas < config.replicas,
                 "scatter_replicas must lie in [0, replicas)");
  D2_REQUIRE_MSG(config.scatter_replicas == 0 || config.ec_data_fragments == 1,
                 "hybrid placement + erasure coding not supported together");
  user_write_bytes_c_ = &metrics_->counter("system.user_write_bytes");
  user_removed_bytes_c_ = &metrics_->counter("system.user_removed_bytes");
  migration_bytes_c_ = &metrics_->counter("system.migration_bytes");
  lb_moves_c_ = &metrics_->counter("system.lb_moves");
  replica_fetches_c_ = &metrics_->counter("system.replica_fetches");
  fetch_timers_c_ = &metrics_->counter("system.fetch_timers");
  fetch_timers_discarded_c_ =
      &metrics_->counter("system.fetch_timers_discarded");
  pointer_promotions_c_ = &metrics_->counter("system.pointer_promotions");
  reassigned_blocks_c_ = &metrics_->counter("system.reassigned_blocks");
  replica_set_changes_c_ = &metrics_->counter("system.replica_set_changes");
  balancer_.bind_metrics(metrics_);
  nodes_.reserve(static_cast<std::size_t>(config.node_count));
  for (int i = 0; i < config.node_count; ++i) {
    nodes_.emplace_back(config.migration_bandwidth);
    nodes_.back().migration_link.bind_metrics(metrics_, "sim.migration_link");
    Key id = dht::random_node_id(rng_);
    while (ring_.id_taken(id)) id = dht::random_node_id(rng_);
    ring_.add(i, id);
  }
}

bool System::node_up(int node) const {
  D2_REQUIRE(node >= 0 && node < config_.node_count);
  return nodes_[static_cast<std::size_t>(node)].up;
}

// ------------------------------------------------------------ replicas --

Key System::scatter_position(const Key& k, int i) {
  return dht::hashed_key(k.hex() + "#scatter" + std::to_string(i));
}

void System::target_replica_set(const Key& k, std::vector<int>& out) const {
  successor_set(ring_.owner(k), out);
  append_scattered(k, out);
}

void System::successor_set(int owner, std::vector<int>& out) const {
  // With hybrid placement, the tail of the set lives at consistent-hash
  // positions instead (append_scattered).
  ring_.successors(owner, config_.replicas - config_.scatter_replicas,
                   [this](int node) { return node_up(node); }, out);
}

void System::append_scattered(const Key& k, std::vector<int>& out) const {
  // Scattered members: first non-duplicate node at each hashed position,
  // plus the next up one if it is down (mirroring the successor logic).
  if (config_.scatter_replicas == 0) return;
  const auto cached = scatter_positions_.find(k);
  D2_ASSERT_MSG(cached != scatter_positions_.end(),
                "scattered block has no registered positions");
  for (const Key& position : cached->second) {
    int candidate = ring_.owner(position);
    int steps = 0;
    bool added_up = false;
    while (steps < 1 + dht::Ring::kMaxSkipped + static_cast<int>(out.size())) {
      const bool duplicate =
          std::find(out.begin(), out.end(), candidate) != out.end();
      if (!duplicate) {
        out.push_back(candidate);
        if (node_up(candidate)) {
          added_up = true;
        }
      }
      if (added_up) break;
      candidate = ring_.successor(candidate);
      ++steps;
      if (static_cast<std::size_t>(out.size()) >= ring_.size()) break;
    }
  }
}

void System::register_scatter(const Key& k) {
  std::vector<Key>& positions = scatter_positions_[k];
  D2_ASSERT_MSG(positions.empty(), "scatter positions registered twice");
  for (int s = 0; s < config_.scatter_replicas; ++s) {
    positions.push_back(scatter_position(k, s));
    scatter_index_.emplace(positions.back(), k);
  }
}

void System::forget_scatter(const Key& k) {
  const auto cached = scatter_positions_.find(k);
  D2_ASSERT_MSG(cached != scatter_positions_.end(),
                "forgetting a block with no registered scatter positions");
  for (const Key& pos : cached->second) {
    auto [lo, hi] = scatter_index_.equal_range(pos);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == k) {
        scatter_index_.erase(it);
        break;
      }
    }
  }
  scatter_positions_.erase(cached);
}

std::vector<int> System::replica_nodes(const Key& k) const {
  const store::BlockState* b = map_.find(k);
  if (b == nullptr) return {};
  std::vector<int> out;
  out.reserve(b->replicas.size());
  for (const store::Replica& r : b->replicas) out.push_back(r.node);
  return out;
}

int System::up_data_holders(const store::BlockState& b) const {
  int count = 0;
  for (const store::Replica& r : b.replicas) {
    if (r.has_data && node_up(r.node)) ++count;
  }
  for (int n : b.stale_holders) {
    if (node_up(n)) ++count;
  }
  return count;
}

std::optional<int> System::serving_node(const Key& k) const {
  const store::BlockState* b = map_.find(k);
  if (b == nullptr) return std::nullopt;
  return serving_node(*b);
}

std::optional<int> System::serving_node(const store::BlockState& b) const {
  // A read gathers k copies (stale holders still carry theirs); the
  // primary-most up member with data serves.
  if (up_data_holders(b) < config_.ec_data_fragments) return std::nullopt;
  bool responsible_up = false;
  for (const store::Replica& r : b.replicas) {
    if (!node_up(r.node)) continue;
    if (r.has_data) return r.node;
    responsible_up = true;
  }
  if (!responsible_up) return std::nullopt;
  // A responsible (pointer-holding) node is up; it redirects to an up
  // holder of the bytes.
  for (int n : b.stale_holders) {
    if (node_up(n)) return n;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------- puts --

void System::put(const Key& k, Bytes size) {
  D2_REQUIRE(size >= 0);
  add_user_write_bytes(size);
  bool fresh_key = true;
  if (const store::BlockState* existing = map_.find(k)) {
    // In-place update (the mutable root block, or a webcache version
    // replacement): the previous version's bytes are discarded.
    add_user_removed_bytes(existing->size);
    fresh_key = false;  // scatter-index entries stay valid
    if (existing->size != size) {
      discard_fetch_timers(k, *existing);
      map_.erase(k);
    } else {
      refresh(k);
      return;
    }
  }
  // Registered first: the target set below reads the scatter positions.
  if (fresh_key && config_.scatter_replicas > 0) register_scatter(k);
  std::vector<int>& set = replica_set_scratch_;
  target_replica_set(k, set);
  // Each member stores ceil(size / k) bytes: the whole block at k = 1.
  const int data_fragments = config_.ec_data_fragments;
  map_.insert(k, size, set, (size + data_fragments - 1) / data_fragments);
  note_set_shape(k, set.size());
  // A write cannot land on a down member; it catches up on recovery.
  for (int n : set) {
    if (!node_up(n)) map_.mark_missing(k, n);
  }
  refresh(k);
  maybe_audit(/*sampled=*/true);
}

void System::remove(const Key& k) {
  // d2-sched: local — a delayed remove touches only k's state
  sim_.schedule_local_at(sim_.now() + config_.remove_delay, [this, k] {
    if (const store::BlockState* b = map_.find(k)) {
      add_user_removed_bytes(b->size);
      discard_fetch_timers(k, *b);
      map_.erase(k);
      expiry_.erase(k);
      extended_.erase(k);
      if (config_.scatter_replicas > 0) forget_scatter(k);
      maybe_audit(/*sampled=*/true);
    }
  });
}

void System::refresh(const Key& k) {
  if (config_.block_ttl <= 0) return;
  if (!map_.contains(k)) return;
  const SimTime deadline = sim_.now() + config_.block_ttl;
  expiry_[k] = deadline;
  // Deadline-check pattern (expiry events are never cancelled): a later
  // refresh bumps the entry and this event becomes a no-op.
  // d2-sched: local — TTL expiry touches only k's state
  sim_.schedule_local_at(deadline, [this, k, deadline] {
    auto it = expiry_.find(k);
    if (it == expiry_.end() || it->second != deadline) return;  // refreshed
    if (const store::BlockState* b = map_.find(k)) {
      add_user_removed_bytes(b->size);
      if (tracer_ != nullptr) {
        tracer_->record(sim_.now(), obs::EventType::kBlockExpired, b->size);
      }
      discard_fetch_timers(k, *b);
      map_.erase(k);
      extended_.erase(k);
      if (config_.scatter_replicas > 0) forget_scatter(k);
    }
    expiry_.erase(it);
  });
}

// -------------------------------------------------------------- fetches --

sim::EventId System::schedule_fetch(store::BlockHandle h,
                                    store::Replica& member, SimTime due) {
  member.fetch_due = due;
  fetch_timers_c_->add(1);
  // Key-local: the timer touches one block's state (block lookup +
  // replica flags). An admitted fetch also enqueues on the node's
  // migration link, which only fetch timers use, in event order.
  auto fire = [this, h, node = member.node] { try_fetch(h, node); };
  static_assert(sim::kFitsInlineEvent<decltype(fire)>,
                "fetch timers must fit their event slot (hundreds of "
                "thousands are pending at once)");
  // d2-sched: local — a fetch timer touches only its block's state
  return sim_.schedule_local_at(due, fire);
}

// A best-effort discard: kNoEvent and fired ids are no-ops.
// d2-lint: allow(unguarded-mutator)
void System::discard_fetch_timer(sim::EventId id) {
  if (sim_.discard_local(id)) fetch_timers_discarded_c_->add(1);
}

void System::discard_fetch_timers(const Key& k, const store::BlockState& b) {
  D2_DCHECK_MSG(map_.find(k) == &b, "discarding timers of a state not k's");
  for (const store::Replica& r : b.replicas) {
    discard_fetch_timer(r.fetch_timer);
  }
}

void System::try_fetch(store::BlockHandle h, int node) {
  store::BlockState* b = map_.at(h);
  if (b == nullptr) return;  // erased meanwhile (even if put again)
  store::Replica* member = nullptr;
  for (store::Replica& r : b->replicas) {
    if (r.node == node) {
      member = &r;
      break;
    }
  }
  if (member == nullptr) return;  // responsibility handed off (pointer win)
  // Not this member's own timer: replaced by an earlier one, or armed
  // for a membership that has since ended.
  if (member->fetch_due != sim_.now()) return;
  member->fetch_due = kSimTimeNever;
  member->fetch_timer = sim::Simulator::kNoEvent;  // this timer, now fired
  D2_DCHECK(!member->has_data && !member->fetch_in_flight);
  if (!node_up(node)) return;  // recovery readjustment will reschedule
  // Rebuilding a copy reads k others: one whole copy under replication,
  // k fragments under erasure coding (its repair penalty, §3's "cost of
  // ... complexity").
  if (up_data_holders(*b) < config_.ec_data_fragments) {
    // Too few up sources; retry. A retry records no id, so it is never
    // discarded: one that outlives its membership lapses through the
    // fetch_due check above.
    schedule_fetch(h, *member, sim_.now() + kFetchRetryDelay);
    return;
  }
  const Bytes transfer_bytes = b->member_bytes * config_.ec_data_fragments;
  member->fetch_in_flight = true;
  migration_bytes_ += transfer_bytes;
  migration_bytes_c_->add(transfer_bytes);
  replica_fetches_c_->add(1);
  if (tracer_ != nullptr) {
    tracer_->record(sim_.now(), obs::EventType::kReplicaFetch, node,
                    transfer_bytes);
  }
  const SimTime done = nodes_[static_cast<std::size_t>(node)]
                           .migration_link.enqueue(sim_.now(), transfer_bytes);
  auto complete = [this, h, node] { finish_fetch(h, node); };
  static_assert(sim::kFitsInlineEvent<decltype(complete)>,
                "fetch completions must fit their event slot");
  // d2-sched: local — a completion touches only its block's state
  sim_.schedule_local_at(done, complete);
}

void System::finish_fetch(store::BlockHandle h, int node) {
  store::BlockState* blk = map_.at(h);
  if (blk == nullptr) return;  // erased meanwhile (even if put again)
  for (store::Replica& r : blk->replicas) {
    if (r.node == node) {
      if (!r.has_data && r.fetch_in_flight) {
        map_.mark_data(h, *blk, node);
        // The member held (at most) a pointer until now; the fetch
        // completing promotes it to a full data holder.
        pointer_promotions_c_->add(1);
      }
      return;
    }
  }
}

// --------------------------------------------------------- readjustment --

void System::note_set_shape(const Key& k, std::size_t set_size) {
  if (static_cast<int>(set_size) != config_.replicas) {
    extended_.insert(k);
  } else {
    extended_.erase(k);
  }
}

// Preconditions (non-empty set, `b` is k's state) are enforced by
// BlockMap::reassign_replicas.  d2-lint: allow(unguarded-mutator)
bool System::reassign_block(const Key& k, store::BlockHandle h,
                            store::BlockState& b, const std::vector<int>& set,
                            SimTime fetch_delay) {
  note_set_shape(k, set.size());
  // A member leaving the set takes its recorded timer with it.
  for (const store::Replica& r : b.replicas) {
    if (r.fetch_timer != sim::Simulator::kNoEvent &&
        std::find(set.begin(), set.end(), r.node) == set.end()) {
      discard_fetch_timer(r.fetch_timer);
    }
  }
  const bool changed = map_.reassign_replicas(k, b, set);
  for (store::Replica& r : b.replicas) {
    if (r.has_data || r.fetch_in_flight) continue;
    // A down member's timer finds it down and lapses; its recovery
    // readjustment arms the real fetch.
    const SimTime due = sim_.now() + (node_up(r.node) ? fetch_delay : 0);
    if (due >= r.fetch_due) continue;
    // Armed before the discard: the superseded timer is then due after
    // the new one on the same queue, never the queue's next event, so
    // the discard always succeeds.
    const sim::EventId superseded = r.fetch_timer;
    r.fetch_timer = schedule_fetch(h, r, due);
    discard_fetch_timer(superseded);
  }
  return changed;
}

void System::count_pass(const ReassignTally& tally) {
  reassigned_blocks_c_->add(tally.blocks);
  replica_set_changes_c_->add(tally.changed);
}

void System::readjust_arc(int around_node, SimTime fetch_delay) {
  if (map_.block_count() == 0) return;
  // Cover every key whose successor walk (successor_set) reaches
  // `around_node`. The walk from a key's owner stops once r' =
  // replicas - scatter_replicas up nodes are in, or after
  // r' + Ring::kMaxSkipped nodes. So an owner `back` places before
  // `around_node` is covered while back < that cap and fewer than r' of
  // the nodes from it up to around_node's predecessor are up. `first`
  // is the farthest owner covered.
  const int successors_wanted = config_.replicas - config_.scatter_replicas;
  const int cap = std::min<int>(static_cast<int>(ring_.size()),
                                successors_wanted + dht::Ring::kMaxSkipped);
  int first = around_node;
  int up_between = 0;
  for (int back = 1; back < cap; ++back) {
    const int p = ring_.predecessor(first);
    if (node_up(p) && ++up_between == successors_wanted) break;
    first = p;
  }
  const Key walk_from = ring_.id_of(ring_.predecessor(first));
  const Key to = ring_.id_of(around_node);
  ReassignTally tally;
  // One walk in key order, reassigning each block where it is stored, so
  // fetch timers are armed in key order. The successor part of a target
  // set depends only on the key's owner and on which nodes are up, and
  // neither changes during the walk: it is computed once per owned
  // segment (seg_from, seg_to], and each key's scattered members are
  // appended to it.
  std::vector<int>& set = replica_set_scratch_;
  std::size_t successors = 0;
  int owner = -1;
  Key seg_from;
  Key seg_to;
  map_.for_each_in_arc(walk_from, to, [&](const Key& k, store::BlockHandle h,
                                          store::BlockState& b) {
    if (owner < 0 || !Key::in_arc(k, seg_from, seg_to)) {
      owner = ring_.owner(k);
      std::tie(seg_from, seg_to) = ring_.owned_arc(owner);
      successor_set(owner, set);
      successors = set.size();
    }
    set.resize(successors);  // drop the previous key's scattered members
    append_scattered(k, set);
    tally.add(reassign_block(k, h, b, set, fetch_delay));
  });
  if (!scatter_index_.empty()) {
    // Blocks with a scattered replica anchored near `around_node` are
    // affected too (hybrid placement). A scattered member's walk
    // (append_scattered) has its own bound, so these positions keep the
    // wider cover of r + Ring::kMaxSkipped predecessors.
    int pred = around_node;
    const int steps = std::min<int>(static_cast<int>(ring_.size()) - 1,
                                    config_.replicas + dht::Ring::kMaxSkipped);
    for (int i = 0; i < steps; ++i) pred = ring_.predecessor(pred);
    const Key from = ring_.id_of(pred);
    std::vector<Key> affected;
    auto collect = [this, &affected](const Key& lo_excl, const Key& hi_incl) {
      for (auto it = scatter_index_.upper_bound(lo_excl);
           it != scatter_index_.end() && it->first <= hi_incl; ++it) {
        affected.push_back(it->second);
      }
    };
    if (from == to) {
      for (const auto& [pos, key] : scatter_index_) affected.push_back(key);
    } else if (from < to) {
      collect(from, to);
    } else {
      collect(from, Key::max());
      for (auto it = scatter_index_.begin();
           it != scatter_index_.end() && it->first <= to; ++it) {
        affected.push_back(it->second);
      }
    }
    for (const Key& k : affected) {
      const store::BlockHandle h = map_.handle_of(k);
      if (store::BlockState* b = map_.at(h)) {
        target_replica_set(k, set);
        tally.add(reassign_block(k, h, *b, set, fetch_delay));
      }
    }
  }
  count_pass(tally);
}

// ------------------------------------------------------- load balancing --

void System::schedule_probe_due(int node, SimTime from) {
  // Jittered interval so probes don't synchronize. The jitter is drawn
  // right after the node's probe evaluation, so the tick's (due, node)
  // processing order fixes the probe-rng stream draw for draw.
  const auto jitter = static_cast<SimTime>(
      static_cast<double>(config_.probe_interval) * (0.5 + rng_.next_double()));
  const SimTime due = from + jitter;
  probe_buckets_[probe_epoch(due)].emplace_back(due, node);
}

void System::schedule_probe_tick() {
  D2_ASSERT(!probe_buckets_.empty());
  const std::int64_t epoch = probe_buckets_.begin()->first;
  // d2-sched: global — the commit tick batches probe work
  sim_.schedule_at(epoch * kProbeCommitInterval,
                   [this, epoch] { probe_commit_tick(epoch); });
}

void System::probe_commit_tick(std::int64_t epoch) {
  auto it = probe_buckets_.find(epoch);
  D2_ASSERT_MSG(it != probe_buckets_.end(),
                "probe tick fired for an empty calendar epoch");
  std::vector<std::pair<SimTime, int>> due = std::move(it->second);
  probe_buckets_.erase(it);
  // (due, node) order: node breaks the (measure-zero) due-time ties so
  // the batch order is deterministic. Each probe sees system state live
  // at the tick — that is the probe-commit semantics
  // (kProbeCommitInterval) — and draws from rng_ in this order.
  std::sort(due.begin(), due.end());
  for (const auto& [t, node] : due) {
    if (node_up(node)) probe_once(node);
    schedule_probe_due(node, t);
  }
  schedule_probe_tick();
}

void System::start_load_balancing() {
  if (!config_.active_load_balance) return;
  D2_REQUIRE_MSG(
      2 * kProbeCommitInterval <= config_.probe_interval,
      "probe_interval must be >= 2 * System::kProbeCommitInterval (a "
      "committed probe's next due time, at least half an interval out, "
      "must land in a later epoch than its tick)");
  for (int i = 0; i < config_.node_count; ++i) {
    schedule_probe_due(i, sim_.now());
  }
  if (!probe_buckets_.empty()) schedule_probe_tick();
}

bool System::probe_once(int prober) {
  if (ring_.size() < 2) return false;
  int other = prober;
  while (other == prober) {
    other = static_cast<int>(
        rng_.next_below(static_cast<std::uint64_t>(config_.node_count)));
  }
  if (!node_up(other)) return false;

  auto median_of = [this](int heavy) -> std::optional<Key> {
    const auto [from, to] = ring_.owned_arc(heavy);
    std::optional<Key> median = map_.median_primary_key(from, to);
    if (median && ring_.id_taken(*median)) return std::nullopt;
    return median;
  };
  std::optional<dht::MoveDecision> decision = balancer_.evaluate_probe(
      prober, map_.primary_count(prober), other, map_.primary_count(other),
      median_of);
  if (!decision) return false;
  if (!node_up(decision->light_node)) return false;
  execute_move(*decision);
  return true;
}

void System::execute_move(const dht::MoveDecision& decision) {
  ++lb_moves_;
  lb_moves_c_->add(1);
  balancer_.count_applied_move();
  if (tracer_ != nullptr) {
    tracer_->record(sim_.now(), obs::EventType::kLbMove, decision.light_node,
                    decision.heavy_node);
  }
  const int light = decision.light_node;
  const int old_successor = ring_.successor(light);
  ring_.move(light, decision.new_id);
  const SimTime fetch_delay =
      config_.use_pointers ? config_.pointer_stabilization : 0;
  // Keys around the light node's old position (its range fell to the old
  // successor) and around its new position (it took half of the heavy
  // node's range).
  readjust_arc(old_successor, fetch_delay);
  readjust_arc(light, fetch_delay);
  maybe_audit(/*sampled=*/false);
}

// -------------------------------------------------------------- failures --

void System::attach_failure_trace(const sim::FailureTrace* trace,
                                  SimTime offset) {
  D2_REQUIRE(trace != nullptr);
  D2_REQUIRE(trace->node_count() >= config_.node_count);
  failure_trace_ = trace;
  for (const sim::FailureTrace::Transition& t : trace->transitions()) {
    if (t.node >= config_.node_count) continue;
    const SimTime when = offset + t.time;
    if (when < sim_.now()) continue;
    if (t.up) {
      // d2-sched: global — up/down transitions mutate state every key reads
      sim_.schedule_at(when, [this, node = t.node] { on_node_up(node); });
    } else {
      // d2-sched: global — up/down transitions mutate state every key reads
      sim_.schedule_at(when, [this, node = t.node] { on_node_down(node); });
    }
  }
}

void System::on_node_down(int node) {
  nodes_[static_cast<std::size_t>(node)].up = false;
  if (tracer_ != nullptr) {
    tracer_->record(sim_.now(), obs::EventType::kNodeDown, node);
  }
  // Regenerate this node's blocks elsewhere only if it stays down past the
  // grace period (avoids churning on reboots).
  // d2-sched: global — regeneration readjusts a ring arc (many keys)
  sim_.schedule_after(config_.regen_delay, [this, node] {
    if (!nodes_[static_cast<std::size_t>(node)].up) {
      readjust_arc(node, 0);
      maybe_audit(/*sampled=*/false);
    }
  });
  maybe_audit(/*sampled=*/false);
}

void System::on_node_up(int node) {
  nodes_[static_cast<std::size_t>(node)].up = true;
  if (tracer_ != nullptr) {
    tracer_->record(sim_.now(), obs::EventType::kNodeUp, node);
  }
  // Shrink extended replica sets back to canonical and let this node catch
  // up on writes it missed.
  readjust_arc(node, 0);
  // Blocks that were extended while members were down may sit arbitrarily
  // far from this node's current ring position (load balancing moves ranks
  // around); re-canonicalize them all, in key order — the set is small.
  // Copied first: reassignment inserts into and erases from extended_.
  const std::vector<Key> extended(extended_.begin(), extended_.end());
  std::vector<int>& set = replica_set_scratch_;
  ReassignTally tally;
  for (const Key& k : extended) {
    const store::BlockHandle h = map_.handle_of(k);
    if (store::BlockState* b = map_.at(h)) {
      target_replica_set(k, set);
      tally.add(reassign_block(k, h, *b, set, 0));
    } else {
      extended_.erase(k);
    }
  }
  count_pass(tally);
  maybe_audit(/*sampled=*/false);
}

// -------------------------------------------------------------- metrics --

void System::export_metrics() {
  metrics_->gauge("store.block_map_bytes")
      .set(static_cast<double>(map_.allocated_bytes()));
}

void System::reset_traffic_counters() {
  user_write_bytes_ = 0;
  user_removed_bytes_ = 0;
  migration_bytes_ = 0;
  lb_moves_ = 0;
  user_write_bytes_c_->reset();
  user_removed_bytes_c_->reset();
  migration_bytes_c_->reset();
  lb_moves_c_->reset();
  replica_fetches_c_->reset();
  fetch_timers_c_->reset();
  fetch_timers_discarded_c_->reset();
  pointer_promotions_c_->reset();
  reassigned_blocks_c_->reset();
  replica_set_changes_c_->reset();
}

double System::load_imbalance() const {
  Stats s;
  for (int i = 0; i < config_.node_count; ++i) {
    s.add(static_cast<double>(map_.physical_bytes(i)));
  }
  if (s.mean() == 0) return 0.0;
  return s.normalized_stddev();
}

double System::max_over_mean_load() const {
  Stats s;
  for (int i = 0; i < config_.node_count; ++i) {
    s.add(static_cast<double>(map_.physical_bytes(i)));
  }
  if (s.mean() == 0) return 0.0;
  return s.max() / s.mean();
}

// ------------------------------------------------------------- auditing --

void System::check_invariants() const {
  ring_.check_invariants();
  map_.check_invariants();
  D2_ASSERT_MSG(ring_.size() == static_cast<std::size_t>(config_.node_count),
                "system: ring membership disagrees with node count");
  map_.for_each_block([this](const Key& k, const store::BlockState& b) {
    // §3 placement: the primary is always the ring owner of the key.
    // Readjustment restores this synchronously after every ID change,
    // so it holds whenever control returns to the event loop.
    D2_ASSERT_MSG(!b.replicas.empty() &&
                      b.replicas.front().node == ring_.owner(k),
                  "system: block primary is not the ring owner of its key");
    // A recorded fetch timer is the member's own pending timer: the one
    // try_fetch will act on, so it must still be wanted and queued.
    for (const store::Replica& r : b.replicas) {
      if (r.fetch_timer == sim::Simulator::kNoEvent) continue;
      D2_ASSERT_MSG(!r.has_data && !r.fetch_in_flight,
                    "system: fetch timer recorded for a member that has "
                    "data or a fetch in flight");
      D2_ASSERT_MSG(sim_.local_pending_time(r.fetch_timer) == r.fetch_due,
                    "system: recorded fetch timer is not pending as a "
                    "key-local event at the member's fetch_due");
    }
  });
  for (const Key& k : extended_) {
    D2_ASSERT_MSG(map_.contains(k),
                  "system: extended-set entry for a removed block");
  }
  for (const auto& [k, deadline] : expiry_) {
    D2_ASSERT_MSG(deadline > 0, "system: TTL entry with no deadline");
  }
}

void System::maybe_audit(bool sampled) {
  if (!kParanoid && !config_.paranoid_audits) return;
  if (sampled && !audit_gate_.due(map_.block_count())) return;
  check_invariants();
}

}  // namespace d2::core
