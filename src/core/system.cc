#include "core/system.h"

#include <algorithm>
#include <tuple>

#include "common/assert.h"
#include "common/lane.h"
#include "common/stats.h"
#include "dht/consistent_hash.h"

namespace d2::core {

namespace {
/// How far past the owner the replica scan may extend while skipping down
/// nodes, and therefore how many predecessors a readjustment arc covers.
int scan_cap(int replicas) { return replicas + 6; }
constexpr SimTime kFetchRetryDelay = minutes(10);
}  // namespace

int System::effective_replicas() const {
  return config_.redundancy == SystemConfig::Redundancy::kErasure
             ? config_.ec_total_fragments
             : config_.replicas;
}

bool System::erasure() const {
  return config_.redundancy == SystemConfig::Redundancy::kErasure;
}

System::System(const SystemConfig& config, sim::Simulator& sim,
               obs::Registry* metrics)
    : config_(config),
      sim_(sim),
      owned_metrics_(metrics == nullptr ? std::make_unique<obs::Registry>()
                                        : nullptr),
      metrics_(metrics == nullptr ? owned_metrics_.get() : metrics),
      rng_(config.seed),
      map_(config.node_count, config.arcs),
      expiry_(static_cast<std::size_t>(config.arcs)),
      extended_(static_cast<std::size_t>(config.arcs)),
      balancer_(dht::LoadBalanceConfig{config.lb_threshold, 4}),
      replica_set_scratch_(static_cast<std::size_t>(config.arcs) + 1),
      lane_audit_gates_(static_cast<std::size_t>(config.arcs)),
      user_write_bytes_sh_(static_cast<std::size_t>(config.arcs) + 1, 0),
      user_removed_bytes_sh_(static_cast<std::size_t>(config.arcs) + 1, 0),
      migration_bytes_sh_(static_cast<std::size_t>(config.arcs) + 1, 0),
      fetch_reservations_(static_cast<std::size_t>(config.arcs)) {
  D2_REQUIRE(config.node_count > 0);
  D2_REQUIRE(config.replicas > 0);
  D2_REQUIRE_MSG(config.arcs >= 1, "system needs at least one arc");
  D2_REQUIRE_MSG(config.arcs == sim.arcs(),
                 "system arc count must match the simulator's");
  D2_REQUIRE_MSG(config.arcs == 1 || config.scatter_replicas == 0,
                 "hybrid placement couples arbitrary keys across the ring "
                 "and requires a single arc");
  if (config.redundancy == SystemConfig::Redundancy::kErasure) {
    D2_REQUIRE(config.ec_data_fragments > 0);
    D2_REQUIRE(config.ec_total_fragments >= config.ec_data_fragments);
    D2_REQUIRE_MSG(config.scatter_replicas == 0,
                   "hybrid placement + erasure coding not supported together");
  }
  user_write_bytes_c_ = &metrics_->counter("system.user_write_bytes");
  user_removed_bytes_c_ = &metrics_->counter("system.user_removed_bytes");
  migration_bytes_c_ = &metrics_->counter("system.migration_bytes");
  lb_moves_c_ = &metrics_->counter("system.lb_moves");
  replica_fetches_c_ = &metrics_->counter("system.replica_fetches");
  fetch_timers_c_ = &metrics_->counter("system.fetch_timers");
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
  // Fetch reservations staged by arc lanes resolve at the simulator's
  // mode-independent commit points (see resolve_fetch_reservations).
  sim_.set_commit_hook([this] { resolve_fetch_reservations(); });
}

System::~System() { sim_.set_commit_hook({}); }

bool System::node_up(int node) const {
  D2_REQUIRE(node >= 0 && node < config_.node_count);
  return nodes_[static_cast<std::size_t>(node)].up;
}

// ------------------------------------------------------------ replicas --

Key System::scatter_position(const Key& k, int i) {
  return dht::hashed_key(k.hex() + "#scatter" + std::to_string(i));
}

int System::scattered_members() const {
  return erasure() ? 0
                   : std::min(config_.scatter_replicas, config_.replicas - 1);
}

void System::target_replica_set(const Key& k, std::vector<int>& out) const {
  successor_set(ring_.owner(k), out);
  append_scattered(k, out);
}

void System::successor_set(int owner, std::vector<int>& out) const {
  // The canonical successors of `owner` under the current up/down state,
  // extended past down nodes until enough up members are included
  // (bounded by scan_cap). With hybrid placement, the tail of the set
  // lives at consistent-hash positions instead (append_scattered).
  const int r = effective_replicas() - scattered_members();
  out.clear();
  const int cap = std::min<int>(static_cast<int>(ring_.size()), scan_cap(r));
  int node = owner;
  int up_count = 0;
  for (int i = 0; i < cap; ++i) {
    out.push_back(node);
    if (node_up(node)) ++up_count;
    if (up_count >= r && static_cast<int>(out.size()) >= r) break;
    node = ring_.successor(node);
  }
}

void System::append_scattered(const Key& k, std::vector<int>& out) const {
  // Scattered members: first non-duplicate node at each hashed position,
  // plus the next up one if it is down (mirroring the successor logic).
  const int scatter = scattered_members();
  for (int s = 0; s < scatter; ++s) {
    int candidate = ring_.owner(scatter_position(k, s));
    int steps = 0;
    bool added_up = false;
    while (steps < scan_cap(1) + static_cast<int>(out.size())) {
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
  const int scatter = scattered_members();
  for (int s = 0; s < scatter; ++s) {
    scatter_index_.emplace(scatter_position(k, s), k);
  }
}

void System::forget_scatter(const Key& k) {
  const int scatter = scattered_members();
  for (int s = 0; s < scatter; ++s) {
    const Key pos = scatter_position(k, s);
    auto [lo, hi] = scatter_index_.equal_range(pos);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == k) {
        scatter_index_.erase(it);
        break;
      }
    }
  }
}

std::vector<int> System::replica_nodes(const Key& k) const {
  const store::BlockState* b = map_.find(k);
  if (b == nullptr) return {};
  std::vector<int> out;
  out.reserve(b->replicas.size());
  for (const store::Replica& r : b->replicas) out.push_back(r.node);
  return out;
}

std::optional<int> System::fetch_source(const store::BlockState& b) const {
  for (const store::Replica& r : b.replicas) {
    if (r.has_data && node_up(r.node)) return r.node;
  }
  for (int n : b.stale_holders) {
    if (node_up(n)) return n;
  }
  return std::nullopt;
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

bool System::block_available(const Key& k) const {
  const store::BlockState* b = map_.find(k);
  if (b == nullptr) return false;
  if (erasure()) {
    // (n, k) coding: readable iff >= k fragments sit on up nodes (stale
    // holders still carry their fragment).
    return up_data_holders(*b) >= config_.ec_data_fragments;
  }
  bool responsible_up = false;
  for (const store::Replica& r : b->replicas) {
    if (!node_up(r.node)) continue;
    if (r.has_data) return true;
    responsible_up = true;
  }
  if (!responsible_up) return false;
  // A responsible (pointer-holding) node is up; it can redirect to any up
  // holder of the bytes.
  for (int n : b->stale_holders) {
    if (node_up(n)) return true;
  }
  return false;
}

std::optional<int> System::serving_node(const Key& k) const {
  const store::BlockState* b = map_.find(k);
  if (b == nullptr) return std::nullopt;
  if (erasure()) {
    // A read fans out to k fragment holders; report the primary-most one.
    if (up_data_holders(*b) < config_.ec_data_fragments) return std::nullopt;
  }
  for (const store::Replica& r : b->replicas) {
    if (r.has_data && node_up(r.node)) return r.node;
  }
  bool responsible_up = false;
  for (const store::Replica& r : b->replicas) {
    if (node_up(r.node)) responsible_up = true;
  }
  if (responsible_up) {
    for (int n : b->stale_holders) {
      if (node_up(n)) return n;
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------- puts --

void System::put_at(const Key& k, Bytes size, SimTime t) {
  D2_REQUIRE(size >= 0);
  D2_REQUIRE_MSG(t >= sim_.now(), "op time must not precede the clock");
  D2_ASSERT_OWNER_LANE(map_.arc_of(k));
  add_user_write_bytes(size);
  bool fresh_key = true;
  if (const store::BlockState* existing = map_.find(k)) {
    // In-place update (the mutable root block, or a webcache version
    // replacement): the previous version's bytes are discarded.
    add_user_removed_bytes(existing->size);
    fresh_key = false;  // scatter-index entries stay valid
    if (existing->size != size) {
      map_.erase(k);
    } else {
      refresh_at(k, t);
      return;
    }
  }
  std::vector<int>& set = replica_set_scratch_[shard_slot()];
  target_replica_set(k, set);
  const Bytes member_bytes =
      erasure() ? (size + config_.ec_data_fragments - 1) / config_.ec_data_fragments
                : size;
  map_.insert(k, size, set, member_bytes);
  note_set_shape(k, set.size());
  // A write cannot land on a down member; it catches up on recovery.
  for (int n : set) {
    if (!node_up(n)) map_.mark_missing(k, n);
  }
  if (fresh_key && config_.scatter_replicas > 0) register_scatter(k);
  refresh_at(k, t);
  maybe_audit(/*sampled=*/true);
}

void System::remove_at(const Key& k, SimTime t) {
  D2_REQUIRE_MSG(t >= sim_.now(), "op time must not precede the clock");
  // Key-local event: runs on the arc that owns `k`, touching only that
  // arc's shards.
  // d2-sched: arc-local — delayed remove touches only k's shard
  sim_.schedule_arc_at(map_.arc_of(k), t + config_.remove_delay, [this, k] {
    D2_ASSERT_OWNER_LANE(map_.arc_of(k));
    if (const store::BlockState* b = map_.find(k)) {
      add_user_removed_bytes(b->size);
      map_.erase(k);
      expiry_shard(k).erase(k);
      extended_shard(k).erase(k);
      if (config_.scatter_replicas > 0) forget_scatter(k);
      maybe_audit(/*sampled=*/true);
    }
  });
}

void System::refresh_at(const Key& k, SimTime t) {
  if (config_.block_ttl <= 0) return;
  if (!map_.contains(k)) return;
  D2_ASSERT_OWNER_LANE(map_.arc_of(k));
  const SimTime deadline = t + config_.block_ttl;
  expiry_shard(k)[k] = deadline;
  // Deadline-check pattern (arc events are not cancellable): a later
  // refresh bumps the shard entry and this event becomes a no-op.
  // d2-sched: arc-local — TTL expiry touches only k's shard
  sim_.schedule_arc_at(map_.arc_of(k), deadline, [this, k, deadline] {
    D2_ASSERT_OWNER_LANE(map_.arc_of(k));
    auto& shard = expiry_shard(k);
    auto it = shard.find(k);
    if (it == shard.end() || it->second != deadline) return;  // refreshed
    if (const store::BlockState* b = map_.find(k)) {
      add_user_removed_bytes(b->size);
      if (tracer_ != nullptr) {
        tracer_->record(sim_.now(), obs::EventType::kBlockExpired, b->size);
      }
      map_.erase(k);
      extended_shard(k).erase(k);
      if (config_.scatter_replicas > 0) forget_scatter(k);
    }
    shard.erase(it);
  });
}

// -------------------------------------------------------------- fetches --

void System::schedule_fetch(const Key& k, store::Replica& member,
                            SimTime due) {
  member.fetch_due = due;
  fetch_timers_c_->add(1);
  // Arc-local by construction: the timer fires on the key's shard (block
  // lookup + replica flags); the only shared state it would touch — the
  // node's migration link — is reached through the reservation relay.
  // Callable from the coordinator (readjustment) or from the key's own
  // lane (retry path).
  // d2-sched: arc-local — fetch timer for k runs on k's arc
  sim_.schedule_arc_at(map_.arc_of(k), due,
                       [this, k, node = member.node] { try_fetch(k, node); });
}

void System::try_fetch(const Key& k, int node) {
  D2_ASSERT_OWNER_LANE(map_.arc_of(k));
  store::BlockState* b = map_.find_mutable(k);
  if (b == nullptr) return;  // removed meanwhile
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
  D2_DCHECK(!member->has_data && !member->fetch_in_flight);
  if (!node_up(node)) return;  // recovery readjustment will reschedule
  const SimTime retry_at = sim_.now() + kFetchRetryDelay;
  Bytes transfer_bytes;
  if (erasure()) {
    // Regenerating one fragment requires reading k others (the classic
    // erasure-coding repair penalty, §3's "cost of ... complexity").
    if (up_data_holders(*b) < config_.ec_data_fragments) {
      schedule_fetch(k, *member, retry_at);  // not reconstructible yet
      return;
    }
    transfer_bytes = b->member_bytes * config_.ec_data_fragments;
  } else {
    if (!fetch_source(*b).has_value()) {
      schedule_fetch(k, *member, retry_at);  // no up source; retry
      return;
    }
    transfer_bytes = b->size;
  }
  member->fetch_in_flight = true;
  migration_bytes_sh_[shard_slot()] += transfer_bytes;
  migration_bytes_c_->add(transfer_bytes);
  replica_fetches_c_->add(1);
  if (tracer_ != nullptr) {
    tracer_->record(sim_.now(), obs::EventType::kReplicaFetch, node,
                    transfer_bytes);
  }
  // The migration link is shared FIFO state (any key whose replica lands
  // on `node` queues here), so a lane must not enqueue directly: stage a
  // reservation under the *key's* arc — the same slot in serial and
  // parallel execution — and let the commit hook resolve it in the
  // canonical (t, arc, seq) order.
  fetch_reservations_[static_cast<std::size_t>(map_.arc_of(k))].push_back(
      FetchReservation{sim_.now(), k, node, transfer_bytes});
}

void System::resolve_fetch_reservations() {
  fetch_refs_.clear();
  for (int arc = 0; arc < config_.arcs; ++arc) {
    const auto& staged = fetch_reservations_[static_cast<std::size_t>(arc)];
    for (std::uint32_t seq = 0; seq < staged.size(); ++seq) {
      fetch_refs_.push_back(FetchRef{staged[seq].t, arc, seq});
    }
  }
  if (fetch_refs_.empty()) return;
  // (t, arc, seq) is a total order and identical across arcs/workers
  // settings: per-arc event order is mode-independent, so each arc's
  // staging sequence is too. Commit points only ever see reservations
  // from the windows since the previous commit, whose times all follow
  // the previous batch's — batch-local sorting therefore yields the same
  // per-link enqueue sequence as one global sort.
  std::sort(fetch_refs_.begin(), fetch_refs_.end(),
            [](const FetchRef& a, const FetchRef& b) {
              if (a.t != b.t) return a.t < b.t;
              if (a.arc != b.arc) return a.arc < b.arc;
              return a.seq < b.seq;
            });
  for (const FetchRef& ref : fetch_refs_) {
    const FetchReservation& r =
        fetch_reservations_[static_cast<std::size_t>(ref.arc)][ref.seq];
    const SimTime done = nodes_[static_cast<std::size_t>(r.node)]
                             .migration_link.enqueue(r.t, r.bytes);
    // The link may have been idle, finishing the transfer before the
    // coordinator clock; completions still must not run in the past.
    const SimTime at = std::max(done, sim_.now());
    // d2-sched: arc-local — completion touches only k's shard
    sim_.schedule_arc_at(map_.arc_of(r.k), at,
                         [this, k = r.k, node = r.node] { finish_fetch(k, node); });
  }
  for (auto& staged : fetch_reservations_) staged.clear();
}

void System::finish_fetch(const Key& k, int node) {
  store::BlockState* blk = map_.find_mutable(k);
  if (blk == nullptr) return;
  for (store::Replica& r : blk->replicas) {
    if (r.node == node) {
      if (!r.has_data && r.fetch_in_flight) {
        map_.mark_data(k, node);
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
  D2_ASSERT_OWNER_LANE(map_.arc_of(k));
  if (static_cast<int>(set_size) != effective_replicas()) {
    extended_shard(k).insert(k);
  } else {
    extended_shard(k).erase(k);
  }
}

// Preconditions (non-empty set, `b` is k's state, owner lane) are enforced
// by BlockMap::reassign_replicas.  d2-lint: allow(unguarded-mutator)
bool System::reassign_block(const Key& k, store::BlockState& b,
                            const std::vector<int>& set, SimTime fetch_delay) {
  note_set_shape(k, set.size());
  const bool changed = map_.reassign_replicas(k, b, set, sim_.now());
  for (store::Replica& r : b.replicas) {
    if (r.has_data || r.fetch_in_flight) continue;
    // A down member's timer finds it down and lapses; its recovery
    // readjustment arms the real fetch.
    const SimTime due = sim_.now() + (node_up(r.node) ? fetch_delay : 0);
    if (due < r.fetch_due) schedule_fetch(k, r, due);
  }
  return changed;
}

void System::count_pass(const ReassignTally& tally) {
  reassigned_blocks_c_->add(tally.blocks);
  replica_set_changes_c_->add(tally.changed);
}

void System::readjust_arc(int around_node, SimTime fetch_delay) {
  if (map_.block_count() == 0) return;
  // Cover every key whose replica scan can reach `around_node`.
  int pred = around_node;
  const int steps = std::min<int>(static_cast<int>(ring_.size()) - 1,
                                  scan_cap(effective_replicas()));
  for (int i = 0; i < steps; ++i) pred = ring_.predecessor(pred);
  const Key from = ring_.id_of(pred);
  const Key to = ring_.id_of(around_node);
  ReassignTally tally;
  // One walk in key order, reassigning each block where it is stored, so
  // fetch timers are armed in key order. The successor part of a target
  // set depends only on the key's owner and on which nodes are up, and
  // neither changes during the walk: it is computed once per owned
  // segment (seg_from, seg_to], and each key's scattered members are
  // appended to it.
  std::vector<int>& set = replica_set_scratch_[shard_slot()];
  std::size_t successors = 0;
  int owner = -1;
  Key seg_from;
  Key seg_to;
  map_.for_each_in_arc(from, to, [&](const Key& k, store::BlockState& b) {
    if (owner < 0 || !Key::in_arc(k, seg_from, seg_to)) {
      owner = ring_.owner(k);
      std::tie(seg_from, seg_to) = ring_.owned_arc(owner);
      successor_set(owner, set);
      successors = set.size();
    }
    set.resize(successors);  // drop the previous key's scattered members
    append_scattered(k, set);
    tally.add(reassign_block(k, b, set, fetch_delay));
  });
  if (!scatter_index_.empty()) {
    // Blocks with a scattered replica anchored in this arc are affected
    // too (hybrid placement).
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
      if (store::BlockState* b = map_.find_mutable(k)) {
        target_replica_set(k, set);
        tally.add(reassign_block(k, *b, set, fetch_delay));
      }
    }
  }
  count_pass(tally);
}

// ------------------------------------------------------- load balancing --

void System::schedule_probe(int node) {
  if (config_.probe_commit_interval > 0) {
    schedule_probe_due(node, sim_.now());
    return;
  }
  // Legacy path: one global event per probe. Jittered interval so probes
  // don't synchronize.
  const auto jitter = static_cast<SimTime>(
      static_cast<double>(config_.probe_interval) * (0.5 + rng_.next_double()));
  // d2-sched: global — probes read ring/rng/primary counts across arcs
  sim_.schedule_after(jitter, [this, node] {
    if (node_up(node)) probe_once(node);
    schedule_probe(node);
  });
}

void System::schedule_probe_due(int node, SimTime from) {
  // Same jittered cadence as the legacy path — and, crucially, the same
  // rng draw position: the jitter is drawn right after the node's probe
  // evaluation, so the serial probe-rng stream is reproduced draw for
  // draw by the tick's (due, node) processing order.
  const auto jitter = static_cast<SimTime>(
      static_cast<double>(config_.probe_interval) * (0.5 + rng_.next_double()));
  const SimTime due = from + jitter;
  probe_buckets_[probe_epoch(due)].emplace_back(due, node);
}

void System::schedule_probe_tick() {
  D2_ASSERT(!probe_buckets_.empty());
  const std::int64_t epoch = probe_buckets_.begin()->first;
  // d2-sched: global — the commit tick batches cross-arc probe work
  sim_.schedule_at(epoch * config_.probe_commit_interval,
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
  // at the tick — that is the probe-commit semantics (config.h) — but
  // draws from rng_ in exactly the per-probe order the legacy path used.
  std::sort(due.begin(), due.end());
  for (const auto& [t, node] : due) {
    if (node_up(node)) probe_once(node);
    schedule_probe_due(node, t);
  }
  schedule_probe_tick();
}

void System::start_load_balancing() {
  if (!config_.active_load_balance) return;
  if (config_.probe_commit_interval > 0) {
    D2_REQUIRE_MSG(
        2 * config_.probe_commit_interval <= config_.probe_interval,
        "probe_commit_interval must be <= probe_interval / 2 (a committed "
        "probe's next due time, at least half an interval out, must land "
        "in a later epoch than its tick); set it to 0 for the legacy "
        "per-probe scheduling");
  }
  for (int i = 0; i < config_.node_count; ++i) schedule_probe(i);
  if (config_.probe_commit_interval > 0 && !probe_buckets_.empty()) {
    schedule_probe_tick();
  }
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
      // d2-sched: global — up/down transitions mutate state every arc reads
      sim_.schedule_at(when, [this, node = t.node] { on_node_up(node); });
    } else {
      // d2-sched: global — up/down transitions mutate state every arc reads
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
  // d2-sched: global — regeneration readjusts a ring arc (cross-arc keys)
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
  // around); re-canonicalize them all — the set is small. Shards visited
  // in arc order enumerate keys ascending, the pre-sharding order.
  std::vector<Key> extended;
  for (const std::set<Key>& shard : extended_) {
    extended.insert(extended.end(), shard.begin(), shard.end());
  }
  std::vector<int>& set = replica_set_scratch_[shard_slot()];
  ReassignTally tally;
  for (const Key& k : extended) {
    if (store::BlockState* b = map_.find_mutable(k)) {
      target_replica_set(k, set);
      tally.add(reassign_block(k, *b, set, 0));
    } else {
      extended_shard(k).erase(k);
    }
  }
  count_pass(tally);
  maybe_audit(/*sampled=*/false);
}

// -------------------------------------------------------------- metrics --

void System::reset_traffic_counters() {
  std::fill(user_write_bytes_sh_.begin(), user_write_bytes_sh_.end(), 0);
  std::fill(user_removed_bytes_sh_.begin(), user_removed_bytes_sh_.end(), 0);
  std::fill(migration_bytes_sh_.begin(), migration_bytes_sh_.end(), 0);
  lb_moves_ = 0;
  user_write_bytes_c_->reset();
  user_removed_bytes_c_->reset();
  migration_bytes_c_->reset();
  lb_moves_c_->reset();
  replica_fetches_c_->reset();
  fetch_timers_c_->reset();
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
  });
  // Partition-local bookkeeping must be filed under the owning arc —
  // the bijection the lane-confinement rules rest on (DESIGN.md §9).
  for (int a = 0; a < config_.arcs; ++a) {
    const auto arc_i = static_cast<std::size_t>(a);
    for (const Key& k : extended_[arc_i]) {
      D2_ASSERT_MSG(map_.contains(k),
                    "system: extended-set entry for a removed block");
      D2_ASSERT_MSG(map_.arc_of(k) == a,
                    "system: extended-set entry filed in a shard that does "
                    "not own its key");
    }
    for (const auto& [k, deadline] : expiry_[arc_i]) {
      D2_ASSERT_MSG(map_.arc_of(k) == a,
                    "system: TTL entry filed in a shard that does not own "
                    "its key");
      D2_ASSERT_MSG(deadline > 0, "system: TTL entry with no deadline");
    }
  }
}

void System::maybe_audit(bool sampled) {
  if (!kParanoid && !config_.paranoid_audits) return;
  if (sim_.in_lane()) {
    // Lane context: the ring and the other arcs' slices belong to other
    // threads; audit only this lane's slice, paced by its own gate.
    const int arc = sim_.lane_arc();
    if (sampled &&
        !lane_audit_gates_[static_cast<std::size_t>(arc)].due(
            map_.slice_block_count(arc))) {
      return;
    }
    map_.check_slice_invariants(arc);
    return;
  }
  if (sampled && !audit_gate_.due(map_.block_count())) return;
  check_invariants();
}

}  // namespace d2::core
