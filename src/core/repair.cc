#include "core/repair.h"

#include <algorithm>
#include <array>
#include <bitset>

#include "common/assert.h"
#include "common/lane.h"

namespace d2::core {

namespace {

/// Real payload bytes carried per block through the codec, kept small so
/// large runs fit in memory (traffic and storage accounting use
/// RepairConfig::block_size). An rs-6-3 fragment is 22 bytes.
constexpr Bytes kPayloadBytes = 128;

bool stale_contains(const store::BlockState& b, int node) {
  return std::find(b.stale_holders.begin(), b.stale_holders.end(), node) !=
         b.stale_holders.end();
}

store::Replica* find_member(store::BlockState& b, int node) {
  for (store::Replica& r : b.replicas) {
    if (r.node == node) return &r;
  }
  return nullptr;
}

}  // namespace

RepairEngine::RepairEngine(const RepairConfig& config, sim::Simulator& sim)
    : cfg_(config),
      sim_(sim),
      rng_(config.seed),
      latency_(config.node_count, rng_, config.mean_rtt_ms),
      tcp_(),
      map_(config.node_count, config.arcs),
      codec_(config.erasure ? config.ec_data_fragments : 1,
             config.erasure ? config.ec_parity_fragments
                            : config.replicas - 1),
      frag_shards_(static_cast<std::size_t>(config.arcs)) {
  D2_REQUIRE_MSG(cfg_.node_count >= n(),
                 "repair: need at least k + m nodes to place a block");
  D2_REQUIRE(cfg_.block_size > 0);
  D2_REQUIRE(cfg_.repair_bandwidth > 0);
  D2_REQUIRE(cfg_.data_loss_fraction >= 0.0 && cfg_.data_loss_fraction <= 1.0);
  frag_traffic_bytes_ = (cfg_.block_size + k() - 1) / k();
  frag_payload_len_ = codec_.fragment_bytes(kPayloadBytes);
  for (int node = 0; node < cfg_.node_count; ++node) {
    Key id = Key::random(rng_);
    while (ring_.id_taken(id)) id = Key::random(rng_);
    ring_.add(node, id);
  }
  up_.assign(static_cast<std::size_t>(cfg_.node_count), 1);
  links_.assign(static_cast<std::size_t>(cfg_.node_count),
                sim::BandwidthLink(cfg_.repair_bandwidth));
}

std::vector<std::uint8_t> RepairEngine::payload_of(const Key& key) const {
  // Pure function of (key, seed): the original block contents can always
  // be re-derived, which is what lets every reconstruction be verified
  // against a fresh encode of the true payload.
  Rng pr(key.limb(0) ^ (key.limb(7) * 0x9e3779b97f4a7c15ull) ^ cfg_.seed);
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(kPayloadBytes));
  std::size_t i = 0;
  while (i < payload.size()) {
    std::uint64_t w = pr.next_u64();
    for (int b = 0; b < 8 && i < payload.size(); ++b, ++i) {
      payload[i] = static_cast<std::uint8_t>(w >> (8 * b));
    }
  }
  return payload;
}

RepairEngine::FragSet& RepairEngine::frag_set(const Key& key) {
  D2_ASSERT_OWNER_LANE(map_.arc_of(key));
  return frag_shards_[static_cast<std::size_t>(map_.arc_of(key))][key];
}

const RepairEngine::FragSet* RepairEngine::find_frag_set(const Key& key) const {
  const auto& shard = frag_shards_[static_cast<std::size_t>(map_.arc_of(key))];
  const auto it = shard.find(key);
  return it == shard.end() ? nullptr : &it->second;
}

void RepairEngine::target_replica_set(const Key& key,
                                      std::vector<int>& out) const {
  ring_.successors(ring_.owner(key), n(),
                   [this](int node) { return node_up(node); }, out);
}

bool RepairEngine::write_block(const Key& key, SimTime now, bool in_lane) {
  std::vector<int> set;
  target_replica_set(key, set);
  int up_members = 0;
  for (int node : set) {
    if (node_up(node)) ++up_members;
  }
  if (up_members < k()) {
    // Not enough reachable members to protect the data at all: the write
    // fails rather than creating a block that is unrecoverable at birth.
    D2_ASSERT_MSG(!in_lane, "populate requires every node up");
    ++writes_failed_;
    return false;
  }
  map_.insert(key, cfg_.block_size, set, frag_traffic_bytes_);
  std::vector<std::vector<std::uint8_t>> encoded =
      codec_.encode(payload_of(key));
  FragSet& fs = frag_set(key);
  int next_index = 0;
  for (int node : set) {
    if (node_up(node) && next_index < n()) {
      fs.frags.push_back(
          Frag{next_index, node, std::move(encoded[
              static_cast<std::size_t>(next_index)])});
      ++next_index;
    } else {
      map_.mark_missing(key, node);
    }
  }
  if (!in_lane) {
    user_write_bytes_ += cfg_.block_size;
    // Degraded at birth only if fewer than n fragments could be placed:
    // the target set extends past down nodes, so a write can carry a
    // down, data-less member and still be fully protected by n up ones.
    if (next_index < n()) {
      degraded_since_.emplace(key, now);
      // The members lacking data are down (no transition will fire for
      // them); give the block its own detect-delay re-protection pass.
      // d2-sched: global — RepairEngine runs an unpartitioned serial sim
      sim_.schedule_after(cfg_.detect_delay, [this, key] {
        if (dead_.count(key) == 0) {
          reconcile(key);
          maybe_audit();
        }
      });
    }
    maybe_audit();
  }
  return true;
}

void RepairEngine::populate(std::int64_t count) {
  D2_REQUIRE(count >= 0);
  for (int node = 0; node < cfg_.node_count; ++node) {
    D2_REQUIRE_MSG(node_up(node), "populate requires every node up");
  }
  std::vector<Key> planned;
  planned.reserve(static_cast<std::size_t>(count));
  std::set<Key> used;
  for (std::int64_t i = 0; i < count; ++i) {
    Key key = Key::random(rng_);
    while (map_.contains(key) || !used.insert(key).second) {
      key = Key::random(rng_);
    }
    planned.push_back(key);
  }
  // Each lane inserts the keys its arc owns, in generation order: the
  // resulting state is identical for any arc/worker setting, and the
  // encode work parallelizes across workers.
  const SimTime now = sim_.now();
  sim_.run_arc_phase([this, &planned, now](int arc) {
    for (const Key& key : planned) {
      if (map_.arc_of(key) == arc) write_block(key, now, /*in_lane=*/true);
    }
  });
  user_write_bytes_ += count * cfg_.block_size;
  maybe_audit();
}

void RepairEngine::attach_failure_trace(const sim::FailureTrace& trace) {
  D2_REQUIRE_MSG(trace.node_count() == cfg_.node_count,
                 "failure trace node count mismatch");
  for (const sim::FailureTrace::Transition& tr : trace.transitions()) {
    const int node = tr.node;
    if (tr.up) {
      // d2-sched: global — up/down transitions mutate cross-node state
      sim_.schedule_at(tr.time, [this, node] { on_node_up(node); });
    } else {
      // Drawn here, not at event time, so the loss outcome depends only
      // on the trace — never on event interleaving.
      const bool lose = rng_.bernoulli(cfg_.data_loss_fraction);
      // d2-sched: global — up/down transitions mutate cross-node state
      sim_.schedule_at(tr.time, [this, node, lose] {
        on_node_down(node, lose);
      });
    }
  }
}

void RepairEngine::start_foreground_writes(double writes_per_node_per_day,
                                           SimTime until) {
  D2_REQUIRE(writes_per_node_per_day > 0);
  writes_until_ = until;
  write_mean_us_ = 24.0 * 3600e6 / writes_per_node_per_day;
  for (int node = 0; node < cfg_.node_count; ++node) {
    schedule_next_write(node);
  }
}

void RepairEngine::schedule_next_write(int node) {
  const SimTime next =
      sim_.now() + static_cast<SimTime>(rng_.exponential(write_mean_us_));
  if (next > writes_until_) return;
  // d2-sched: global — RepairEngine runs an unpartitioned serial sim
  sim_.schedule_at(next, [this, node] { do_foreground_write(node); });
}

void RepairEngine::do_foreground_write(int node) {
  if (node_up(node)) {
    Key key = Key::random(rng_);
    while (map_.contains(key)) key = Key::random(rng_);
    write_block(key, sim_.now(), /*in_lane=*/false);
  }
  schedule_next_write(node);
}

int RepairEngine::intact_indices(const Key& key) const {
  const FragSet* fs = find_frag_set(key);
  if (fs == nullptr) return 0;
  std::bitset<256> seen;
  for (const Frag& f : fs->frags) seen.set(static_cast<std::size_t>(f.index));
  return static_cast<int>(seen.count());
}

int RepairEngine::live_indices(const store::BlockState& b,
                               const FragSet& fs) const {
  // Only fragments on up *members* count as protection; copies on stale
  // or detached holders are recovery sources, not redundancy (a member
  // holding a fragment always has has_data by the sidecar invariant).
  std::bitset<256> seen;
  for (const Frag& f : fs.frags) {
    if (node_up(f.node) && b.is_replica(f.node)) {
      seen.set(static_cast<std::size_t>(f.index));
    }
  }
  return static_cast<int>(seen.count());
}

bool RepairEngine::pick_sources(const Key& key, int exclude_node,
                                std::vector<const Frag*>& out) const {
  out.clear();
  const FragSet* fs = find_frag_set(key);
  if (fs == nullptr) return false;
  int last_index = -1;
  for (const Frag& f : fs->frags) {  // sorted by (index, node)
    if (f.index == last_index) continue;
    if (f.node == exclude_node || !node_up(f.node)) continue;
    out.push_back(&f);
    last_index = f.index;
    if (static_cast<int>(out.size()) == k()) return true;
  }
  return false;
}

void RepairEngine::mark_dead(const Key& key) {
  D2_DCHECK_MSG(intact_indices(key) < k(),
                "mark_dead on a block with >= k intact fragments");
  if (!dead_.insert(key).second) return;
  // A dead block's degradation episode never closes; it is excluded from
  // MTTR and counted by durability instead.
  degraded_since_.erase(key);
}

void RepairEngine::update_episode(const Key& key,
                                  const store::BlockState& b) {
  const FragSet* fs = find_frag_set(key);
  const int live = fs == nullptr ? 0 : live_indices(b, *fs);
  const auto it = degraded_since_.find(key);
  if (live >= n()) {
    if (it != degraded_since_.end()) {
      mttr_s_.add(to_seconds(sim_.now() - it->second));
      degraded_since_.erase(it);
    }
    return;
  }
  if (it == degraded_since_.end() && dead_.count(key) == 0) {
    degraded_since_.emplace(key, sim_.now());
  }
}

void RepairEngine::sync_frags(const Key& key, const store::BlockState& b) {
  FragSet& fs = frag_set(key);
  std::array<int, 256> copies{};
  for (const Frag& f : fs.frags) ++copies[static_cast<std::size_t>(f.index)];
  const int live = live_indices(b, fs);
  std::vector<Frag> kept;
  kept.reserve(fs.frags.size());
  for (Frag& f : fs.frags) {
    const bool attached = b.is_replica(f.node) || stale_contains(b, f.node);
    if (attached) {
      kept.push_back(std::move(f));
      continue;
    }
    // Detached holder (its node was dropped from the set). Keep the
    // fragment only while it is the sole copy of its index and the block
    // is not fully protected — dropping a sole copy could push the block
    // below k recoverable fragments.
    const bool sole = copies[static_cast<std::size_t>(f.index)] == 1;
    if (sole && live < n()) {
      kept.push_back(std::move(f));
      continue;
    }
    const auto oit = orphans_.find(f.node);
    if (oit != orphans_.end()) oit->second.erase(key);
  }
  fs.frags = std::move(kept);
  for (const Frag& f : fs.frags) {
    const bool attached = b.is_replica(f.node) || stale_contains(b, f.node);
    if (attached) {
      const auto oit = orphans_.find(f.node);
      if (oit != orphans_.end()) oit->second.erase(key);
    } else {
      orphans_[f.node].insert(key);
    }
  }
}

void RepairEngine::on_node_down(int node, bool lose_data) {
  up_[static_cast<std::size_t>(node)] = 0;
  scratch_keys_.clear();
  map_.for_each_block([&](const Key& key, const store::BlockState& b) {
    if (b.is_replica(node) || stale_contains(b, node)) {
      scratch_keys_.push_back(key);
    }
  });
  if (lose_data) {
    // Disk loss: every fragment stored on the node is gone, including
    // detached (orphan) copies kept alive only for recoverability.
    const auto oit = orphans_.find(node);
    if (oit != orphans_.end()) {
      for (const Key& key : oit->second) scratch_keys_.push_back(key);
      oit->second.clear();
    }
  }
  for (const Key& key : scratch_keys_) {
    store::BlockState* b = map_.find_mutable(key);
    if (b == nullptr) continue;
    if (lose_data) {
      FragSet& fs = frag_set(key);
      const auto split = std::remove_if(
          fs.frags.begin(), fs.frags.end(),
          [node](const Frag& f) { return f.node == node; });
      fs.frags.erase(split, fs.frags.end());
      if (b->is_replica(node)) {
        if (b->node_has_data(node)) map_.mark_missing(key, node);
      } else {
        // Stale or detached holder: its physical copy is gone too.
        map_.drop_stale(key, node);
      }
      if (dead_.count(key) == 0 && intact_indices(key) < k()) mark_dead(key);
    }
    if (dead_.count(key) == 0) update_episode(key, *b);
  }
  // d2-sched: global — RepairEngine runs an unpartitioned serial sim
  sim_.schedule_after(cfg_.detect_delay, [this, node] {
    if (!node_up(node)) repair_scan(node);
  });
  maybe_audit();
}

void RepairEngine::repair_scan(int node) {
  scratch_keys_.clear();
  map_.for_each_block([&](const Key& key, const store::BlockState& b) {
    if (b.is_replica(node)) scratch_keys_.push_back(key);
  });
  const std::vector<Key> keys = scratch_keys_;
  for (const Key& key : keys) {
    if (dead_.count(key) == 0) reconcile(key);
  }
  maybe_audit();
}

void RepairEngine::on_node_up(int node) {
  up_[static_cast<std::size_t>(node)] = 1;
  scratch_keys_.clear();
  map_.for_each_block([&](const Key& key, const store::BlockState& b) {
    if (b.is_replica(node) || stale_contains(b, node)) {
      scratch_keys_.push_back(key);
    }
  });
  const std::vector<Key> keys = scratch_keys_;
  for (const Key& key : keys) {
    if (dead_.count(key) == 0) reconcile(key);
  }
  maybe_audit();
}

void RepairEngine::reconcile(const Key& key) {
  store::BlockState* b = map_.find_mutable(key);
  if (b == nullptr || dead_.count(key) != 0) return;
  target_replica_set(key, scratch_set_);
  map_.reassign_replicas(key, scratch_set_);
  // A member rejoining without the stale-holder fast path may still
  // physically hold its old fragment (kept as a detached sole copy):
  // reattach it rather than scheduling a redundant reconstruction.
  {
    const FragSet& fs = frag_set(key);
    for (const store::Replica& r : b->replicas) {
      if (r.has_data) continue;
      for (const Frag& f : fs.frags) {
        if (f.node == r.node) {
          map_.mark_data(key, r.node);
          break;
        }
      }
    }
  }
  sync_frags(key, *b);
  for (store::Replica& r : b->replicas) {
    if (node_up(r.node) && !r.has_data && !r.fetch_in_flight &&
        inflight_.count({key, r.node}) == 0) {
      start_repair(key, r.node);
    }
  }
  // A rebuilt fragment can duplicate an index whose original holder later
  // rejoined the set: every member then holds data, yet some index is
  // live only on a detached holder (or nowhere up) and the per-member
  // loop above has nothing to repair. Re-target the duplicate holders so
  // the member set converges to n distinct indices.
  if (live_indices(*b, frag_set(key)) < n()) {
    std::bitset<256> seen;
    std::vector<int> dup_nodes;
    for (const Frag& f : frag_set(key).frags) {
      if (!node_up(f.node) || !b->is_replica(f.node) ||
          !b->node_has_data(f.node)) {
        continue;
      }
      if (seen.test(static_cast<std::size_t>(f.index))) {
        dup_nodes.push_back(f.node);
      } else {
        seen.set(static_cast<std::size_t>(f.index));
      }
    }
    for (int node : dup_nodes) {
      if (inflight_.count({key, node}) != 0) continue;
      map_.mark_missing(key, node);
      FragSet& fs = frag_set(key);
      for (auto it = fs.frags.begin(); it != fs.frags.end(); ++it) {
        if (it->node == node) {
          fs.frags.erase(it);
          break;
        }
      }
      start_repair(key, node);
    }
  }
  update_episode(key, *b);
  // No audit here: reconcile runs inside the on_node_up / repair_scan
  // batch loops, where episode bookkeeping for not-yet-visited keys
  // legitimately lags the up_ flip — callers audit once the batch is
  // consistent again.
}

void RepairEngine::start_repair(const Key& key, int node) {
  store::BlockState* b = map_.find_mutable(key);
  D2_ASSERT(b != nullptr);
  store::Replica* r = find_member(*b, node);
  D2_ASSERT(r != nullptr);
  std::vector<const Frag*> sources;
  if (!pick_sources(key, node, sources)) {
    if (intact_indices(key) >= k()) {
      // Recoverable, but some needed fragment sits on a down node: back
      // off and retry once its holder may have returned.
      ++repair_retries_;
      // d2-sched: global — RepairEngine runs an unpartitioned serial sim
      sim_.schedule_after(cfg_.retry_delay, [this, key, node] {
        retry_repair(key, node);
      });
    }
    return;
  }
  // Cost model: the destination pulls k fragments in parallel — latency
  // is the slowest source's TCP slow-start RTTs, and the bytes serialize
  // through the destination's repair-bandwidth budget.
  const SimTime now = sim_.now();
  SimTime lat = 0;
  for (const Frag* f : sources) {
    const int rtts = tcp_.transfer_rtts(f->node, node, now,
                                        frag_traffic_bytes_);
    lat = std::max(lat, rtts * latency_.rtt(f->node, node));
  }
  const Bytes total = static_cast<Bytes>(k()) * frag_traffic_bytes_;
  const SimTime link_done =
      links_[static_cast<std::size_t>(node)].enqueue(now, total);
  const SimTime finish = std::max(now + lat, link_done);
  for (const Frag* f : sources) tcp_.touch(f->node, node, finish);
  r->fetch_in_flight = true;
  inflight_.insert({key, node});
  repair_bytes_ += total;
  ++repairs_started_;
  // d2-sched: global — RepairEngine runs an unpartitioned serial sim
  sim_.schedule_at(finish, [this, key, node] { finish_repair(key, node); });
}

void RepairEngine::retry_repair(const Key& key, int node) {
  store::BlockState* b = map_.find_mutable(key);
  if (b == nullptr || dead_.count(key) != 0) return;
  store::Replica* r = find_member(*b, node);
  if (r == nullptr || !node_up(node) || r->has_data || r->fetch_in_flight ||
      inflight_.count({key, node}) != 0) {
    return;
  }
  start_repair(key, node);
}

void RepairEngine::finish_repair(const Key& key, int node) {
  inflight_.erase({key, node});
  store::BlockState* b = map_.find_mutable(key);
  if (b == nullptr) return;
  store::Replica* r = find_member(*b, node);
  if (r != nullptr) r->fetch_in_flight = false;
  if (dead_.count(key) != 0) return;
  if (r == nullptr || !node_up(node) || r->has_data) {
    // Membership moved on or the target died mid-transfer; the next
    // down-scan or reconcile of this block reissues what is still needed.
    return;
  }
  std::vector<const Frag*> sources;
  if (!pick_sources(key, node, sources)) {
    if (intact_indices(key) >= k()) {
      ++repair_retries_;
      // d2-sched: global — RepairEngine runs an unpartitioned serial sim
      sim_.schedule_after(cfg_.retry_delay, [this, key, node] {
        retry_repair(key, node);
      });
    }
    return;
  }
  // Rebuild the lowest fragment index not held by an up member (a copy
  // on a stale holder is only a source — it does not protect the block).
  const FragSet& fs = frag_set(key);
  std::bitset<256> live_idx;
  for (const Frag& f : fs.frags) {
    if (node_up(f.node) && b->is_replica(f.node)) {
      live_idx.set(static_cast<std::size_t>(f.index));
    }
  }
  int target = -1;
  for (int i = 0; i < n(); ++i) {
    if (!live_idx.test(static_cast<std::size_t>(i))) {
      target = i;
      break;
    }
  }
  if (target < 0) {
    // Every fragment already lives on an up member: nothing to rebuild.
    update_episode(key, *b);
    return;
  }
  std::vector<int> indices;
  std::vector<const std::uint8_t*> bytes;
  indices.reserve(sources.size());
  bytes.reserve(sources.size());
  for (const Frag* f : sources) {
    indices.push_back(f->index);
    bytes.push_back(f->bytes.data());
  }
  std::vector<std::uint8_t> rebuilt =
      codec_.reconstruct(indices, bytes, frag_payload_len_, target);
  // End-to-end codec check on every repair: reconstruction from whatever
  // k fragments survived must equal a fresh encode of the true payload.
  const std::vector<std::vector<std::uint8_t>> expected =
      codec_.encode(payload_of(key));
  D2_ASSERT_MSG(rebuilt == expected[static_cast<std::size_t>(target)],
                "repair: reconstructed fragment mismatches original encoding");
  ++verified_;
  FragSet& mut_fs = frag_set(key);
  Frag nf{target, node, std::move(rebuilt)};
  const auto pos = std::upper_bound(
      mut_fs.frags.begin(), mut_fs.frags.end(), nf,
      [](const Frag& a, const Frag& f) {
        return a.index != f.index ? a.index < f.index : a.node < f.node;
      });
  mut_fs.frags.insert(pos, std::move(nf));
  map_.mark_data(key, node);  // may prune stale holders
  sync_frags(key, *b);
  ++repairs_completed_;
  update_episode(key, *b);
  maybe_audit();
}

RepairStats RepairEngine::snapshot() const {
  RepairStats s;
  s.blocks = map_.block_count();
  s.blocks_lost = dead_.size();
  s.repair_bytes = repair_bytes_;
  s.user_write_bytes = user_write_bytes_;
  s.repairs_started = repairs_started_;
  s.repairs_completed = repairs_completed_;
  s.repair_retries = repair_retries_;
  s.verified_reconstructions = verified_;
  s.writes_failed = writes_failed_;
  s.mttr_episodes = mttr_s_.count();
  s.mttr_mean_s = mttr_s_.empty() ? 0.0 : mttr_s_.mean();
  s.mttr_p99_s = mttr_s_.empty() ? 0.0 : mttr_s_.percentile(99.0);
  s.open_episodes = degraded_since_.size();
  return s;
}

void RepairEngine::maybe_audit() {
  if (!kParanoid) return;
  if (audit_gate_.due(map_.block_count())) check_invariants();
}

void RepairEngine::check_invariants() const {
  ring_.check_invariants();
  map_.check_invariants();
  Bytes link_bytes = 0;
  for (const sim::BandwidthLink& l : links_) link_bytes += l.total_bytes();
  D2_ASSERT_MSG(link_bytes == repair_bytes_,
                "repair: budget-link bytes diverge from repair accounting");
  std::size_t inflight_flags = 0;
  std::size_t frag_blocks = 0;
  map_.for_each_block([&](const Key& key, const store::BlockState& b) {
    const FragSet* fs = find_frag_set(key);
    D2_ASSERT_MSG(fs != nullptr, "repair: block missing its fragment set");
    ++frag_blocks;
    const bool dead = dead_.count(key) != 0;
    std::bitset<256> indices;
    std::array<int, 256> copies{};
    int last_index = -1;
    int last_node = -1;
    std::vector<char> holder(static_cast<std::size_t>(cfg_.node_count), 0);
    for (const Frag& f : fs->frags) {
      D2_ASSERT_MSG(f.index >= 0 && f.index < n(),
                    "repair: fragment index out of range");
      D2_ASSERT_MSG(f.node >= 0 && f.node < cfg_.node_count,
                    "repair: fragment node out of range");
      D2_ASSERT_MSG(
          f.bytes.size() == static_cast<std::size_t>(frag_payload_len_),
          "repair: fragment has wrong payload length");
      D2_ASSERT_MSG(f.index > last_index ||
                        (f.index == last_index && f.node > last_node),
                    "repair: fragment set out of (index, node) order");
      last_index = f.index;
      last_node = f.node;
      indices.set(static_cast<std::size_t>(f.index));
      ++copies[static_cast<std::size_t>(f.index)];
      D2_ASSERT_MSG(holder[static_cast<std::size_t>(f.node)] == 0,
                    "repair: node holds two fragments of one block");
      holder[static_cast<std::size_t>(f.node)] = 1;
    }
    for (const store::Replica& r : b.replicas) {
      D2_ASSERT_MSG(r.has_data ==
                        (holder[static_cast<std::size_t>(r.node)] != 0),
                    "repair: member data flag diverges from fragment set");
      if (r.fetch_in_flight) {
        ++inflight_flags;
        D2_ASSERT_MSG(inflight_.count({key, r.node}) != 0,
                      "repair: in-flight member not tracked in repair queue");
      }
    }
    const int live = live_indices(b, *fs);
    for (const Frag& f : fs->frags) {
      const bool attached = b.is_replica(f.node) || stale_contains(b, f.node);
      if (!attached) {
        D2_ASSERT_MSG(copies[static_cast<std::size_t>(f.index)] == 1,
                      "repair: detached fragment duplicates a held index");
        D2_ASSERT_MSG(live < n(),
                      "repair: fully protected block keeps detached fragment");
        const auto oit = orphans_.find(f.node);
        D2_ASSERT_MSG(oit != orphans_.end() && oit->second.count(key) != 0,
                      "repair: detached fragment missing from orphan index");
      }
    }
    const int intact = static_cast<int>(indices.count());
    if (dead) {
      D2_ASSERT_MSG(intact < k(), "repair: dead block is recoverable");
    } else {
      D2_ASSERT_MSG(intact >= k(), "repair: live block below k fragments");
    }
    const auto eit = degraded_since_.find(key);
    if (eit != degraded_since_.end()) {
      D2_ASSERT_MSG(!dead, "repair: dead block has an open episode");
      D2_ASSERT_MSG(live < n(),
                    "repair: fully protected block has an open episode");
    } else if (!dead) {
      D2_ASSERT_MSG(live >= n(),
                    "repair: degraded block has no open episode");
    }
  });
  std::size_t sidecar_blocks = 0;
  for (const auto& shard : frag_shards_) {
    sidecar_blocks += shard.size();
  }
  D2_ASSERT_MSG(sidecar_blocks == frag_blocks,
                "repair: fragment sidecar holds unknown blocks");
  for (const auto& [key, node] : inflight_) {
    D2_ASSERT_MSG(map_.contains(key),
                  "repair: queue entry references unknown block");
    D2_ASSERT_MSG(node >= 0 && node < cfg_.node_count,
                  "repair: queue entry node out of range");
  }
  D2_ASSERT_MSG(inflight_flags <= inflight_.size(),
                "repair: more in-flight flags than queue entries");
  for (const auto& [node, keys] : orphans_) {
    for (const Key& key : keys) {
      const FragSet* fs = find_frag_set(key);
      bool found = false;
      if (fs != nullptr) {
        for (const Frag& f : fs->frags) found |= f.node == node;
      }
      D2_ASSERT_MSG(found, "repair: orphan index entry without a fragment");
    }
  }
  for (const auto& [key, since] : degraded_since_) {
    D2_ASSERT_MSG(map_.contains(key),
                  "repair: episode references unknown block");
    D2_ASSERT_MSG(since <= sim_.now(), "repair: episode starts in the future");
  }
}

DurabilityResult run_durability(const DurabilityParams& params) {
  sim::ArcConfig ac;
  ac.arcs = params.repair.arcs;
  ac.workers = params.arc_workers;
  ac.lookahead = 0;
  ac.scheduler = params.repair.scheduler;
  sim::Simulator sim(ac);
  RepairEngine engine(params.repair, sim);
  engine.populate(static_cast<std::int64_t>(params.blocks_per_node) *
                  params.repair.node_count);
  sim::FailureParams fp = params.failure;
  fp.node_count = params.repair.node_count;
  Rng trace_rng(params.failure_seed);
  const sim::FailureTrace trace = sim::FailureTrace::generate(fp, trace_rng);
  engine.attach_failure_trace(trace);
  if (params.writes_per_node_per_day > 0) {
    engine.start_foreground_writes(params.writes_per_node_per_day,
                                   fp.duration);
  }
  sim.run_until(fp.duration + params.drain);
  engine.check_invariants();
  DurabilityResult result;
  result.stats = engine.snapshot();
  result.events = sim.events_processed();
  result.unrecoverable_fraction =
      result.stats.blocks == 0
          ? 0.0
          : static_cast<double>(result.stats.blocks_lost) /
                static_cast<double>(result.stats.blocks);
  result.l_over_w =
      result.stats.user_write_bytes == 0
          ? 0.0
          : static_cast<double>(result.stats.repair_bytes) /
                static_cast<double>(result.stats.user_write_bytes);
  return result;
}

}  // namespace d2::core
