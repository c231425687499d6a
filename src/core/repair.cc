#include "core/repair.h"

#include <algorithm>
#include <array>
#include <bitset>

#include "common/assert.h"

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

/// RepairStats as repair.* instruments: counts as counters (added, so
/// runs sharing a registry sum), the MTTR figures as gauges.
void export_metrics(const RepairStats& s, obs::Registry& m) {
  const auto count = [&m](const char* name, std::uint64_t v) {
    m.counter(name).add(static_cast<std::int64_t>(v));
  };
  count("repair.blocks", s.blocks);
  count("repair.blocks_lost", s.blocks_lost);
  count("repair.repair_bytes", static_cast<std::uint64_t>(s.repair_bytes));
  count("repair.user_write_bytes",
        static_cast<std::uint64_t>(s.user_write_bytes));
  count("repair.repairs_started", s.repairs_started);
  count("repair.repairs_completed", s.repairs_completed);
  count("repair.repair_retries", s.repair_retries);
  count("repair.verified_reconstructions", s.verified_reconstructions);
  count("repair.writes_failed", s.writes_failed);
  count("repair.mttr_episodes", s.mttr_episodes);
  count("repair.open_episodes", s.open_episodes);
  count("repair.node_event_blocks", s.node_event_blocks);
  m.gauge("repair.mttr_mean_s").set(s.mttr_mean_s);
  m.gauge("repair.mttr_p99_s").set(s.mttr_p99_s);
}

}  // namespace

RepairEngine::RepairEngine(const RepairConfig& config, sim::Simulator& sim)
    : cfg_(config),
      sim_(sim),
      rng_(config.seed),
      latency_(config.node_count, rng_, config.mean_rtt_ms),
      tcp_(),
      map_(config.node_count),
      codec_(config.erasure ? config.ec_data_fragments : 1,
             config.erasure ? config.ec_parity_fragments
                            : config.replicas - 1),
      node_blocks_(static_cast<std::size_t>(config.node_count)) {
  sim::require_serial_engine(cfg_.arcs, 1);
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

void RepairEngine::target_replica_set(const Key& key,
                                      std::vector<int>& out) const {
  ring_.successors(ring_.owner(key), n(),
                   [this](int node) { return node_up(node); }, out);
}

void RepairEngine::index_add(int node, store::BlockHandle h) {
  std::vector<store::BlockHandle>& list =
      node_blocks_[static_cast<std::size_t>(node)];
  const auto pos = std::lower_bound(
      list.begin(), list.end(), record(h).key,
      [this](store::BlockHandle x, const Key& k) { return record(x).key < k; });
  D2_DCHECK_MSG(pos == list.end() || !(*pos == h),
                "repair: block indexed twice under one node");
  list.insert(pos, h);
}

void RepairEngine::index_remove(int node, store::BlockHandle h) {
  std::vector<store::BlockHandle>& list =
      node_blocks_[static_cast<std::size_t>(node)];
  const auto pos = std::lower_bound(
      list.begin(), list.end(), record(h).key,
      [this](store::BlockHandle x, const Key& k) { return record(x).key < k; });
  D2_ASSERT_MSG(pos != list.end() && *pos == h,
                "repair: node index lacks a block its node held");
  list.erase(pos);
}

void RepairEngine::holders_of(const store::BlockState& b,
                              std::vector<int>& out) {
  out.clear();
  for (const store::Replica& r : b.replicas) out.push_back(r.node);
  out.insert(out.end(), b.stale_holders.begin(), b.stale_holders.end());
}

void RepairEngine::reindex(store::BlockHandle h,
                           const std::vector<int>& before) {
  // A node is never both member and stale holder, so each list holds a
  // block at most once.
  holders_of(state(h), scratch_after_);
  for (int node : before) {
    if (std::find(scratch_after_.begin(), scratch_after_.end(), node) ==
        scratch_after_.end()) {
      index_remove(node, h);
    }
  }
  for (int node : scratch_after_) {
    if (std::find(before.begin(), before.end(), node) == before.end()) {
      index_add(node, h);
    }
  }
}

store::BlockHandle RepairEngine::place_block(const Key& key,
                                             const std::vector<int>& set) {
  const store::BlockHandle h =
      map_.insert(key, cfg_.block_size, set, frag_traffic_bytes_);
  D2_ASSERT_MSG(h.slot() == records_.size(),
                "repair: a new block's slab slot is not the next record");
  Record& rec = records_.emplace_back();
  rec.key = key;
  std::vector<std::vector<std::uint8_t>> encoded =
      codec_.encode(payload_of(key));
  int next_index = 0;
  for (int node : set) {
    if (node_up(node) && next_index < n()) {
      rec.frags.push_back(
          Frag{next_index, node, std::move(encoded[
              static_cast<std::size_t>(next_index)])});
      ++next_index;
    } else {
      map_.mark_missing(key, node);
    }
  }
  return h;
}

bool RepairEngine::write_block(const Key& key, SimTime now) {
  std::vector<int> set;
  target_replica_set(key, set);
  int up_members = 0;
  for (int node : set) {
    if (node_up(node)) ++up_members;
  }
  if (up_members < k()) {
    // Not enough reachable members to protect the data at all: the write
    // fails rather than creating a block that is unrecoverable at birth.
    ++writes_failed_;
    return false;
  }
  const store::BlockHandle h = place_block(key, set);
  for (int node : set) index_add(node, h);
  user_write_bytes_ += cfg_.block_size;
  // Degraded at birth only if fewer than n fragments could be placed:
  // the target set extends past down nodes, so a write can carry a
  // down, data-less member and still be fully protected by n up ones.
  Record& rec = record(h);
  if (static_cast<int>(rec.frags.size()) < n()) {
    rec.degraded_since = now;
    ++open_episodes_;
    // The members lacking data are down (no transition will fire for
    // them); give the block its own detect-delay re-protection pass.
    auto detect = [this, h] {
      if (!record(h).dead) {
        reconcile(h);
        maybe_audit();
      }
    };
    static_assert(sim::kFitsInlineEvent<decltype(detect)>,
                  "repair closures must fit their event slot");
    // d2-sched: global — every repair event is global
    sim_.schedule_after(cfg_.detect_delay, detect);
  }
  maybe_audit();
  return true;
}

void RepairEngine::populate(std::int64_t count) {
  D2_REQUIRE(count >= 0);
  for (int node = 0; node < cfg_.node_count; ++node) {
    D2_REQUIRE_MSG(node_up(node), "populate requires every node up");
  }
  // Every node is up, so each block lands whole on its n members. The
  // new blocks are indexed afterwards, in one pass.
  const std::size_t first_new = records_.size();
  std::vector<int> set;
  for (std::int64_t i = 0; i < count; ++i) {
    Key key = Key::random(rng_);
    while (map_.contains(key)) key = Key::random(rng_);
    target_replica_set(key, set);
    place_block(key, set);
  }
  // The walk is in key order and so hands each node its new blocks
  // sorted: one walk sizes the lists, a second appends, and a merge
  // places each appended run among the node's earlier entries.
  auto for_each_new_holding = [&](auto&& fn) {
    map_.for_each_in_arc(
        Key::min(), Key::min(),
        [&](const Key&, store::BlockHandle h, store::BlockState& b) {
          if (h.slot() < first_new) return;
          for (const store::Replica& r : b.replicas) {
            fn(static_cast<std::size_t>(r.node), h);
          }
        });
  };
  std::vector<std::size_t> old_size;
  for (const std::vector<store::BlockHandle>& list : node_blocks_) {
    old_size.push_back(list.size());
  }
  std::vector<std::size_t> new_size = old_size;
  for_each_new_holding(
      [&](std::size_t node, store::BlockHandle) { ++new_size[node]; });
  for (std::size_t node = 0; node < node_blocks_.size(); ++node) {
    node_blocks_[node].reserve(new_size[node]);
  }
  for_each_new_holding([this](std::size_t node, store::BlockHandle h) {
    node_blocks_[node].push_back(h);
  });
  for (std::size_t node = 0; node < node_blocks_.size(); ++node) {
    std::vector<store::BlockHandle>& list = node_blocks_[node];
    std::inplace_merge(
        list.begin(),
        list.begin() + static_cast<std::ptrdiff_t>(old_size[node]),
        list.end(), [this](store::BlockHandle x, store::BlockHandle y) {
          return record(x).key < record(y).key;
        });
  }
  user_write_bytes_ += count * cfg_.block_size;
  maybe_audit();
}

void RepairEngine::attach_failure_trace(const sim::FailureTrace& trace) {
  D2_REQUIRE_MSG(trace.node_count() == cfg_.node_count,
                 "failure trace node count mismatch");
  for (const sim::FailureTrace::Transition& tr : trace.transitions()) {
    const int node = tr.node;
    if (tr.up) {
      auto up = [this, node] { on_node_up(node); };
      static_assert(sim::kFitsInlineEvent<decltype(up)>,
                    "repair closures must fit their event slot");
      // d2-sched: global — every repair event is global
      sim_.schedule_at(tr.time, up);
    } else {
      // Drawn here, not at event time, so the loss outcome depends only
      // on the trace — never on event interleaving.
      const bool lose = rng_.bernoulli(cfg_.data_loss_fraction);
      auto down = [this, node, lose] { on_node_down(node, lose); };
      static_assert(sim::kFitsInlineEvent<decltype(down)>,
                    "repair closures must fit their event slot");
      // d2-sched: global — every repair event is global
      sim_.schedule_at(tr.time, down);
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
  auto write = [this, node] { do_foreground_write(node); };
  static_assert(sim::kFitsInlineEvent<decltype(write)>,
                "repair closures must fit their event slot");
  // d2-sched: global — every repair event is global
  sim_.schedule_at(next, write);
}

void RepairEngine::do_foreground_write(int node) {
  if (node_up(node)) {
    Key key = Key::random(rng_);
    while (map_.contains(key)) key = Key::random(rng_);
    write_block(key, sim_.now());
  }
  schedule_next_write(node);
}

int RepairEngine::intact_indices(const std::vector<Frag>& frags) {
  std::bitset<256> seen;
  for (const Frag& f : frags) seen.set(static_cast<std::size_t>(f.index));
  return static_cast<int>(seen.count());
}

int RepairEngine::live_indices(const store::BlockState& b,
                               const std::vector<Frag>& frags) const {
  // Only fragments on up *members* count as protection; copies on stale
  // or detached holders are recovery sources, not redundancy (a member
  // holding a fragment always has has_data by the fragment invariant).
  std::bitset<256> seen;
  for (const Frag& f : frags) {
    if (node_up(f.node) && b.is_replica(f.node)) {
      seen.set(static_cast<std::size_t>(f.index));
    }
  }
  return static_cast<int>(seen.count());
}

bool RepairEngine::pick_sources(const std::vector<Frag>& frags,
                                int exclude_node,
                                std::vector<const Frag*>& out) const {
  out.clear();
  int last_index = -1;
  for (const Frag& f : frags) {  // sorted by (index, node)
    if (f.index == last_index) continue;
    if (f.node == exclude_node || !node_up(f.node)) continue;
    out.push_back(&f);
    last_index = f.index;
    if (static_cast<int>(out.size()) == k()) return true;
  }
  return false;
}

void RepairEngine::mark_dead(Record& rec) {
  D2_DCHECK_MSG(intact_indices(rec.frags) < k(),
                "mark_dead on a block with >= k intact fragments");
  if (rec.dead) return;
  rec.dead = true;
  ++dead_blocks_;
  // A dead block's degradation episode never closes; it is excluded from
  // MTTR and counted by durability instead.
  if (rec.degraded_since != kNoEpisode) {
    rec.degraded_since = kNoEpisode;
    --open_episodes_;
  }
}

void RepairEngine::update_episode(Record& rec, const store::BlockState& b) {
  if (live_indices(b, rec.frags) >= n()) {
    if (rec.degraded_since != kNoEpisode) {
      mttr_s_.add(to_seconds(sim_.now() - rec.degraded_since));
      rec.degraded_since = kNoEpisode;
      --open_episodes_;
    }
    return;
  }
  if (rec.degraded_since == kNoEpisode && !rec.dead) {
    rec.degraded_since = sim_.now();
    ++open_episodes_;
  }
}

void RepairEngine::sync_frags(Record& rec, const store::BlockState& b) {
  std::array<int, 256> copies{};
  for (const Frag& f : rec.frags) ++copies[static_cast<std::size_t>(f.index)];
  const int live = live_indices(b, rec.frags);
  std::vector<Frag> kept;
  kept.reserve(rec.frags.size());
  for (Frag& f : rec.frags) {
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
    if (oit != orphans_.end()) oit->second.erase(rec.key);
  }
  rec.frags = std::move(kept);
  for (const Frag& f : rec.frags) {
    const bool attached = b.is_replica(f.node) || stale_contains(b, f.node);
    if (attached) {
      const auto oit = orphans_.find(f.node);
      if (oit != orphans_.end()) oit->second.erase(rec.key);
    } else {
      orphans_[f.node].insert(rec.key);
    }
  }
}

void RepairEngine::on_node_down(int node, bool lose_data) {
  up_[static_cast<std::size_t>(node)] = 0;
  // Key order, then on a disk loss the node's orphans in key order.
  const std::vector<store::BlockHandle>& held =
      node_blocks_[static_cast<std::size_t>(node)];
  scratch_blocks_.assign(held.begin(), held.end());
  if (lose_data) {
    // Disk loss: every fragment stored on the node is gone, including
    // detached (orphan) copies kept alive only for recoverability.
    const auto oit = orphans_.find(node);
    if (oit != orphans_.end()) {
      for (const Key& key : oit->second) {
        scratch_blocks_.push_back(map_.handle_of(key));
      }
      oit->second.clear();
    }
  }
  node_event_blocks_ += scratch_blocks_.size();
  for (const store::BlockHandle h : scratch_blocks_) {
    Record& rec = record(h);
    store::BlockState& b = state(h);
    if (lose_data) {
      std::erase_if(rec.frags,
                    [node](const Frag& f) { return f.node == node; });
      if (b.is_replica(node)) {
        if (b.node_has_data(node)) map_.mark_missing(rec.key, node);
      } else if (stale_contains(b, node)) {
        // Stale holder: its physical copy is gone too.
        map_.drop_stale(rec.key, node);
        index_remove(node, h);
      }
      if (!rec.dead && intact_indices(rec.frags) < k()) mark_dead(rec);
    }
    if (!rec.dead) update_episode(rec, b);
  }
  auto detect = [this, node] {
    if (!node_up(node)) repair_scan(node);
  };
  static_assert(sim::kFitsInlineEvent<decltype(detect)>,
                "repair closures must fit their event slot");
  // d2-sched: global — every repair event is global
  sim_.schedule_after(cfg_.detect_delay, detect);
  maybe_audit();
}

void RepairEngine::repair_scan(int node) {
  const std::vector<store::BlockHandle>& held =
      node_blocks_[static_cast<std::size_t>(node)];
  node_event_blocks_ += held.size();
  scratch_blocks_.clear();
  for (const store::BlockHandle h : held) {
    if (state(h).is_replica(node)) scratch_blocks_.push_back(h);
  }
  for (const store::BlockHandle h : scratch_blocks_) {
    if (!record(h).dead) reconcile(h);
  }
  maybe_audit();
}

void RepairEngine::on_node_up(int node) {
  up_[static_cast<std::size_t>(node)] = 1;
  const std::vector<store::BlockHandle>& held =
      node_blocks_[static_cast<std::size_t>(node)];
  scratch_blocks_.assign(held.begin(), held.end());
  node_event_blocks_ += scratch_blocks_.size();
  for (const store::BlockHandle h : scratch_blocks_) {
    if (!record(h).dead) reconcile(h);
  }
  maybe_audit();
}

void RepairEngine::reconcile(store::BlockHandle h) {
  Record& rec = record(h);
  if (rec.dead) return;
  store::BlockState& b = state(h);
  holders_of(b, scratch_holders_);
  target_replica_set(rec.key, scratch_set_);
  map_.reassign_replicas(rec.key, b, scratch_set_);
  // A member rejoining without the stale-holder fast path may still
  // physically hold its old fragment (kept as a detached sole copy):
  // reattach it rather than scheduling a redundant reconstruction.
  for (const store::Replica& r : b.replicas) {
    if (r.has_data) continue;
    for (const Frag& f : rec.frags) {
      if (f.node == r.node) {
        map_.mark_data(h, b, r.node);
        break;
      }
    }
  }
  reindex(h, scratch_holders_);
  sync_frags(rec, b);
  for (const store::Replica& r : b.replicas) {
    if (node_up(r.node) && !r.has_data && !r.fetch_in_flight &&
        inflight_.count({rec.key, r.node}) == 0) {
      start_repair(h, r.node);
    }
  }
  // A rebuilt fragment can duplicate an index whose original holder later
  // rejoined the set: every member then holds data, yet some index is
  // live only on a detached holder (or nowhere up) and the per-member
  // loop above has nothing to repair. Re-target the duplicate holders so
  // the member set converges to n distinct indices.
  if (live_indices(b, rec.frags) < n()) {
    std::bitset<256> seen;
    std::vector<int> dup_nodes;
    for (const Frag& f : rec.frags) {
      if (!node_up(f.node) || !b.is_replica(f.node) ||
          !b.node_has_data(f.node)) {
        continue;
      }
      if (seen.test(static_cast<std::size_t>(f.index))) {
        dup_nodes.push_back(f.node);
      } else {
        seen.set(static_cast<std::size_t>(f.index));
      }
    }
    for (int node : dup_nodes) {
      if (inflight_.count({rec.key, node}) != 0) continue;
      map_.mark_missing(rec.key, node);
      for (auto it = rec.frags.begin(); it != rec.frags.end(); ++it) {
        if (it->node == node) {
          rec.frags.erase(it);
          break;
        }
      }
      start_repair(h, node);
    }
  }
  update_episode(rec, b);
  // No audit here: reconcile runs inside the on_node_up / repair_scan
  // batch loops, where episode bookkeeping for not-yet-visited blocks
  // legitimately lags the up_ flip — callers audit once the batch is
  // consistent again.
}

void RepairEngine::start_repair(store::BlockHandle h, int node) {
  const Record& rec = record(h);
  store::Replica* r = find_member(state(h), node);
  D2_ASSERT(r != nullptr);
  std::vector<const Frag*>& sources = scratch_sources_;
  if (!pick_sources(rec.frags, node, sources)) {
    if (intact_indices(rec.frags) >= k()) {
      // Recoverable, but some needed fragment sits on a down node: back
      // off and retry once its holder may have returned.
      ++repair_retries_;
      auto retry = [this, h, node] { retry_repair(h, node); };
      static_assert(sim::kFitsInlineEvent<decltype(retry)>,
                    "repair closures must fit their event slot");
      // d2-sched: global — every repair event is global
      sim_.schedule_after(cfg_.retry_delay, retry);
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
  inflight_.insert({rec.key, node});
  repair_bytes_ += total;
  ++repairs_started_;
  auto done = [this, h, node] { finish_repair(h, node); };
  static_assert(sim::kFitsInlineEvent<decltype(done)>,
                "repair closures must fit their event slot");
  // d2-sched: global — every repair event is global
  sim_.schedule_at(finish, done);
}

void RepairEngine::retry_repair(store::BlockHandle h, int node) {
  const Record& rec = record(h);
  if (rec.dead) return;
  const store::Replica* r = find_member(state(h), node);
  if (r == nullptr || !node_up(node) || r->has_data || r->fetch_in_flight ||
      inflight_.count({rec.key, node}) != 0) {
    return;
  }
  start_repair(h, node);
}

void RepairEngine::finish_repair(store::BlockHandle h, int node) {
  Record& rec = record(h);
  inflight_.erase({rec.key, node});
  store::BlockState& b = state(h);
  store::Replica* r = find_member(b, node);
  if (r != nullptr) r->fetch_in_flight = false;
  if (rec.dead) return;
  if (r == nullptr || !node_up(node) || r->has_data) {
    // Membership moved on or the target died mid-transfer; the next
    // down-scan or reconcile of this block reissues what is still needed.
    return;
  }
  std::vector<const Frag*>& sources = scratch_sources_;
  if (!pick_sources(rec.frags, node, sources)) {
    if (intact_indices(rec.frags) >= k()) {
      ++repair_retries_;
      auto retry = [this, h, node] { retry_repair(h, node); };
      static_assert(sim::kFitsInlineEvent<decltype(retry)>,
                    "repair closures must fit their event slot");
      // d2-sched: global — every repair event is global
      sim_.schedule_after(cfg_.retry_delay, retry);
    }
    return;
  }
  // Rebuild the lowest fragment index not held by an up member (a copy
  // on a stale holder is only a source — it does not protect the block).
  std::bitset<256> live_idx;
  for (const Frag& f : rec.frags) {
    if (node_up(f.node) && b.is_replica(f.node)) {
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
    update_episode(rec, b);
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
      codec_.encode(payload_of(rec.key));
  D2_ASSERT_MSG(rebuilt == expected[static_cast<std::size_t>(target)],
                "repair: reconstructed fragment mismatches original encoding");
  ++verified_;
  Frag nf{target, node, std::move(rebuilt)};
  const auto pos = std::upper_bound(
      rec.frags.begin(), rec.frags.end(), nf,
      [](const Frag& a, const Frag& f) {
        return a.index != f.index ? a.index < f.index : a.node < f.node;
      });
  rec.frags.insert(pos, std::move(nf));
  holders_of(b, scratch_holders_);
  map_.mark_data(h, b, node);  // may prune stale holders
  reindex(h, scratch_holders_);
  sync_frags(rec, b);
  ++repairs_completed_;
  update_episode(rec, b);
  maybe_audit();
}

RepairStats RepairEngine::snapshot() const {
  RepairStats s;
  s.blocks = map_.block_count();
  s.blocks_lost = dead_blocks_;
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
  s.open_episodes = open_episodes_;
  s.node_event_blocks = node_event_blocks_;
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
  // Blocks are never erased, so the map's slab has one slot per block.
  D2_ASSERT_MSG(records_.size() == map_.block_count(),
                "repair: records out of step with the block map's slots");
  std::size_t inflight_flags = 0;
  std::size_t dead_blocks = 0;
  std::size_t open_episodes = 0;
  std::size_t holdings = 0;  // (node, block) pairs: members + stale holders
  map_.for_each_block([&](const Key& key, const store::BlockState& b) {
    const Record& rec = record(map_.handle_of(key));
    D2_ASSERT_MSG(rec.key == key, "repair: record names another block");
    holdings += b.replicas.size() + b.stale_holders.size();
    std::bitset<256> indices;
    std::array<int, 256> copies{};
    int last_index = -1;
    int last_node = -1;
    std::vector<char> holder(static_cast<std::size_t>(cfg_.node_count), 0);
    for (const Frag& f : rec.frags) {
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
    const int live = live_indices(b, rec.frags);
    for (const Frag& f : rec.frags) {
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
    if (rec.dead) {
      ++dead_blocks;
      D2_ASSERT_MSG(intact < k(), "repair: dead block is recoverable");
    } else {
      D2_ASSERT_MSG(intact >= k(), "repair: live block below k fragments");
    }
    if (rec.degraded_since != kNoEpisode) {
      ++open_episodes;
      D2_ASSERT_MSG(!rec.dead, "repair: dead block has an open episode");
      D2_ASSERT_MSG(live < n(),
                    "repair: fully protected block has an open episode");
      D2_ASSERT_MSG(rec.degraded_since <= sim_.now(),
                    "repair: episode starts in the future");
    } else if (!rec.dead) {
      D2_ASSERT_MSG(live >= n(),
                    "repair: degraded block has no open episode");
    }
  });
  D2_ASSERT_MSG(dead_blocks == dead_blocks_,
                "repair: dead-block counter diverges from the records");
  D2_ASSERT_MSG(open_episodes == open_episodes_,
                "repair: open-episode counter diverges from the records");
  std::size_t indexed = 0;
  for (int node = 0; node < cfg_.node_count; ++node) {
    const std::vector<store::BlockHandle>& list =
        node_blocks_[static_cast<std::size_t>(node)];
    for (std::size_t i = 0; i < list.size(); ++i) {
      const store::BlockHandle h = list[i];
      const store::BlockState* b = map_.at(h);
      D2_ASSERT_MSG(b != nullptr, "repair: node index names no block");
      D2_ASSERT_MSG(b->is_replica(node) || stale_contains(*b, node),
                    "repair: node index lists a block its node does not hold");
      D2_ASSERT_MSG(i == 0 || record(list[i - 1]).key < record(h).key,
                    "repair: node index out of key order");
    }
    indexed += list.size();
  }
  // Every entry is a holding and no list repeats a block (strict key
  // order), so equal totals mean every holding is listed.
  D2_ASSERT_MSG(indexed == holdings, "repair: node index misses a holder");
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
      const store::BlockHandle h = map_.handle_of(key);
      bool found = false;
      if (map_.at(h) != nullptr) {
        for (const Frag& f : record(h).frags) found |= f.node == node;
      }
      D2_ASSERT_MSG(found, "repair: orphan index entry without a fragment");
    }
  }
}

DurabilityResult run_durability(const DurabilityParams& params) {
  sim::Simulator sim(sim::ArcConfig{params.repair.arcs, params.arc_workers, 0,
                                    params.repair.scheduler});
  sim.bind_metrics(params.metrics);
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
  if (params.metrics != nullptr) {
    sim.export_metrics();
    export_metrics(result.stats, *params.metrics);
  }
  return result;
}

}  // namespace d2::core
