#include "core/performance.h"

#include <algorithm>
#include <queue>
#include <unordered_map>

#include "common/assert.h"
#include "common/stats.h"
#include "core/replay.h"
#include "core/system.h"
#include "dht/router.h"
#include "net/latency.h"
#include "net/tcp_model.h"
#include "sim/bandwidth.h"
#include "sim/simulator.h"
#include "store/lookup_cache.h"
#include "trace/tasks.h"

namespace d2::core {

PerformanceExperiment::PerformanceExperiment(const PerformanceParams& params)
    : params_(params) {
  D2_REQUIRE(params.window_count > 0);
  D2_REQUIRE_MSG(params.window_length > 0 && params.window_length <= hours(9),
                 "window_length must lie in (0, 9h]");
  D2_REQUIRE(params.max_concurrent_transfers > 0);
}

namespace {

/// A block get inside a window, ready for network simulation.
struct PendingGet {
  Key key;
  Bytes size;
};

}  // namespace

std::vector<SimTime> pick_performance_windows(const trace::HarvardParams& wl,
                                              int count, SimTime length) {
  D2_REQUIRE(count > 0);
  D2_REQUIRE(wl.days > 0);
  D2_REQUIRE_MSG(length > 0 && length <= hours(9),
                 "window length must lie in (0, 9h] — windows are placed "
                 "inside the 9:00-18:00 workday");
  // Necessary (not sufficient) feasibility bound: the windows must fit in
  // the trace's total workday time. Rejecting here gives a clear message
  // for the hopeless cases instead of a budget-exhaustion error below.
  D2_REQUIRE_MSG(static_cast<std::int64_t>(count) * length <=
                     static_cast<std::int64_t>(wl.days) * hours(9),
                 "requested windows exceed the trace's total workday time: " +
                     std::to_string(count) + " x " +
                     std::to_string(to_seconds(length)) + "s over " +
                     std::to_string(wl.days) + " day(s)");
  Rng rng(wl.seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<SimTime> starts;
  // Rejection sampling with a generous budget; tight packings (many or
  // long windows over few days) need more attempts than the common case.
  const int max_attempts = count * 500;
  int attempts = 0;
  while (static_cast<int>(starts.size()) < count && attempts < max_attempts) {
    ++attempts;
    const auto day = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(wl.days)));
    const SimTime span = hours(9) - length;  // inside 9:00-18:00
    const SimTime start =
        days(day) + hours(9) +
        static_cast<SimTime>(rng.next_double() * static_cast<double>(span));
    bool overlaps = false;
    for (SimTime s : starts) {
      if (start < s + length && s < start + length) overlaps = true;
    }
    if (!overlaps) starts.push_back(start);
  }
  // A silent shortfall would under-provision every downstream statistic
  // (fewer access groups than the experiment was asked for), so fail
  // loudly instead.
  D2_REQUIRE_MSG(static_cast<int>(starts.size()) == count,
                 "window rejection-sampling budget exhausted: placed " +
                     std::to_string(starts.size()) + " of " +
                     std::to_string(count) + " windows after " +
                     std::to_string(attempts) +
                     " attempts; use fewer/shorter windows or more days");
  std::sort(starts.begin(), starts.end());
  return starts;
}

PerformanceResult PerformanceExperiment::run() {
  sim::Simulator sim(sim::ArcConfig{.scheduler = params_.system.scheduler});
  sim.bind_metrics(params_.metrics);
  System system(params_.system, sim, params_.metrics);
  system.set_tracer(params_.tracer);
  VolumeSet volumes(params_.system.scheme);
  volumes.bind_metrics(params_.metrics);
  trace::HarvardGenerator gen(params_.workload);
  Rng rng(params_.system.seed ^ 0x1234567);

  // ---- placement warm-up ----
  std::vector<fs::StoreOp> ops;
  volumes.insert_initial(gen.initial_files(), 0, ops);
  for (const fs::StoreOp& op : ops) {
    if (op.kind == fs::StoreOp::Kind::kPut) system.put(op.key, op.size);
  }
  system.start_load_balancing();
  sim.run_until(params_.warmup);

  // ---- network models ----
  const int n = params_.system.node_count;
  net::LatencyModel latency(n, rng, params_.mean_rtt_ms);
  net::TcpModel tcp;
  std::vector<sim::BandwidthLink> uplinks;
  uplinks.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    uplinks.emplace_back(params_.node_bandwidth);
    uplinks.back().bind_metrics(params_.metrics, "net.uplink");
  }
  dht::Router router(system.ring(), rng);
  router.bind_metrics(params_.metrics);

  // Users sit on random nodes (§9.1). Both maps are keyed lookups; the one
  // iteration (the miss-rate fold below) is order-insensitive up to FP
  // rounding and pinned by the determinism goldens.
  std::unordered_map<int, int> user_node;  // d2-lint: allow(unordered-container)
  std::unordered_map<int, store::LookupCache> caches;  // d2-lint: allow(unordered-container) -- keyed lookup; the fold is order-insensitive
  auto cache_of = [&](int user) -> store::LookupCache& {
    auto it = caches.find(user);
    if (it == caches.end()) {
      it = caches.emplace(user, store::LookupCache(params_.lookup_cache_ttl))
               .first;
      it->second.bind_metrics(params_.metrics);
    }
    return it->second;
  };
  auto node_of = [&](int user) -> int {
    auto it = user_node.find(user);
    if (it == user_node.end()) {
      it = user_node
               .emplace(user, static_cast<int>(rng.next_below(
                                  static_cast<std::uint64_t>(n))))
               .first;
    }
    return it->second;
  };

  // ---- access groups and windows ----
  const std::vector<trace::TraceRecord>& records = gen.records();
  const std::vector<trace::AccessGroup> groups =
      trace::segment_access_groups(records);
  std::vector<std::int32_t> record_group(records.size(), -1);
  std::vector<std::size_t> group_last_record(groups.size(), 0);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t i : groups[g].record_indices) {
      record_group[i] = static_cast<std::int32_t>(g);
      group_last_record[g] = std::max(group_last_record[g], i);
    }
  }
  const std::vector<SimTime> windows =
      pick_performance_windows(params_.workload, params_.window_count,
                               params_.window_length);
  if (params_.metrics != nullptr) {
    params_.metrics->gauge("core.performance.windows_picked")
        .set(static_cast<double>(windows.size()));
  }
  auto in_window = [&](SimTime t) {
    for (SimTime w : windows) {
      if (t >= w && t < w + params_.window_length) return true;
    }
    return false;
  };

  PerformanceResult result;

  // One get's network simulation. Returns its finish time.
  auto simulate_get = [&](int user, const PendingGet& get,
                          SimTime start) -> SimTime {
    store::LookupCache& cache = cache_of(user);
    const int client = node_of(user);
    SimTime t = start;
    // Lookup (or cache hit).
    const int owner = system.owner_of(get.key);
    std::optional<int> cached = cache.find(t, get.key);
    if (cached && *cached == owner) {
      cache.record_hit();
      ++result.cache_hits;
      if (params_.tracer != nullptr) {
        params_.tracer->record(t, obs::EventType::kCacheHit, user);
      }
    } else {
      if (cached) cache.invalidate(t, get.key);  // stale range
      cache.record_miss();
      ++result.cache_misses;
      if (params_.tracer != nullptr) {
        params_.tracer->record(t, obs::EventType::kCacheMiss, user);
      }
      const dht::Router::LookupResult lr = router.lookup(client, get.key);
      ++result.lookups;
      result.lookup_messages += static_cast<std::uint64_t>(lr.messages);
      SimTime lookup_lat = 0;
      for (std::size_t h = 0; h + 1 < lr.path.size(); ++h) {
        lookup_lat += latency.one_way(lr.path[h], lr.path[h + 1]);
      }
      lookup_lat += latency.one_way(lr.owner, client);  // result returns
      t += lookup_lat;
      const auto [arc_from, arc_to] = system.ring().owned_arc(lr.owner);
      cache.insert(t, lr.owner, arc_from, arc_to);
    }
    // Download from a replica: random by default (§9.3: "D2 currently
    // selects replicas randomly"), or the RTT-closest when enabled.
    const std::vector<int> replicas = system.replica_nodes(get.key);
    int server = owner;
    if (!replicas.empty()) {
      if (params_.closest_replica) {
        server = replicas.front();
        for (const int candidate : replicas) {
          if (latency.rtt(client, candidate) < latency.rtt(client, server)) {
            server = candidate;
          }
        }
      } else {
        server = replicas[rng.next_below(replicas.size())];
      }
    }
    const int rtts = tcp.transfer_rtts(client, server, t, get.size);
    const SimTime bw_done = uplinks[static_cast<std::size_t>(server)].enqueue(
        t, get.size);
    const SimTime finish = std::max(
        t + static_cast<SimTime>(rtts) * latency.rtt(client, server), bw_done);
    tcp.touch(client, server, finish);
    return finish;
  };

  // Simulates one whole access group; returns its completion latency.
  auto simulate_group = [&](int user, const std::vector<PendingGet>& gets,
                            SimTime group_start) -> SimTime {
    if (gets.empty()) return 0;
    if (!params_.parallel) {
      SimTime t = group_start;
      for (const PendingGet& g : gets) t = simulate_get(user, g, t);
      return t - group_start;
    }
    // para: everything issues at group start, capped at 15 in flight.
    std::priority_queue<SimTime, std::vector<SimTime>, std::greater<>> active;
    std::size_t next = 0;
    SimTime last_finish = group_start;
    while (next < gets.size() &&
           static_cast<int>(active.size()) < params_.max_concurrent_transfers) {
      active.push(simulate_get(user, gets[next++], group_start));
    }
    while (!active.empty()) {
      const SimTime f = active.top();
      active.pop();
      last_finish = std::max(last_finish, f);
      if (next < gets.size()) {
        active.push(simulate_get(user, gets[next++], f));
      }
    }
    return last_finish - group_start;
  };

  // ---- replay ----
  std::vector<std::vector<PendingGet>> group_gets(groups.size());
  std::vector<fs::StoreOp> rec_ops;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const trace::TraceRecord& r = records[i];
    const SimTime abs_t = params_.warmup + r.time;
    sim.run_until(abs_t);
    rec_ops.clear();
    volumes.apply(r, abs_t, rec_ops);
    const bool windowed = in_window(r.time);
    for (const fs::StoreOp& op : rec_ops) {
      switch (op.kind) {
        case fs::StoreOp::Kind::kPut:
          system.put(op.key, op.size);
          break;
        case fs::StoreOp::Kind::kRemove:
          system.remove(op.key);
          break;
        case fs::StoreOp::Kind::kGet:
          if (windowed && record_group[i] >= 0) {
            group_gets[static_cast<std::size_t>(record_group[i])].push_back(
                PendingGet{op.key, op.size});
          } else {
            // Outside windows: warm the user's lookup cache only (this is
            // the paper's "simulate cache content from the beginning").
            const int owner = system.owner_of(op.key);
            const auto [arc_from, arc_to] = system.ring().owned_arc(owner);
            cache_of(r.user).insert(abs_t, owner, arc_from, arc_to);
          }
          break;
      }
    }
    // When a windowed group's last record has been replayed, simulate it.
    const std::int32_t g = record_group[i];
    if (g >= 0 && group_last_record[static_cast<std::size_t>(g)] == i &&
        windowed && !group_gets[static_cast<std::size_t>(g)].empty()) {
      const SimTime lat = simulate_group(
          groups[static_cast<std::size_t>(g)].user,
          group_gets[static_cast<std::size_t>(g)],
          params_.warmup + groups[static_cast<std::size_t>(g)].start);
      result.groups.push_back(GroupResult{
          groups[static_cast<std::size_t>(g)].user,
          static_cast<std::uint64_t>(g), lat,
          static_cast<int>(group_gets[static_cast<std::size_t>(g)].size())});
      group_gets[static_cast<std::size_t>(g)].clear();
      group_gets[static_cast<std::size_t>(g)].shrink_to_fit();
    }
  }

  // ---- stats ----
  result.lookup_messages_per_node =
      static_cast<double>(result.lookup_messages) / n;
  Stats miss_rates;
  // The mean over users is independent of visit order except for FP
  // summation rounding; with libstdc++ and this seeded insertion sequence
  // the order is stable, and the exact bits are pinned by
  // tests/test_determinism_golden.cc. Sorting here would change the pinned
  // checksum for zero behavioral gain.
  // d2-lint: allow(unordered-iter)
  for (const auto& [user, cache] : caches) {
    if (cache.hits() + cache.misses() > 0) miss_rates.add(cache.miss_rate());
  }
  if (!miss_rates.empty()) result.mean_cache_miss_rate = miss_rates.mean();
  result.tcp_cold_starts = tcp.cold_starts();
  result.tcp_transfers = tcp.transfers();
  if (params_.metrics != nullptr) {
    sim.export_metrics();
    system.export_metrics();
    volumes.export_metrics();
    params_.metrics->gauge("net.tcp.cold_start_rate")
        .set(result.tcp_transfers == 0
                 ? 0.0
                 : static_cast<double>(result.tcp_cold_starts) /
                       static_cast<double>(result.tcp_transfers));
    params_.metrics->gauge("store.lookup_cache.mean_user_miss_rate")
        .set(result.mean_cache_miss_rate);
  }
  return result;
}

SpeedupSummary compute_speedup(const PerformanceResult& baseline,
                               const PerformanceResult& treatment) {
  // Keyed join table; iteration happens over the ordered inputs instead.
  std::unordered_map<std::uint64_t, const GroupResult*> base_by_id;  // d2-lint: allow(unordered-container)
  for (const GroupResult& g : baseline.groups) base_by_id.emplace(g.group_id, &g);

  std::map<int, std::vector<double>> per_user_ratios;
  std::uint64_t matched = 0;
  for (const GroupResult& g : treatment.groups) {
    auto it = base_by_id.find(g.group_id);
    if (it == base_by_id.end()) continue;
    if (g.latency <= 0 || it->second->latency <= 0) continue;
    per_user_ratios[g.user].push_back(static_cast<double>(it->second->latency) /
                                      static_cast<double>(g.latency));
    ++matched;
  }
  SpeedupSummary s;
  s.matched_groups = matched;
  std::vector<double> user_means;
  for (const auto& [user, ratios] : per_user_ratios) {
    const double m = geometric_mean(ratios);
    s.per_user[user] = m;
    user_means.push_back(m);
  }
  if (!user_means.empty()) s.overall = geometric_mean(user_means);
  return s;
}

std::vector<std::pair<SimTime, SimTime>> matched_latencies(
    const PerformanceResult& baseline, const PerformanceResult& treatment) {
  // Keyed join table; iteration happens over the ordered inputs instead.
  std::unordered_map<std::uint64_t, SimTime> base_by_id;  // d2-lint: allow(unordered-container)
  for (const GroupResult& g : baseline.groups) {
    base_by_id.emplace(g.group_id, g.latency);
  }
  std::vector<std::pair<SimTime, SimTime>> out;
  for (const GroupResult& g : treatment.groups) {
    auto it = base_by_id.find(g.group_id);
    if (it != base_by_id.end() && g.latency > 0 && it->second > 0) {
      out.emplace_back(it->second, g.latency);
    }
  }
  return out;
}

}  // namespace d2::core
