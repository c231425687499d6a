// d2bench — the repository benchmark's driver.
//
//   d2bench run      --workload W [--seed N] [--trace] [--spans-out FILE]
//   d2bench selftest --workload W [--seed N]
//   d2bench info
//
// `run` executes one repetition of a named workload (README.md in this
// directory says why each exists and which layers it exercises) through
// the library's public entry points, composed step by step so the driver
// can time each call into a layer. It prints one JSON line: host wall
// time split into set-up and simulation, the unit of work done, VmHWM,
// VmRSS at each phase boundary, the simulated result (the correctness
// check) and, with --trace, per-layer numbers from spans recorded around
// every layer call plus the program's own obs::Registry counters.
// Without --trace no span is recorded and no registry is bound, so the
// untraced run times the same code paths d2sim runs by default.
//
// `selftest` proves the composed driver runs the program's work and not
// a drifted copy: its result must equal core::AvailabilityExperiment,
// core::PerformanceExperiment or core::run_durability on the same input.
//
// Wall-clock reads stay in this file; the simulator itself never sees
// them, so simulated results are identical with and without tracing.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "core/availability.h"
#include "core/op_batch.h"
#include "core/performance.h"
#include "core/repair.h"
#include "core/replay.h"
#include "core/system.h"
#include "dht/router.h"
#include "net/latency.h"
#include "net/tcp_model.h"
#include "obs/metrics.h"
#include "sim/bandwidth.h"
#include "sim/failure.h"
#include "sim/simulator.h"
#include "store/lookup_cache.h"
#include "trace/harvard_gen.h"
#include "trace/tasks.h"

using namespace d2;

namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- spans

/// Every layer boundary the driver times. The text before the first '.'
/// of a name is its layer; `driver` is the benchmark's own bookkeeping.
enum class Sp : std::uint8_t {
  kTraceGenerate,
  kTraceSegment,
  kSimFailureGen,
  kCoreBuild,
  kFsInsertInitial,
  kCorePopulate,
  kCoreStartLb,
  kSimWarmup,
  kCoreAttach,
  kDriverReplay,
  kSimRunUntil,
  kFsApply,
  kCoreStage,
  kCoreOpWindow,
  kCoreSerialOp,
  kStoreCacheWarm,
  kNetBuild,
  kDhtRouterBuild,
  kDriverGroup,
  kStoreLookupCache,
  kDhtLookup,
  kCoreReplicaNodes,
  kNetTransfer,
  kCoreAudit,
  kCoreAggregate,
  kCount,
};

constexpr const char* kSpanNames[] = {
    "trace.generate",     "trace.segment",      "sim.failure_gen",
    "core.build",         "fs.insert_initial",  "core.populate",
    "core.start_lb",      "sim.warmup",         "core.attach",
    "driver.replay",      "sim.run_until",      "fs.apply",
    "core.stage",         "core.op_window",     "core.serial_op",
    "store.cache_warm",   "net.build",          "dht.router_build",
    "driver.group",       "store.lookup_cache", "dht.lookup",
    "core.replica_nodes", "net.transfer",       "core.audit",
    "core.aggregate",
};
static_assert(std::size(kSpanNames) == static_cast<std::size_t>(Sp::kCount));

std::string_view layer_of(Sp s) {
  const std::string_view name = kSpanNames[static_cast<std::size_t>(s)];
  return name.substr(0, name.find('.'));
}

/// In-memory span log: one flat record per timed call, written out after
/// the repetition ends.
class SpanLog {
 public:
  struct Span {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  // index into spans(), -1 at top level
    Sp name;
  };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {
    spans_.reserve(std::size_t{1} << 20);
  }

  std::int32_t open(Sp name) {
    const auto idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{ns(), 0, top_, name});
    top_ = idx;
    return idx;
  }
  void close(std::int32_t idx) {
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.end_ns = ns();
    top_ = s.parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::int32_t top_ = -1;
};

/// RAII span; a no-op when the log is null (untraced runs).
class Scope {
 public:
  Scope(SpanLog* log, Sp name)
      : log_(log), idx_(log != nullptr ? log->open(name) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::int32_t idx_;
};

// ------------------------------------------------------------ /proc

/// A "VmXXX:  1234 kB" field of /proc/self/status, in MB (0 if absent).
double proc_status_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------- rep state

/// One repetition's measurements, filled by the workload functions.
struct Rep {
  SpanLog* spans = nullptr;           // null when untraced
  obs::Registry* registry = nullptr;  // null when untraced
  Clock::time_point start;
  double setup_s = 0;  // set-up calls before and outside simulation
  double wall_s = 0;   // whole repetition
  double work = 0;
  const char* work_unit = "";
  std::map<std::string, double> mem;     // VmRSS at phase boundaries
  std::map<std::string, double> layers;  // per-layer numbers (traced)
  std::map<std::string, std::string> result;
  // Events the simulator ran inside simulator-owned spans, for
  // sim.ns_per_event.
  std::uint64_t sim_span_events = 0;

  double elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start).count();
  }
  void end_setup() { setup_s = elapsed(); }
  /// Ends the timed repetition once the result is computed; tearing the
  /// simulator state down afterwards is not measured.
  void finish() { wall_s = elapsed(); }
  void mark_mem(const char* phase) { mem[phase] = proc_status_mb("VmRSS"); }

  /// sim.run_until inside a simulator-owned span, counting its events.
  void run_sim(sim::Simulator& sim, Sp name, SimTime t) {
    Scope s(spans, name);
    const std::uint64_t before = sim.events_processed();
    sim.run_until(t);
    sim_span_events += sim.events_processed() - before;
  }
};

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}
std::string num(std::uint64_t v) { return std::to_string(v); }

// ---------------------------------------------------------- workloads

/// Benchmark seed -> inputs. Seed 1 reproduces `d2sim <command>` with the
/// flags listed in README.md and its default --seed.
core::AvailabilityParams avail_params(std::uint64_t seed) {
  core::AvailabilityParams p;
  p.system.node_count = 3000;
  p.system.replicas = 3;
  p.system.seed = seed + 1000;
  p.system.scheme = fs::KeyScheme::kD2;
  p.system.active_load_balance = true;
  p.workload.users = 30000;
  p.workload.days = 1;
  p.workload.target_active_bytes = mB(96);
  p.workload.accesses_per_user_day = 20;
  p.workload.seed = seed;
  p.failure.node_count = p.system.node_count;
  p.failure.duration = days(2);
  p.inter = seconds(5);
  p.warmup = days(1);
  return p;
}

core::PerformanceParams perf_params(std::uint64_t seed) {
  core::PerformanceParams p;
  p.system.node_count = 1000;
  p.system.replicas = 4;
  p.system.seed = seed + 1000;
  p.system.scheme = fs::KeyScheme::kD2;
  p.system.active_load_balance = true;
  p.workload.users = 83;
  p.workload.days = 3;
  p.workload.target_active_bytes = mB(1) * p.system.node_count;
  p.workload.seed = seed;
  p.warmup = hours(18);
  p.window_count = 4;
  p.node_bandwidth = kbps(1500);
  p.parallel = false;
  return p;
}

/// The failure trace is the workload's fixed environment, like the
/// paper's single PlanetLab week: it is generated from seed 1's failure
/// seed whatever the benchmark seed, which varies block keys, write
/// times and data-loss draws. Correlated mass failures are Poisson with
/// ~4 events a week, so a per-seed trace would swing the repair work
/// several-fold between seeds.
constexpr std::uint64_t kRepairFailureSeed = 43;

core::DurabilityParams repair_params(std::uint64_t seed) {
  core::DurabilityParams p;
  p.repair.node_count = 256;
  p.repair.erasure = true;
  p.repair.ec_data_fragments = 6;
  p.repair.ec_parity_fragments = 3;
  p.repair.block_size = kB(8);
  p.repair.repair_bandwidth = kbps(750);
  p.repair.detect_delay = minutes(10);
  p.repair.retry_delay = minutes(5);
  p.repair.data_loss_fraction = 0.5;
  p.repair.seed = seed + 2000;
  // A quarter of d2sim's default data volume keeps one repetition near
  // 3 s, so a 30 s run spans ten or more repetitions.
  p.blocks_per_node = 5;
  p.writes_per_node_per_day = 6;
  p.failure.duration = days(7);
  p.failure.mttf_hours = 120;
  p.failure.mttr_hours = 4;
  p.failure.correlated_events_per_day = 0.6;
  p.failure.correlated_fraction = 0.15;
  p.drain = hours(12);
  p.failure_seed = kRepairFailureSeed;
  return p;
}

/// Registry readers for the traced run (0 when the instrument is absent).
double counter_of(const obs::Registry& r, const char* name) {
  const obs::Counter* c = r.find_counter(name);
  return c == nullptr ? 0.0 : static_cast<double>(c->value());
}
double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

void system_layers(Rep& rep, const core::System& system) {
  const obs::Registry& r = system.metrics();
  rep.layers["dht.lb.probes"] = counter_of(r, "dht.load_balancer.probes");
  rep.layers["dht.lb.moves"] = static_cast<double>(system.lb_moves());
  rep.layers["store.replica_fetches"] =
      counter_of(r, "system.replica_fetches");
  rep.layers["store.migration_per_write"] =
      ratio(static_cast<double>(system.migration_bytes()),
            static_cast<double>(system.user_write_bytes()));
  rep.layers["fs.writeback_coalesced_ratio"] =
      ratio(counter_of(r, "fs.writeback_cache.coalesced_puts"),
            counter_of(r, "fs.writeback_cache.staged_puts"));
}

void sim_layers(Rep& rep, const sim::Simulator& sim) {
  rep.layers["sim.events"] = static_cast<double>(sim.events_processed());
  rep.layers["sim.events_pending_end"] =
      static_cast<double>(sim.events_pending());
}

// avail-3k: core::AvailabilityExperiment::run, composed. Set-up work the
// library does after the warm-up (task segmentation, failure-trace
// generation) is pure and moves ahead of it, so set-up is one interval.
core::AvailabilityResult run_avail(const core::AvailabilityParams& p,
                                   Rep& rep) {
  using core::OpBatchRunner;
  SpanLog* L = rep.spans;
  obs::Registry* metrics = rep.registry;
  std::unique_ptr<trace::HarvardGenerator> gen;
  {
    Scope s(L, Sp::kTraceGenerate);
    gen = std::make_unique<trace::HarvardGenerator>(p.workload);
  }
  const std::vector<trace::TraceRecord>& records = gen->records();
  std::vector<trace::Task> tasks;
  std::vector<std::int32_t> record_task(records.size(), -1);
  {
    Scope s(L, Sp::kTraceSegment);
    tasks = trace::segment_tasks(records, p.inter, p.task_cap);
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      for (std::size_t i : tasks[t].record_indices) {
        record_task[i] = static_cast<std::int32_t>(t);
      }
    }
  }
  sim::FailureTrace failure_trace =
      sim::FailureTrace::all_up(p.failure.node_count, p.failure.duration);
  if (p.enable_failures) {
    Scope s(L, Sp::kSimFailureGen);
    Rng frng(p.failure_seed);
    failure_trace = sim::FailureTrace::generate(p.failure, frng);
  }
  rep.mark_mem("trace");

  std::unique_ptr<sim::Simulator> simp;
  std::unique_ptr<core::System> systemp;
  std::unique_ptr<core::VolumeSet> volumesp;
  std::unique_ptr<OpBatchRunner> batchp;
  {
    Scope s(L, Sp::kCoreBuild);
    simp = std::make_unique<sim::Simulator>(sim::ArcConfig{
        p.system.arcs, p.system.arc_workers, 0, p.system.scheduler});
    simp->bind_metrics(metrics);
    systemp = std::make_unique<core::System>(p.system, *simp, metrics);
    volumesp = std::make_unique<core::VolumeSet>(p.system.scheme);
    volumesp->bind_metrics(metrics);
    batchp = std::make_unique<OpBatchRunner>(*systemp, *simp);
  }
  sim::Simulator& sim = *simp;
  core::System& system = *systemp;
  core::VolumeSet& volumes = *volumesp;
  OpBatchRunner& batch = *batchp;
  std::vector<fs::StoreOp> ops;
  {
    Scope s(L, Sp::kFsInsertInitial);
    volumes.insert_initial(gen->initial_files(), 0, ops);
  }
  {
    Scope s(L, Sp::kCorePopulate);
    for (const fs::StoreOp& op : ops) batch.add(op, 0);
    batch.flush();
  }
  rep.mark_mem("populate");
  rep.end_setup();

  {
    Scope s(L, Sp::kCoreStartLb);
    system.start_load_balancing();
  }
  rep.run_sim(sim, Sp::kSimWarmup, p.warmup);
  rep.mark_mem("warmup");
  {
    Scope s(L, Sp::kCoreAttach);
    system.attach_failure_trace(&failure_trace, p.warmup);
  }

  struct TaskAgg {
    bool failed = false;
    std::uint64_t blocks = 0;
    std::set<std::string_view> files;
    std::set<int> nodes;
  };
  std::vector<TaskAgg> agg(tasks.size());
  core::AvailabilityResult result;
  std::uint64_t windows = 0, window_ops = 0, staged = 0, apply_ops = 0;
  auto drain = [&] {
    {
      Scope s(L, Sp::kCoreOpWindow);
      if (!batch.empty()) {
        ++windows;
        window_ops += staged;
        staged = 0;
      }
      batch.flush();
    }
    for (const OpBatchRunner::GetOutcome& g : batch.outcomes()) {
      TaskAgg& a = agg[static_cast<std::size_t>(g.tag)];
      ++a.blocks;
      if (!g.known) {
        ++result.unknown_key_gets;
        continue;
      }
      if (!g.available) {
        a.failed = true;
      } else if (g.serving >= 0) {
        a.nodes.insert(g.serving);
      }
    }
  };
  {
    Scope replay(L, Sp::kDriverReplay);
    std::vector<fs::StoreOp> rec_ops;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const trace::TraceRecord& r = records[i];
      const SimTime abs_t = p.warmup + r.time;
      if (batch.should_flush_before(abs_t)) drain();
      if (batch.empty() && sim.next_event_time() <= abs_t) {
        rep.run_sim(sim, Sp::kSimRunUntil, abs_t);
      }
      rec_ops.clear();
      {
        Scope s(L, Sp::kFsApply);
        volumes.apply(r, abs_t, rec_ops);
      }
      apply_ops += rec_ops.size();
      const std::int32_t ti = record_task[i];
      if (!rec_ops.empty()) {
        Scope s(L, Sp::kCoreStage);
        for (const fs::StoreOp& op : rec_ops) {
          batch.add(op, abs_t, ti);
          if (op.kind != fs::StoreOp::Kind::kGet || ti >= 0) ++staged;
        }
      }
      if (ti >= 0) agg[static_cast<std::size_t>(ti)].files.insert(r.path);
    }
    drain();
    if (!records.empty()) {
      rep.run_sim(sim, Sp::kSimRunUntil, p.warmup + records.back().time);
    }
  }
  rep.mark_mem("replay");

  {
    Scope s(L, Sp::kCoreAggregate);
    std::map<int, std::pair<std::uint64_t, std::uint64_t>> per_user;
    double blocks_sum = 0, files_sum = 0, nodes_sum = 0;
    std::uint64_t counted = 0;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      const TaskAgg& a = agg[t];
      ++result.tasks;
      auto& [total, failed] = per_user[tasks[t].user];
      ++total;
      if (a.failed) {
        ++result.failed_tasks;
        ++failed;
      }
      if (a.blocks > 0) {
        ++counted;
        blocks_sum += static_cast<double>(a.blocks);
        files_sum += static_cast<double>(a.files.size());
        nodes_sum += static_cast<double>(a.nodes.size());
      }
    }
    if (counted > 0) {
      result.mean_blocks_per_task = blocks_sum / static_cast<double>(counted);
      result.mean_files_per_task = files_sum / static_cast<double>(counted);
      result.mean_nodes_per_task = nodes_sum / static_cast<double>(counted);
    }
    for (const auto& [user, counts] : per_user) {
      result.per_user_unavailability[user] =
          counts.first == 0 ? 0.0
                            : static_cast<double>(counts.second) /
                                  static_cast<double>(counts.first);
    }
    result.migration_bytes = system.migration_bytes();
    result.lb_moves = system.lb_moves();
    if (metrics != nullptr) sim.export_metrics();
  }

  rep.finish();
  rep.work = static_cast<double>(result.tasks);
  rep.work_unit = "tasks";
  rep.result = {
      {"tasks", num(result.tasks)},
      {"failed", num(result.failed_tasks)},
      {"nodes_per_task", fmt("%.1f", result.mean_nodes_per_task)},
      {"blocks_per_task", fmt("%.1f", result.mean_blocks_per_task)},
      {"unknown_key_gets", num(result.unknown_key_gets)},
  };
  rep.layers["fs.apply_calls"] = static_cast<double>(records.size());
  rep.layers["fs.ops_per_record"] =
      ratio(static_cast<double>(apply_ops), static_cast<double>(records.size()));
  rep.layers["core.op_windows"] = static_cast<double>(windows);
  rep.layers["core.ops_per_window"] =
      ratio(static_cast<double>(window_ops), static_cast<double>(windows));
  system_layers(rep, system);
  sim_layers(rep, sim);
  return result;
}

// perf-1k: core::PerformanceExperiment::run, composed. The shared rng
// is consumed in the library's order (latency model, router, user
// placement, replica choice), so the network models are built after the
// warm-up exactly where the library builds them.
core::PerformanceResult run_perf(const core::PerformanceParams& p, Rep& rep) {
  struct PendingGet {
    Key key;
    Bytes size;
  };
  SpanLog* L = rep.spans;
  obs::Registry* metrics = rep.registry;
  std::unique_ptr<trace::HarvardGenerator> gen;
  {
    Scope s(L, Sp::kTraceGenerate);
    gen = std::make_unique<trace::HarvardGenerator>(p.workload);
  }
  const std::vector<trace::TraceRecord>& records = gen->records();
  std::vector<trace::AccessGroup> groups;
  std::vector<std::int32_t> record_group(records.size(), -1);
  std::vector<std::size_t> group_last_record;
  std::vector<SimTime> windows;
  {
    Scope s(L, Sp::kTraceSegment);
    groups = trace::segment_access_groups(records);
    group_last_record.assign(groups.size(), 0);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (std::size_t i : groups[g].record_indices) {
        record_group[i] = static_cast<std::int32_t>(g);
        group_last_record[g] = std::max(group_last_record[g], i);
      }
    }
    windows = core::pick_performance_windows(p.workload, p.window_count,
                                             p.window_length);
  }
  rep.mark_mem("trace");

  std::unique_ptr<sim::Simulator> simp;
  std::unique_ptr<core::System> systemp;
  std::unique_ptr<core::VolumeSet> volumesp;
  {
    Scope s(L, Sp::kCoreBuild);
    simp = std::make_unique<sim::Simulator>(sim::ArcConfig{
        p.system.arcs, p.system.arc_workers, 0, p.system.scheduler});
    simp->bind_metrics(metrics);
    systemp = std::make_unique<core::System>(p.system, *simp, metrics);
    volumesp = std::make_unique<core::VolumeSet>(p.system.scheme);
    volumesp->bind_metrics(metrics);
  }
  sim::Simulator& sim = *simp;
  core::System& system = *systemp;
  core::VolumeSet& volumes = *volumesp;
  Rng rng(p.system.seed ^ 0x1234567);
  std::vector<fs::StoreOp> ops;
  {
    Scope s(L, Sp::kFsInsertInitial);
    volumes.insert_initial(gen->initial_files(), 0, ops);
  }
  {
    Scope s(L, Sp::kCorePopulate);
    for (const fs::StoreOp& op : ops) {
      if (op.kind == fs::StoreOp::Kind::kPut) system.put(op.key, op.size);
    }
  }
  rep.mark_mem("populate");
  rep.end_setup();

  {
    Scope s(L, Sp::kCoreStartLb);
    system.start_load_balancing();
  }
  rep.run_sim(sim, Sp::kSimWarmup, p.warmup);
  rep.mark_mem("warmup");

  const int n = p.system.node_count;
  std::unique_ptr<net::LatencyModel> latencyp;
  net::TcpModel tcp;
  std::vector<sim::BandwidthLink> uplinks;
  {
    Scope s(L, Sp::kNetBuild);
    latencyp = std::make_unique<net::LatencyModel>(n, rng, p.mean_rtt_ms);
    uplinks.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      uplinks.emplace_back(p.node_bandwidth);
      uplinks.back().bind_metrics(metrics, "net.uplink");
    }
  }
  net::LatencyModel& latency = *latencyp;
  std::unique_ptr<dht::Router> routerp;
  {
    Scope s(L, Sp::kDhtRouterBuild);
    routerp = std::make_unique<dht::Router>(system.ring(), rng);
    routerp->bind_metrics(metrics);
  }
  dht::Router& router = *routerp;

  // Same container types and insertion order as the library, so the
  // miss-rate fold visits caches in the same order (same FP rounding).
  std::unordered_map<int, int> user_node;
  std::unordered_map<int, store::LookupCache> caches;
  auto cache_of = [&](int user) -> store::LookupCache& {
    auto it = caches.find(user);
    if (it == caches.end()) {
      it = caches.emplace(user, store::LookupCache(p.lookup_cache_ttl)).first;
      it->second.bind_metrics(metrics);
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
  auto in_window = [&](SimTime t) {
    for (SimTime w : windows) {
      if (t >= w && t < w + p.window_length) return true;
    }
    return false;
  };

  core::PerformanceResult result;
  std::uint64_t apply_ops = 0;
  auto simulate_get = [&](int user, const PendingGet& get,
                          SimTime start) -> SimTime {
    SimTime t = start;
    int client = 0;
    int owner = 0;
    std::optional<int> cached;
    store::LookupCache* cache = nullptr;
    {
      Scope s(L, Sp::kStoreLookupCache);
      cache = &cache_of(user);
      client = node_of(user);
      owner = system.owner_of(get.key);
      cached = cache->find(t, get.key);
      if (cached && *cached == owner) {
        cache->record_hit();
        ++result.cache_hits;
      } else {
        if (cached) cache->invalidate(t, get.key);
        cache->record_miss();
        ++result.cache_misses;
      }
    }
    if (!(cached && *cached == owner)) {
      dht::Router::LookupResult lr;
      {
        Scope s(L, Sp::kDhtLookup);
        lr = router.lookup(client, get.key);
      }
      ++result.lookups;
      result.lookup_messages += static_cast<std::uint64_t>(lr.messages);
      {
        Scope s(L, Sp::kNetTransfer);
        SimTime lookup_lat = 0;
        for (std::size_t h = 0; h + 1 < lr.path.size(); ++h) {
          lookup_lat += latency.one_way(lr.path[h], lr.path[h + 1]);
        }
        lookup_lat += latency.one_way(lr.owner, client);
        t += lookup_lat;
      }
      Scope s(L, Sp::kStoreLookupCache);
      const auto [arc_from, arc_to] = system.ring().owned_arc(lr.owner);
      cache->insert(t, lr.owner, arc_from, arc_to);
    }
    int server = owner;
    {
      Scope s(L, Sp::kCoreReplicaNodes);
      const std::vector<int> replicas = system.replica_nodes(get.key);
      if (!replicas.empty()) {
        if (p.closest_replica) {
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
    }
    Scope s(L, Sp::kNetTransfer);
    const int rtts = tcp.transfer_rtts(client, server, t, get.size);
    const SimTime bw_done =
        uplinks[static_cast<std::size_t>(server)].enqueue(t, get.size);
    const SimTime finish = std::max(
        t + static_cast<SimTime>(rtts) * latency.rtt(client, server), bw_done);
    tcp.touch(client, server, finish);
    return finish;
  };
  auto simulate_group = [&](int user, const std::vector<PendingGet>& gets,
                            SimTime group_start) -> SimTime {
    if (gets.empty()) return 0;
    if (!p.parallel) {
      SimTime t = group_start;
      for (const PendingGet& g : gets) t = simulate_get(user, g, t);
      return t - group_start;
    }
    std::priority_queue<SimTime, std::vector<SimTime>, std::greater<>> active;
    std::size_t next = 0;
    SimTime last_finish = group_start;
    while (next < gets.size() &&
           static_cast<int>(active.size()) < p.max_concurrent_transfers) {
      active.push(simulate_get(user, gets[next++], group_start));
    }
    while (!active.empty()) {
      const SimTime f = active.top();
      active.pop();
      last_finish = std::max(last_finish, f);
      if (next < gets.size()) active.push(simulate_get(user, gets[next++], f));
    }
    return last_finish - group_start;
  };

  {
    Scope replay(L, Sp::kDriverReplay);
    std::vector<std::vector<PendingGet>> group_gets(groups.size());
    std::vector<fs::StoreOp> rec_ops;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const trace::TraceRecord& r = records[i];
      const SimTime abs_t = p.warmup + r.time;
      rep.run_sim(sim, Sp::kSimRunUntil, abs_t);
      rec_ops.clear();
      {
        Scope s(L, Sp::kFsApply);
        volumes.apply(r, abs_t, rec_ops);
      }
      apply_ops += rec_ops.size();
      const bool windowed = in_window(r.time);
      for (const fs::StoreOp& op : rec_ops) {
        switch (op.kind) {
          case fs::StoreOp::Kind::kPut: {
            Scope s(L, Sp::kCoreSerialOp);
            system.put(op.key, op.size);
            break;
          }
          case fs::StoreOp::Kind::kRemove: {
            Scope s(L, Sp::kCoreSerialOp);
            system.remove(op.key);
            break;
          }
          case fs::StoreOp::Kind::kGet:
            if (windowed && record_group[i] >= 0) {
              group_gets[static_cast<std::size_t>(record_group[i])].push_back(
                  PendingGet{op.key, op.size});
            } else {
              Scope s(L, Sp::kStoreCacheWarm);
              const int owner = system.owner_of(op.key);
              const auto [arc_from, arc_to] = system.ring().owned_arc(owner);
              cache_of(r.user).insert(abs_t, owner, arc_from, arc_to);
            }
            break;
        }
      }
      const std::int32_t g = record_group[i];
      if (g >= 0 && group_last_record[static_cast<std::size_t>(g)] == i &&
          windowed && !group_gets[static_cast<std::size_t>(g)].empty()) {
        Scope s(L, Sp::kDriverGroup);
        const auto gi = static_cast<std::size_t>(g);
        const SimTime lat = simulate_group(groups[gi].user, group_gets[gi],
                                           p.warmup + groups[gi].start);
        result.groups.push_back(
            core::GroupResult{groups[gi].user, static_cast<std::uint64_t>(g),
                              lat, static_cast<int>(group_gets[gi].size())});
        group_gets[gi].clear();
        group_gets[gi].shrink_to_fit();
      }
    }
  }
  rep.mark_mem("replay");

  {
    Scope s(L, Sp::kCoreAggregate);
    result.lookup_messages_per_node =
        static_cast<double>(result.lookup_messages) / n;
    Stats miss_rates;
    for (const auto& [user, cache] : caches) {
      if (cache.hits() + cache.misses() > 0) miss_rates.add(cache.miss_rate());
    }
    if (!miss_rates.empty()) result.mean_cache_miss_rate = miss_rates.mean();
    result.tcp_cold_starts = tcp.cold_starts();
    result.tcp_transfers = tcp.transfers();
    if (metrics != nullptr) sim.export_metrics();
  }

  rep.finish();
  SimTime total = 0;
  for (const core::GroupResult& g : result.groups) total += g.latency;
  rep.work = static_cast<double>(records.size());
  rep.work_unit = "records";
  rep.result = {
      {"groups", num(result.groups.size())},
      {"mean_latency_s",
       fmt("%.2f", result.groups.empty()
                       ? 0.0
                       : to_seconds(total) /
                             static_cast<double>(result.groups.size()))},
      {"lookups", num(result.lookups)},
      {"msgs_per_node", fmt("%.1f", result.lookup_messages_per_node)},
      {"miss_rate_pct", fmt("%.1f", 100 * result.mean_cache_miss_rate)},
      {"tcp_cold", num(result.tcp_cold_starts)},
      {"tcp_transfers", num(result.tcp_transfers)},
  };
  rep.layers["fs.apply_calls"] = static_cast<double>(records.size());
  rep.layers["fs.ops_per_record"] =
      ratio(static_cast<double>(apply_ops), static_cast<double>(records.size()));
  rep.layers["store.lookup_cache.miss_rate"] = result.mean_cache_miss_rate;
  rep.layers["net.tcp.cold_start_rate"] =
      ratio(static_cast<double>(result.tcp_cold_starts),
            static_cast<double>(result.tcp_transfers));
  if (metrics != nullptr) {
    rep.layers["net.uplink.transfers"] =
        counter_of(*metrics, "net.uplink.transfers");
    rep.layers["dht.router.lookups"] =
        counter_of(*metrics, "dht.router.lookups");
    const obs::Histogram* hops = metrics->find_histogram("dht.router.hops");
    if (hops != nullptr && hops->count() > 0) {
      rep.layers["dht.router.hops_mean"] = hops->merged().mean();
    }
  }
  system_layers(rep, system);
  sim_layers(rep, sim);
  return result;
}

// repair-rs63: core::run_durability, composed. The failure trace draws
// from its own rng, so generating it before the engine exists is the
// same trace.
core::DurabilityResult run_repair(const core::DurabilityParams& p, Rep& rep) {
  SpanLog* L = rep.spans;
  sim::FailureParams fp = p.failure;
  fp.node_count = p.repair.node_count;
  std::unique_ptr<sim::FailureTrace> trace;
  {
    Scope s(L, Sp::kSimFailureGen);
    Rng trace_rng(p.failure_seed);
    trace = std::make_unique<sim::FailureTrace>(
        sim::FailureTrace::generate(fp, trace_rng));
  }
  rep.mark_mem("trace");
  std::unique_ptr<sim::Simulator> simp;
  std::unique_ptr<core::RepairEngine> enginep;
  {
    Scope s(L, Sp::kCoreBuild);
    sim::ArcConfig ac;
    ac.arcs = p.repair.arcs;
    ac.workers = p.arc_workers;
    ac.lookahead = 0;
    ac.scheduler = p.repair.scheduler;
    simp = std::make_unique<sim::Simulator>(ac);
    enginep = std::make_unique<core::RepairEngine>(p.repair, *simp);
  }
  sim::Simulator& sim = *simp;
  core::RepairEngine& engine = *enginep;
  {
    Scope s(L, Sp::kCorePopulate);
    engine.populate(static_cast<std::int64_t>(p.blocks_per_node) *
                    p.repair.node_count);
  }
  rep.mark_mem("populate");
  rep.end_setup();

  {
    Scope s(L, Sp::kCoreAttach);
    engine.attach_failure_trace(*trace);
    if (p.writes_per_node_per_day > 0) {
      engine.start_foreground_writes(p.writes_per_node_per_day, fp.duration);
    }
  }
  rep.run_sim(sim, Sp::kSimRunUntil, fp.duration + p.drain);
  rep.mark_mem("replay");
  {
    Scope s(L, Sp::kCoreAudit);
    engine.check_invariants();
  }
  core::DurabilityResult result;
  {
    Scope s(L, Sp::kCoreAggregate);
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
  }

  rep.finish();
  const core::RepairStats& st = result.stats;
  rep.work = static_cast<double>(p.repair.node_count) *
             to_seconds(fp.duration + p.drain) / 86400.0;
  rep.work_unit = "node_days";
  rep.result = {
      {"blocks", num(st.blocks)},
      {"lost", num(st.blocks_lost)},
      {"l_over_w", fmt("%.3f", result.l_over_w)},
      {"started", num(st.repairs_started)},
      {"completed", num(st.repairs_completed)},
      {"verified", num(st.verified_reconstructions)},
      {"open", num(st.open_episodes)},
      {"events", num(result.events)},
  };
  rep.layers["core.repair.retry_ratio"] =
      ratio(static_cast<double>(st.repair_retries),
            static_cast<double>(st.repairs_started));
  rep.layers["core.repair.verify_ratio"] =
      ratio(static_cast<double>(st.verified_reconstructions),
            static_cast<double>(st.repairs_completed));
  sim_layers(rep, sim);
  return result;
}

// ------------------------------------------------------- trace rollup

/// Per-layer numbers derived from the span log: time per span name, self
/// time per layer, and how much of the repetition the top-level spans
/// cover.
void span_layers(Rep& rep, const SpanLog& log) {
  const std::vector<SpanLog::Span>& spans = log.spans();
  std::vector<double> dur(spans.size());
  std::vector<double> child(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    dur[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    if (spans[i].parent >= 0) {
      child[static_cast<std::size_t>(spans[i].parent)] += dur[i];
    }
  }
  std::map<Sp, double> by_name;
  std::map<std::string, double> self;
  double top = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name] += dur[i];
    self[std::string(layer_of(spans[i].name))] += dur[i] - child[i];
    if (spans[i].parent < 0) top += dur[i];
  }
  auto t = [&](Sp s) { return by_name.count(s) ? by_name[s] : 0.0; };
  auto& m = rep.layers;
  m["trace.generate_s"] = t(Sp::kTraceGenerate);
  m["trace.segment_s"] = t(Sp::kTraceSegment);
  m["fs.insert_initial_s"] = t(Sp::kFsInsertInitial);
  m["fs.apply_s"] = t(Sp::kFsApply);
  m["core.populate_s"] = t(Sp::kCorePopulate);
  m["core.op_window_s"] = t(Sp::kCoreOpWindow);
  m["core.serial_op_s"] = t(Sp::kCoreSerialOp);
  m["core.aggregate_s"] = t(Sp::kCoreAggregate);
  m["core.repair.audit_s"] = t(Sp::kCoreAudit);
  m["sim.warmup_s"] = t(Sp::kSimWarmup);
  m["sim.replay_run_s"] = t(Sp::kSimRunUntil);
  m["sim.failure_gen_s"] = t(Sp::kSimFailureGen);
  m["sim.ns_per_event"] =
      ratio((t(Sp::kSimWarmup) + t(Sp::kSimRunUntil)) * 1e9,
            static_cast<double>(rep.sim_span_events));
  m["dht.router.lookup_s"] = t(Sp::kDhtLookup);
  for (const auto& [layer, s] : self) m["self." + layer + "_s"] = s;
  m["spans"] = static_cast<double>(spans.size());
  m["span_coverage"] = ratio(top, rep.wall_s);
}

/// One span per line; `run` is the benchmark seed, which identifies the
/// traced run of a workload.
void write_spans(const std::string& path, const SpanLog& log,
                 const std::string& workload, std::uint64_t run) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "name\tstart_ns\tend_ns\tparent\tworkload\trun\n");
  for (const SpanLog::Span& s : log.spans()) {
    std::fprintf(f, "%s\t%lld\t%lld\t%d\t%s\t%llu\n",
                 kSpanNames[static_cast<std::size_t>(s.name)],
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, workload.c_str(),
                 static_cast<unsigned long long>(run));
  }
  std::fclose(f);
}

// ------------------------------------------------------------- output

std::string json_str(const std::string& s) { return "\"" + s + "\""; }

template <class V, class F>
std::string json_obj(const std::map<std::string, V>& m, F value) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += json_str(k) + ":" + value(v);
  }
  return out + "}";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ------------------------------------------------------------ commands

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string spans_out;
};

bool known_workload(const std::string& w) {
  return w == "avail-3k" || w == "perf-1k" || w == "repair-rs63";
}

int cmd_run(const Args& a) {
  Rep rep;
  std::unique_ptr<SpanLog> log;
  std::unique_ptr<obs::Registry> registry;
  rep.start = Clock::now();
  if (a.trace) {
    log = std::make_unique<SpanLog>(rep.start);
    registry = std::make_unique<obs::Registry>();
    rep.spans = log.get();
    rep.registry = registry.get();
  }
  if (a.workload == "avail-3k") {
    run_avail(avail_params(a.seed), rep);
  } else if (a.workload == "perf-1k") {
    run_perf(perf_params(a.seed), rep);
  } else {
    run_repair(repair_params(a.seed), rep);
  }
  if (log != nullptr) {
    span_layers(rep, *log);
    if (!a.spans_out.empty()) write_spans(a.spans_out, *log, a.workload, a.seed);
  }
  const double peak = proc_status_mb("VmHWM");
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"traced\":%d,\"wall_s\":%s,"
      "\"setup_s\":%s,\"sim_s\":%s,\"work\":%s,\"work_unit\":%s,"
      "\"peak_rss_mb\":%s,\"mem\":%s,\"result\":%s,\"layers\":%s}\n",
      json_str(a.workload).c_str(), static_cast<unsigned long long>(a.seed),
      a.trace ? 1 : 0, json_num(rep.wall_s).c_str(),
      json_num(rep.setup_s).c_str(), json_num(rep.wall_s - rep.setup_s).c_str(),
      json_num(rep.work).c_str(), json_str(rep.work_unit).c_str(),
      json_num(peak).c_str(), json_obj(rep.mem, json_num).c_str(),
      json_obj(rep.result, json_str).c_str(),
      json_obj(rep.layers, json_num).c_str());
  std::fflush(stdout);
  // Skip tearing down gigabytes of simulator state; nothing is left to do.
  std::_Exit(0);
}

// Driver-equivalence self-test: the composed driver must produce what
// the library's own experiment entry point produces on the same input.
int cmd_selftest(const Args& a) {
  bool same = false;
  if (a.workload == "avail-3k") {
    const core::AvailabilityParams p = avail_params(a.seed);
    Rep rep;
    rep.start = Clock::now();
    const core::AvailabilityResult x = run_avail(p, rep);
    const core::AvailabilityResult y = core::AvailabilityExperiment(p).run();
    same = x.tasks == y.tasks && x.failed_tasks == y.failed_tasks &&
           x.per_user_unavailability == y.per_user_unavailability &&
           x.mean_blocks_per_task == y.mean_blocks_per_task &&
           x.mean_files_per_task == y.mean_files_per_task &&
           x.mean_nodes_per_task == y.mean_nodes_per_task &&
           x.migration_bytes == y.migration_bytes && x.lb_moves == y.lb_moves &&
           x.unknown_key_gets == y.unknown_key_gets;
  } else if (a.workload == "perf-1k") {
    const core::PerformanceParams p = perf_params(a.seed);
    Rep rep;
    rep.start = Clock::now();
    const core::PerformanceResult x = run_perf(p, rep);
    const core::PerformanceResult y = core::PerformanceExperiment(p).run();
    same = x.groups.size() == y.groups.size() &&
           std::equal(x.groups.begin(), x.groups.end(), y.groups.begin(),
                      [](const core::GroupResult& g, const core::GroupResult& h) {
                        return g.user == h.user && g.group_id == h.group_id &&
                               g.latency == h.latency &&
                               g.block_gets == h.block_gets;
                      }) &&
           x.lookup_messages == y.lookup_messages && x.lookups == y.lookups &&
           x.cache_hits == y.cache_hits && x.cache_misses == y.cache_misses &&
           x.lookup_messages_per_node == y.lookup_messages_per_node &&
           x.mean_cache_miss_rate == y.mean_cache_miss_rate &&
           x.tcp_cold_starts == y.tcp_cold_starts &&
           x.tcp_transfers == y.tcp_transfers;
  } else {
    const core::DurabilityParams p = repair_params(a.seed);
    Rep rep;
    rep.start = Clock::now();
    const core::DurabilityResult x = run_repair(p, rep);
    const core::DurabilityResult y = core::run_durability(p);
    const core::RepairStats& s = x.stats;
    const core::RepairStats& t = y.stats;
    same = s.blocks == t.blocks && s.blocks_lost == t.blocks_lost &&
           s.repair_bytes == t.repair_bytes &&
           s.user_write_bytes == t.user_write_bytes &&
           s.repairs_started == t.repairs_started &&
           s.repairs_completed == t.repairs_completed &&
           s.repair_retries == t.repair_retries &&
           s.verified_reconstructions == t.verified_reconstructions &&
           s.writes_failed == t.writes_failed &&
           s.mttr_episodes == t.mttr_episodes &&
           s.mttr_mean_s == t.mttr_mean_s && s.mttr_p99_s == t.mttr_p99_s &&
           s.open_episodes == t.open_episodes && x.events == y.events &&
           x.unrecoverable_fraction == y.unrecoverable_fraction &&
           x.l_over_w == y.l_over_w;
  }
  std::printf("%s %s seed=%llu: composed driver %s the library entry point\n",
              same ? "PASS" : "FAIL", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed),
              same ? "equals" : "DIFFERS FROM");
  return same ? 0 : 1;
}

int cmd_info() {
  std::printf("{\"build_type\":%s,\"compiler\":%s,\"ndebug\":%d}\n",
              json_str(D2BENCH_BUILD_TYPE).c_str(), json_str(__VERSION__).c_str(),
#ifdef NDEBUG
              1
#else
              0
#endif
  );
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: d2bench run --workload avail-3k|perf-1k|repair-rs63 "
               "[--seed N] [--trace] [--spans-out FILE]\n"
               "       d2bench selftest --workload W [--seed N]\n"
               "       d2bench info\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "info") return cmd_info();
  Args a;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--trace") {
      a.trace = true;
    } else if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--spans-out" && has_value) {
      a.spans_out = argv[++i];
    } else {
      return usage();
    }
  }
  if (!known_workload(a.workload)) return usage();
  try {
    if (cmd == "run") return cmd_run(a);
    if (cmd == "selftest") return cmd_selftest(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
