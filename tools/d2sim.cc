// d2sim — command-line driver for the D2 experiment engines.
//
//   d2sim locality     [--workload=harvard|hp|web] [--node-mb=4]
//   d2sim availability [--scheme=S] [--nodes=N] [--inter=SECS] [--trials=T]
//   d2sim balance      [--workload=harvard|webcache] [--scheme=S] [--nodes=N]
//                      [--no-pointers] [--threshold=T]
//   d2sim performance  [--scheme=S] [--nodes=N] [--kbps=1500] [--para]
//                      [--trials=T]
//   d2sim repair       [--redundancy=repR|rs-K-M] [--nodes=N] [--days=D]
//                      [--blocks-per-node=B] [--block-kb=8] [--repair-bw=KBPS]
//                      [--detect-mins=10] [--retry-mins=5] [--loss-pct=50]
//                      [--write-rate=W] [--mttf-hours=120] [--mttr-hours=4]
//                      [--corr-per-day=N] [--corr-pct=15] [--drain-hours=12]
//   d2sim trace-gen    [--workload=harvard|hp|web] [--out=FILE]
//
// Common options: --users=U --days=D --mb=ACTIVE_MB --seed=X --jobs=N
//                 --accesses=N (mean file accesses per user per day)
//                 --paranoid (full invariant audits after topology changes
//                 and sampled mutations, in any build; slow but catches
//                 state corruption at the mutation that caused it)
// Schemes: d2 (default), traditional, traditional-file, trad+merc
//
// Multi-trial sweeps (availability/performance --trials=T, T >= 1) fan
// the trials across --jobs=N worker threads (N >= 0; 0, the default,
// means hardware concurrency) via
// core::TrialRunner. Trial seeds are derived deterministically from
// --seed and the trial index, and results are printed in trial order, so
// --jobs=1 and --jobs=N produce identical output.
//
// Observability (availability, balance, performance; repair takes
// --metrics-out only):
//   --metrics-out=FILE  write a JSON snapshot of every counter, gauge and
//                       histogram the run touched (see DESIGN.md,
//                       "Observability") after the experiment finishes.
//   --trace-out=FILE    write typed simulation events (lb_move,
//                       replica_fetch, node_down/up, cache_hit/miss,
//                       block_expired) as JSON lines with sim timestamps.
//
// Each command accepts only the flags it reads: any other flag (a typo,
// or a removed flag such as --arcs or --scheduler) exits 2 with a
// message naming it, as does an integer flag outside its range.
// Exit status is non-zero on usage errors, so the tool is scriptable.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/availability.h"
#include "core/balance.h"
#include "core/locality_analysis.h"
#include "core/performance.h"
#include "core/repair.h"
#include "core/trial_runner.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "trace/trace_io.h"

using namespace d2;

namespace {

/// Thrown for malformed flag values; main() turns it into usage().
class UsageError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        ok_ = false;
        continue;
      }
      const std::string body = arg.substr(2);
      const auto eq = body.find('=');
      if (eq == std::string::npos) {
        values_[body] = "1";  // boolean flag
      } else {
        values_[body.substr(0, eq)] = body.substr(eq + 1);
      }
    }
  }

  bool ok() const { return ok_; }

  std::string str(const std::string& key, const std::string& def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }
  long num(const std::string& key, long def) const {
    auto it = values_.find(key);
    if (it == values_.end()) return def;
    const char* s = it->second.c_str();
    errno = 0;
    char* end = nullptr;
    const long v = std::strtol(s, &end, 10);
    if (end == s || *end != '\0' || errno == ERANGE) {
      std::fprintf(stderr, "invalid numeric value for --%s: %s\n", key.c_str(),
                   it->second.c_str());
      throw UsageError("bad numeric flag");
    }
    return v;
  }
  /// num() for an int-valued flag: a value below `min` or past int's
  /// range is a usage error naming the flag, never a wrap-around.
  int num_int(const std::string& key, int def,
              int min = std::numeric_limits<int>::min()) const {
    const long v = num(key, def);
    if (v < min || v > std::numeric_limits<int>::max()) {
      std::fprintf(stderr,
                   "out-of-range value for --%s: %ld (expected %d..%d)\n",
                   key.c_str(), v, min, std::numeric_limits<int>::max());
      throw UsageError("int flag out of range");
    }
    return static_cast<int>(v);
  }
  bool flag(const std::string& key) const { return values_.count(key) > 0; }

  /// Throws UsageError naming the first flag given that is in none of
  /// `known`, the groups of flags `command` reads.
  void reject_unknown(
      const char* command,
      std::initializer_list<std::vector<std::string_view>> known) const {
    for (const auto& [key, value] : values_) {
      bool found = false;
      for (const std::vector<std::string_view>& group : known) {
        found |= std::find(group.begin(), group.end(), key) != group.end();
      }
      if (!found) {
        std::fprintf(stderr, "unknown flag for %s: --%s\n", command,
                     key.c_str());
        throw UsageError("unknown flag");
      }
    }
  }

 private:
  std::map<std::string, std::string> values_;
  bool ok_ = true;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: d2sim <locality|availability|balance|performance|repair|"
      "trace-gen> [options]\n"
      "  common: --users=N --days=N --mb=ACTIVE_MB --seed=X --nodes=N\n"
      "          --accesses=N (mean file accesses per user per day)\n"
      "          --jobs=N (worker threads for --trials sweeps; default 0: all "
      "cores)\n"
      "          --paranoid (run full invariant audits during the "
      "simulation)\n"
      "  scheme: --scheme=d2|traditional|traditional-file|trad+merc\n"
      "  see the header of tools/d2sim.cc for per-command options\n");
  return 2;
}

// The flags each command reads, in groups (Args::reject_unknown).
const std::vector<std::string_view> kHarvardFlags = {"users", "days", "mb",
                                                     "seed", "accesses"};
const std::vector<std::string_view> kSystemFlags = {
    "scheme",    "nodes",       "replicas", "seed",
    "threshold", "no-pointers", "scatter",  "paranoid"};
const std::vector<std::string_view> kSinkFlags = {"metrics-out", "trace-out"};
const std::vector<std::string_view> kTrialFlags = {"trials", "jobs"};

/// Optional observability sinks shared by the experiment commands.
/// Enabled only when the corresponding flag names an output file, so the
/// hot paths stay unmetered by default.
struct Sinks {
  explicit Sinks(const Args& args)
      : metrics_path(args.str("metrics-out", "")),
        trace_path(args.str("trace-out", "")) {}

  obs::Registry* registry() { return metrics_path.empty() ? nullptr : &metrics; }
  obs::Tracer* tracer_ptr() { return trace_path.empty() ? nullptr : &tracer; }

  void write() {
    if (!metrics_path.empty()) {
      metrics.write_json_file(metrics_path);
      std::fprintf(stderr, "wrote %zu metrics to %s\n",
                   metrics.instrument_count(), metrics_path.c_str());
    }
    if (!trace_path.empty()) {
      tracer.write_json_lines_file(trace_path);
      std::fprintf(stderr, "wrote %zu trace events to %s\n", tracer.size(),
                   trace_path.c_str());
    }
  }

  std::string metrics_path;
  std::string trace_path;
  obs::Registry metrics;
  obs::Tracer tracer;
};

trace::HarvardParams harvard_params(const Args& args) {
  trace::HarvardParams p;
  p.users = args.num_int("users", 20);
  p.days = args.num_int("days", 7);
  p.target_active_bytes = mB(args.num("mb", 96));
  p.seed = static_cast<std::uint64_t>(args.num("seed", 1));
  const long accesses = args.num("accesses", 0);
  if (accesses < 0) {
    std::fprintf(stderr, "invalid value for --accesses: %ld (must be > 0)\n",
                 accesses);
    throw UsageError("bad access rate");
  }
  if (accesses > 0) p.accesses_per_user_day = static_cast<double>(accesses);
  return p;
}

bool parse_scheme(const std::string& name, fs::KeyScheme* scheme,
                  bool* active_lb) {
  if (name == "d2") {
    *scheme = fs::KeyScheme::kD2;
    *active_lb = true;
  } else if (name == "traditional") {
    *scheme = fs::KeyScheme::kTraditionalBlock;
    *active_lb = false;
  } else if (name == "traditional-file") {
    *scheme = fs::KeyScheme::kTraditionalFile;
    *active_lb = false;
  } else if (name == "trad+merc") {
    *scheme = fs::KeyScheme::kTraditionalBlock;
    *active_lb = true;
  } else {
    std::fprintf(stderr, "unknown scheme: %s\n", name.c_str());
    return false;
  }
  return true;
}

/// `default_replicas` is the command's --replicas default: the paper
/// uses 3 in the availability study and 4 in the performance study.
core::SystemConfig system_config(const Args& args, int default_replicas = 3) {
  core::SystemConfig c;
  c.node_count = args.num_int("nodes", 64);
  c.replicas = args.num_int("replicas", default_replicas);
  c.seed = static_cast<std::uint64_t>(args.num("seed", 1)) + 1000;
  c.lb_threshold = static_cast<double>(args.num("threshold", 4));
  c.use_pointers = !args.flag("no-pointers");
  c.scatter_replicas = args.num_int("scatter", 0);
  c.paranoid_audits = args.flag("paranoid");
  if (c.replicas < 1) {
    std::fprintf(stderr, "invalid --replicas (expected at least 1)\n");
    throw UsageError("bad replica count");
  }
  if (c.scatter_replicas < 0 || c.scatter_replicas >= c.replicas) {
    std::fprintf(stderr, "invalid --scatter (expected 0..replicas-1)\n");
    throw UsageError("bad scatter count");
  }
  return c;
}

int cmd_locality(const Args& args) {
  args.reject_unknown("locality", {kHarvardFlags, {"workload", "node-mb"}});
  const std::string workload = args.str("workload", "harvard");
  core::LocalityParams lp;
  lp.node_capacity = mB(args.num("node-mb", 4));
  std::vector<core::BlockAccess> accesses;
  if (workload == "harvard") {
    trace::HarvardGenerator gen(harvard_params(args));
    accesses = core::LocalityAnalysis::from_harvard(gen);
  } else if (workload == "hp") {
    trace::HpParams p;
    p.apps = args.num_int("users", 20);
    p.days = args.num_int("days", 7);
    p.seed = static_cast<std::uint64_t>(args.num("seed", 7));
    trace::HpGenerator gen(p);
    accesses = core::LocalityAnalysis::from_hp(gen);
  } else if (workload == "web") {
    trace::WebParams p;
    p.clients = args.num_int("users", 40);
    p.days = args.num_int("days", 7);
    p.seed = static_cast<std::uint64_t>(args.num("seed", 11));
    trace::WebGenerator gen(p);
    accesses = core::LocalityAnalysis::from_web(gen);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", workload.c_str());
    return 2;
  }
  const core::LocalityResult r = core::LocalityAnalysis::analyze(accesses, lp);
  std::printf("workload=%s blocks=%llu nodes=%d user-hours=%llu\n",
              workload.c_str(),
              static_cast<unsigned long long>(r.distinct_blocks), r.nodes,
              static_cast<unsigned long long>(r.user_hours));
  std::printf("nodes/user-hour: traditional=%.2f ordered=%.2f lower-bound=%.2f\n",
              r.traditional_nodes_per_user_hour, r.ordered_nodes_per_user_hour,
              r.lower_bound_nodes_per_user_hour);
  std::printf("normalized: ordered=%.3f lower-bound=%.3f\n",
              r.ordered_normalized(), r.lower_bound_normalized());
  return 0;
}

int cmd_availability(const Args& args) {
  args.reject_unknown("availability", {kSystemFlags, kHarvardFlags, kSinkFlags,
                                       kTrialFlags, {"inter"}});
  core::AvailabilityParams p;
  p.system = system_config(args);
  if (!parse_scheme(args.str("scheme", "d2"), &p.system.scheme,
                    &p.system.active_load_balance)) {
    return 2;
  }
  p.workload = harvard_params(args);
  p.failure.node_count = p.system.node_count;
  p.failure.duration = days(args.num("days", 7) + 1);
  p.inter = seconds(args.num("inter", 5));
  p.warmup = days(1);
  Sinks sinks(args);
  p.metrics = sinks.registry();
  const int trials = args.num_int("trials", 1, 1);
  const auto base_seed = static_cast<std::uint64_t>(args.num("seed", 1));
  const core::TrialRunner runner(args.num_int("jobs", 0, 0));
  // Each trial records into its own tracer; the per-trial tracers are
  // merged in trial order afterwards so --trace-out output does not
  // depend on --jobs.
  std::vector<obs::Tracer> tracers(
      sinks.tracer_ptr() == nullptr ? 0 : static_cast<std::size_t>(trials));
  const std::vector<core::AvailabilityResult> results =
      runner.map<core::AvailabilityResult>(trials, [&](int t) {
        core::AvailabilityParams q = p;
        q.system.seed =
            core::derive_trial_seed(base_seed, static_cast<std::uint64_t>(t));
        if (!tracers.empty()) q.tracer = &tracers[static_cast<std::size_t>(t)];
        return core::AvailabilityExperiment(q).run();
      });
  double sum = 0;
  for (int t = 0; t < trials; ++t) {
    const core::AvailabilityResult& r = results[static_cast<std::size_t>(t)];
    std::printf(
        "trial=%d tasks=%llu failed=%llu unavailability=%.3e nodes/task=%.1f "
        "blocks/task=%.1f\n",
        t, static_cast<unsigned long long>(r.tasks),
        static_cast<unsigned long long>(r.failed_tasks),
        r.task_unavailability(), r.mean_nodes_per_task, r.mean_blocks_per_task);
    sum += r.task_unavailability();
  }
  if (trials > 1) std::printf("mean unavailability=%.3e\n", sum / trials);
  for (const obs::Tracer& tr : tracers) sinks.tracer.append(tr);
  sinks.write();
  return 0;
}

int cmd_balance(const Args& args) {
  args.reject_unknown("balance",
                      {kSystemFlags, kHarvardFlags, kSinkFlags, {"workload"}});
  core::BalanceParams p;
  p.system = system_config(args);
  if (!parse_scheme(args.str("scheme", "d2"), &p.system.scheme,
                    &p.system.active_load_balance)) {
    return 2;
  }
  const std::string workload = args.str("workload", "harvard");
  if (workload == "harvard") {
    p.workload = core::BalanceWorkload::kHarvard;
    p.harvard = harvard_params(args);
    p.warmup = days(1);
  } else if (workload == "webcache") {
    p.workload = core::BalanceWorkload::kWebcache;
    p.web.clients = args.num_int("users", 40);
    p.web.days = args.num_int("days", 7);
    p.web.seed = static_cast<std::uint64_t>(args.num("seed", 11));
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", workload.c_str());
    return 2;
  }
  Sinks sinks(args);
  p.metrics = sinks.registry();
  p.tracer = sinks.tracer_ptr();
  const core::BalanceResult r = core::BalanceExperiment(p).run();
  sinks.write();
  std::printf("mean imbalance=%.3f mean max/mean=%.2f lb-moves=%lld\n",
              r.mean_imbalance(), r.mean_max_over_mean(),
              static_cast<long long>(r.lb_moves));
  std::printf("%-6s %10s %10s %10s %12s\n", "day", "W (MB)", "R (MB)",
              "L (MB)", "T@start (MB)");
  for (std::size_t i = 0; i < r.days.size(); ++i) {
    std::printf("%-6zu %10.1f %10.1f %10.1f %12.1f\n", i,
                static_cast<double>(r.days[i].written) / mB(1),
                static_cast<double>(r.days[i].removed) / mB(1),
                static_cast<double>(r.days[i].migrated) / mB(1),
                static_cast<double>(r.days[i].total_at_start) / mB(1));
  }
  return 0;
}

int cmd_performance(const Args& args) {
  args.reject_unknown("performance", {kSystemFlags, kHarvardFlags, kSinkFlags,
                                      kTrialFlags, {"windows", "kbps", "para"}});
  core::PerformanceParams p;
  p.system = system_config(args, /*default_replicas=*/4);
  if (!parse_scheme(args.str("scheme", "d2"), &p.system.scheme,
                    &p.system.active_load_balance)) {
    return 2;
  }
  p.workload = harvard_params(args);
  p.workload.days = std::min(p.workload.days, 3);
  p.workload.target_active_bytes = mB(1) * p.system.node_count;
  p.warmup = hours(18);
  p.window_count = args.num_int("windows", 4);
  p.node_bandwidth = kbps(args.num("kbps", 1500));
  p.parallel = args.flag("para");
  Sinks sinks(args);
  p.metrics = sinks.registry();
  const int trials = args.num_int("trials", 1, 1);
  const auto base_seed = static_cast<std::uint64_t>(args.num("seed", 1));
  const core::TrialRunner runner(args.num_int("jobs", 0, 0));
  std::vector<obs::Tracer> tracers(
      sinks.tracer_ptr() == nullptr ? 0 : static_cast<std::size_t>(trials));
  const std::vector<core::PerformanceResult> results =
      runner.map<core::PerformanceResult>(trials, [&](int t) {
        core::PerformanceParams q = p;
        // A single trial keeps the historical seed (from system_config);
        // multi-seed sweeps derive one seed per trial.
        if (trials > 1) {
          q.system.seed =
              core::derive_trial_seed(base_seed, static_cast<std::uint64_t>(t));
        }
        if (!tracers.empty()) q.tracer = &tracers[static_cast<std::size_t>(t)];
        return core::PerformanceExperiment(q).run();
      });
  const auto print_result = [](const core::PerformanceResult& r) {
    SimTime total = 0;
    for (const core::GroupResult& g : r.groups) total += g.latency;
    std::printf(
        "groups=%zu mean-latency=%.2fs lookups=%llu msgs/node=%.1f "
        "miss-rate=%.1f%% tcp-cold=%llu/%llu\n",
        r.groups.size(),
        r.groups.empty()
            ? 0.0
            : to_seconds(total) / static_cast<double>(r.groups.size()),
        static_cast<unsigned long long>(r.lookups), r.lookup_messages_per_node,
        100 * r.mean_cache_miss_rate,
        static_cast<unsigned long long>(r.tcp_cold_starts),
        static_cast<unsigned long long>(r.tcp_transfers));
  };
  for (int t = 0; t < trials; ++t) {
    if (trials > 1) std::printf("trial=%d ", t);
    print_result(results[static_cast<std::size_t>(t)]);
  }
  for (const obs::Tracer& tr : tracers) sinks.tracer.append(tr);
  sinks.write();
  return 0;
}

/// --redundancy=repR | rs-K-M (e.g. rep3, rs-6-3).
void parse_redundancy(const std::string& name, core::RepairConfig* cfg) {
  if (name.rfind("rep", 0) == 0) {
    errno = 0;
    char* end = nullptr;
    const long r = std::strtol(name.c_str() + 3, &end, 10);
    if (end == name.c_str() + 3 || *end != '\0' || errno == ERANGE || r < 2) {
      std::fprintf(stderr, "invalid replication scheme: %s\n", name.c_str());
      throw UsageError("bad redundancy");
    }
    cfg->erasure = false;
    cfg->replicas = static_cast<int>(r);
    return;
  }
  if (name.rfind("rs-", 0) == 0) {
    int k = 0;
    int m = 0;
    if (std::sscanf(name.c_str(), "rs-%d-%d", &k, &m) == 2 && k >= 1 &&
        m >= 1 && k + m <= 255) {
      cfg->erasure = true;
      cfg->ec_data_fragments = k;
      cfg->ec_parity_fragments = m;
      return;
    }
  }
  std::fprintf(stderr, "unknown redundancy scheme: %s (want repR or rs-K-M)\n",
               name.c_str());
  throw UsageError("bad redundancy");
}

int cmd_repair(const Args& args) {
  args.reject_unknown(
      "repair", {{"redundancy", "nodes", "days", "seed",
                  "blocks-per-node", "block-kb", "repair-bw", "detect-mins",
                  "retry-mins", "loss-pct", "write-rate", "mttf-hours",
                  "mttr-hours", "corr-per-day", "corr-pct", "drain-hours",
                  "metrics-out"}});
  core::DurabilityParams p;
  p.repair.node_count = args.num_int("nodes", 64);
  parse_redundancy(args.str("redundancy", "rep3"), &p.repair);
  p.repair.block_size = kB(args.num("block-kb", 8));
  p.repair.repair_bandwidth = kbps(args.num("repair-bw", 750));
  p.repair.detect_delay = minutes(args.num("detect-mins", 10));
  p.repair.retry_delay = minutes(args.num("retry-mins", 5));
  p.repair.data_loss_fraction =
      static_cast<double>(args.num("loss-pct", 50)) / 100.0;
  if (p.repair.data_loss_fraction < 0.0 || p.repair.data_loss_fraction > 1.0) {
    std::fprintf(stderr, "invalid --loss-pct (expected 0..100)\n");
    throw UsageError("bad loss fraction");
  }
  p.repair.seed = static_cast<std::uint64_t>(args.num("seed", 1)) + 2000;
  p.blocks_per_node = args.num_int("blocks-per-node", 50);
  p.writes_per_node_per_day = static_cast<double>(args.num("write-rate", 24));
  p.failure.duration = days(args.num("days", 7));
  p.failure.mttf_hours = static_cast<double>(args.num("mttf-hours", 120));
  p.failure.mttr_hours = static_cast<double>(args.num("mttr-hours", 4));
  p.failure.correlated_events_per_day =
      static_cast<double>(args.num("corr-per-day", 1)) * 0.6;
  p.failure.correlated_fraction =
      static_cast<double>(args.num("corr-pct", 15)) / 100.0;
  p.drain = hours(args.num("drain-hours", 12));
  p.failure_seed = static_cast<std::uint64_t>(args.num("seed", 1)) + 42;
  Sinks sinks(args);
  p.metrics = sinks.registry();

  const core::DurabilityResult r = core::run_durability(p);
  sinks.write();
  const core::RepairStats& s = r.stats;
  std::printf(
      "scheme=%s nodes=%d blocks=%zu days=%ld storage-overhead=%.2fx\n",
      args.str("redundancy", "rep3").c_str(), p.repair.node_count, s.blocks,
      args.num("days", 7),
      static_cast<double>(p.repair.erasure
                              ? p.repair.ec_data_fragments +
                                    p.repair.ec_parity_fragments
                              : p.repair.replicas) /
          static_cast<double>(p.repair.erasure ? p.repair.ec_data_fragments
                                               : 1));
  std::printf(
      "durability: lost=%llu/%zu unrecoverable=%.3e\n",
      static_cast<unsigned long long>(s.blocks_lost), s.blocks,
      r.unrecoverable_fraction);
  std::printf(
      "repair traffic: L=%.1fMB W=%.1fMB L/W=%.3f\n",
      static_cast<double>(s.repair_bytes) / mB(1),
      static_cast<double>(s.user_write_bytes) / mB(1), r.l_over_w);
  std::printf(
      "repairs: started=%llu completed=%llu retries=%llu verified=%llu "
      "failed-writes=%llu\n",
      static_cast<unsigned long long>(s.repairs_started),
      static_cast<unsigned long long>(s.repairs_completed),
      static_cast<unsigned long long>(s.repair_retries),
      static_cast<unsigned long long>(s.verified_reconstructions),
      static_cast<unsigned long long>(s.writes_failed));
  std::printf("mttr: episodes=%zu mean=%.1fs p99=%.1fs open=%zu\n",
              s.mttr_episodes, s.mttr_mean_s, s.mttr_p99_s, s.open_episodes);
  std::printf("events=%llu\n", static_cast<unsigned long long>(r.events));
  return 0;
}

int cmd_trace_gen(const Args& args) {
  args.reject_unknown("trace-gen", {kHarvardFlags, {"workload", "out"}});
  const std::string workload = args.str("workload", "harvard");
  const std::string out = args.str("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "trace-gen requires --out=FILE\n");
    return 2;
  }
  // Record paths are views into the generator's arena, so the generator
  // must stay alive until the records are written.
  const auto emit = [&](const std::vector<trace::TraceRecord>& records) {
    trace::write_trace_file(out, records);
    std::printf("wrote %zu records to %s\n", records.size(), out.c_str());
    return 0;
  };
  if (workload == "harvard") {
    trace::HarvardGenerator gen(harvard_params(args));
    return emit(gen.records());
  }
  if (workload == "hp") {
    trace::HpParams p;
    p.apps = args.num_int("users", 20);
    p.days = args.num_int("days", 7);
    trace::HpGenerator gen(p);
    return emit(gen.records());
  }
  if (workload == "web") {
    trace::WebParams p;
    p.clients = args.num_int("users", 40);
    p.days = args.num_int("days", 7);
    trace::WebGenerator gen(p);
    return emit(gen.records());
  }
  std::fprintf(stderr, "unknown workload: %s\n", workload.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  Args args(argc, argv);
  if (!args.ok()) return usage();
  try {
    if (cmd == "locality") return cmd_locality(args);
    if (cmd == "availability") return cmd_availability(args);
    if (cmd == "balance") return cmd_balance(args);
    if (cmd == "performance") return cmd_performance(args);
    if (cmd == "repair") return cmd_repair(args);
    if (cmd == "trace-gen") return cmd_trace_gen(args);
  } catch (const UsageError&) {
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
