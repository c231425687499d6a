// Shared configuration for the per-figure/table benchmark harnesses.
//
// Every bench binary reproduces one table or figure from the paper. The
// default parameters are laptop-scale (each binary finishes in seconds to
// a couple of minutes); set D2_BENCH_SCALE=<factor> to multiply workload
// size and node counts towards paper scale (factor ~4-8 approaches the
// original 247-1000 node setups).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/availability.h"
#include "core/balance.h"
#include "core/config.h"
#include "core/performance.h"
#include "core/trial_runner.h"
#include "obs/metrics.h"
#include "trace/harvard_gen.h"
#include "trace/hp_gen.h"
#include "trace/web_gen.h"

namespace d2::bench {

/// Process-wide metrics registry shared by every bench harness. Successive
/// experiment runs in one binary accumulate into the same instruments, so
/// the exit-time dump summarises the whole binary.
inline obs::Registry& metrics() {
  static obs::Registry registry;
  return registry;
}

namespace detail {
inline void dump_metrics() {
  if (const char* out = std::getenv("D2_BENCH_METRICS")) {
    if (std::string(out) != "-") {
      metrics().write_json_file(out);
      std::fprintf(stderr, "wrote %zu metrics to %s\n",
                   metrics().instrument_count(), out);
      return;
    }
  }
  std::printf("\n-- metrics --\n%s\n", metrics().to_json().c_str());
}
}  // namespace detail

/// Process-wide trial runner shared by every bench harness. Independent
/// experiment runs (grid cells, repeated seeds) fan out across
/// D2_BENCH_JOBS worker threads (default: hardware concurrency;
/// D2_BENCH_JOBS=1 forces the serial path). Results are always collected
/// and printed in submission order, so output is identical at any job
/// count.
inline const core::TrialRunner& runner() {
  static const core::TrialRunner r = [] {
    int jobs = 0;
    if (const char* s = std::getenv("D2_BENCH_JOBS")) jobs = std::atoi(s);
    return core::TrialRunner(jobs);
  }();
  return r;
}

inline double scale_factor() {
  if (const char* s = std::getenv("D2_BENCH_SCALE")) {
    const double v = std::atof(s);
    if (v > 0) return v;
  }
  return 1.0;
}

inline int scaled(int base) {
  return static_cast<int>(static_cast<double>(base) * scale_factor());
}

/// The standard Harvard-like workload used across benches (Table 1 row 2
/// substitute), scaled.
inline trace::HarvardParams harvard_workload(std::uint64_t seed = 42) {
  trace::HarvardParams p;
  p.users = scaled(20);
  p.days = 7;
  p.target_active_bytes = static_cast<Bytes>(mB(96) * scale_factor());
  p.accesses_per_user_day = 300;
  p.seed = seed;
  return p;
}

inline trace::HpParams hp_workload(std::uint64_t seed = 7) {
  trace::HpParams p;
  p.apps = scaled(20);
  p.days = 7;
  p.accesses_per_app_day = 1200;
  p.seed = seed;
  return p;
}

inline trace::WebParams web_workload(std::uint64_t seed = 11) {
  trace::WebParams p;
  p.clients = scaled(40);
  p.days = 7;
  p.sites = scaled(200);
  p.requests_per_client_day = 250;
  p.seed = seed;
  return p;
}

inline core::SystemConfig system_config(fs::KeyScheme scheme, int nodes,
                                        std::uint64_t seed = 1) {
  core::SystemConfig c;
  c.node_count = nodes;
  c.scheme = scheme;
  // Active balancing is D2's companion; the traditional baselines rely on
  // consistent hashing alone (Traditional+Merc turns it back on).
  c.active_load_balance = scheme == fs::KeyScheme::kD2;
  c.seed = seed;
  return c;
}

/// §8.1 availability testbed node count, scaled from the paper's 247.
inline int availability_nodes() { return scaled(64); }

/// §9 performance system sizes, scaled stand-ins for {200, 500, 1000}.
inline std::vector<int> performance_sizes() {
  return {scaled(64), scaled(128), scaled(256)};
}

inline sim::FailureParams failure_params(int nodes) {
  sim::FailureParams f;
  f.node_count = nodes;
  f.duration = days(8);
  // Compressed PlanetLab-like week: enough failure mass that a scaled-down
  // run still observes task failures.
  f.mttf_hours = 60;
  f.mttr_hours = 5;
  f.correlated_events_per_day = 0.8;
  f.correlated_fraction = 0.2;
  f.correlated_outage_hours = 2.0;
  return f;
}

/// One §9 performance run. Workload data scales with system size (the
/// paper replicates the file system as nodes grow).
inline core::PerformanceResult perf_run(fs::KeyScheme scheme, int nodes,
                                        BitRate bandwidth, bool parallel,
                                        std::uint64_t seed = 1) {
  core::PerformanceParams p;
  p.system = system_config(scheme, nodes, seed);
  p.system.replicas = 4;  // §9.1: 4 replicas per object
  p.workload = harvard_workload();
  p.workload.days = 3;  // windows sample the first days; keeps runs fast
  p.workload.target_active_bytes =
      static_cast<Bytes>(mB(1) * nodes * scale_factor());
  p.warmup = hours(18);
  p.window_count = 4;
  p.node_bandwidth = bandwidth;
  p.parallel = parallel;
  p.metrics = &metrics();
  return core::PerformanceExperiment(p).run();
}

/// One cell of a §9 performance grid; see perf_runs().
struct PerfSpec {
  fs::KeyScheme scheme;
  int nodes;
  BitRate bandwidth;
  bool parallel;
  std::uint64_t seed = 1;
};

/// Runs one perf_run() per spec across the shared runner()'s threads and
/// returns the results in spec order. Each run owns its Simulator/System;
/// they only share the (thread-safe) bench metrics registry.
inline std::vector<core::PerformanceResult> perf_runs(
    const std::vector<PerfSpec>& specs) {
  return runner().map<core::PerformanceResult>(
      static_cast<int>(specs.size()), [&](int i) {
        const PerfSpec& s = specs[static_cast<std::size_t>(i)];
        return perf_run(s.scheme, s.nodes, s.bandwidth, s.parallel, s.seed);
      });
}

/// Runs one BalanceExperiment per parameter set in parallel; results come
/// back in input order.
inline std::vector<core::BalanceResult> balance_runs(
    const std::vector<core::BalanceParams>& params) {
  return runner().map<core::BalanceResult>(
      static_cast<int>(params.size()), [&](int i) {
        return core::BalanceExperiment(params[static_cast<std::size_t>(i)])
            .run();
      });
}

/// Runs one AvailabilityExperiment per parameter set in parallel; results
/// come back in input order.
inline std::vector<core::AvailabilityResult> availability_runs(
    const std::vector<core::AvailabilityParams>& params) {
  return runner().map<core::AvailabilityResult>(
      static_cast<int>(params.size()), [&](int i) {
        return core::AvailabilityExperiment(params[static_cast<std::size_t>(i)])
            .run();
      });
}

inline const char* scheme_name(fs::KeyScheme s) {
  switch (s) {
    case fs::KeyScheme::kD2:
      return "d2";
    case fs::KeyScheme::kTraditionalBlock:
      return "traditional";
    case fs::KeyScheme::kTraditionalFile:
      return "traditional-file";
  }
  return "?";
}

/// Prints the standard bench banner and arranges for the shared metrics
/// block to be emitted when the binary exits (a JSON file when
/// D2_BENCH_METRICS names one, stdout otherwise). Every bench binary calls
/// this, so they all produce the same metrics block.
inline void print_header(const char* title, const char* paper_ref) {
  static const bool metrics_registered = [] {
    metrics();  // construct the registry first so it outlives the dump
    std::atexit(detail::dump_metrics);
    return true;
  }();
  (void)metrics_registered;
  std::printf("==============================================================\n");
  std::printf("%s\n  (reproduces %s; D2_BENCH_SCALE=%.1f)\n", title, paper_ref,
              scale_factor());
  std::printf("==============================================================\n");
}

}  // namespace d2::bench
