// Ablation: whole-block replication vs erasure coding (paper §3).
//
// The paper chooses replication "for simplicity" and argues the
// D2-vs-traditional comparison holds under either scheme. Part 1 runs the
// availability experiment for both redundancy schemes under both key
// schemes: replication r is the (n, k) = (r, 1) code. Part 2 runs the
// real repair engine (core/repair.h, fragments produced by the store/ec.h
// Reed–Solomon codec) through a correlated mass-failure week and reports
// durability, repair traffic (L/W), and MTTR — the storage overheads are
// derived from each run's (n, k), not hardcoded.
#include "bench_common.h"
#include "core/repair.h"

using namespace d2;

namespace {

/// Physical bytes per logical byte of an (n, k) code: n members of
/// size/k each.
double storage_overhead(int n, int k) {
  return static_cast<double>(n) / static_cast<double>(k);
}

struct Row {
  const char* name;
  double unavailability;
  double storage_x;  // physical bytes / logical bytes
  Bytes migration;
};

Row run(const char* name, fs::KeyScheme scheme, int n, int k) {
  const int nodes = bench::availability_nodes();
  core::AvailabilityParams p;
  p.system = bench::system_config(scheme, nodes, 104);
  p.system.replicas = n;
  p.system.ec_data_fragments = k;
  p.workload = bench::harvard_workload();
  p.failure = bench::failure_params(nodes);
  p.failure_seed = 900;
  p.warmup = days(1);
  p.inter = seconds(5);
  const core::AvailabilityResult r = core::AvailabilityExperiment(p).run();
  return Row{name, r.task_unavailability(), storage_overhead(n, k),
             r.migration_bytes};
}

struct RepairRow {
  const char* name;
  core::DurabilityResult result;
  double storage_x;
};

RepairRow run_repair(const char* name, bool erasure) {
  core::DurabilityParams p;
  p.repair.node_count = bench::availability_nodes();
  p.repair.erasure = erasure;
  p.repair.replicas = 3;
  p.repair.ec_data_fragments = 6;
  p.repair.ec_parity_fragments = 3;
  p.repair.seed = 901;
  p.blocks_per_node = 30;
  p.failure = bench::failure_params(p.repair.node_count);
  p.failure_seed = 902;
  const core::DurabilityResult r = core::run_durability(p);
  const int k = erasure ? p.repair.ec_data_fragments : 1;
  const int n = erasure ? k + p.repair.ec_parity_fragments : p.repair.replicas;
  return RepairRow{name, r, storage_overhead(n, k)};
}

}  // namespace

int main() {
  bench::print_header("Ablation: replication vs erasure coding",
                      "redundancy discussion in Section 3");

  std::printf("%-28s %16s %10s %16s\n", "system", "unavailability",
              "storage x", "repair (MB)");
  const Row rows[] = {
      run("d2 + replication(3)", fs::KeyScheme::kD2, 3, 1),
      run("d2 + erasure(6,3)", fs::KeyScheme::kD2, 6, 3),
      run("traditional + replication(3)",
          fs::KeyScheme::kTraditionalBlock, 3, 1),
      run("traditional + erasure(6,3)",
          fs::KeyScheme::kTraditionalBlock, 6, 3),
  };
  for (const Row& r : rows) {
    std::printf("%-28s %16.2e %10.1f %16.1f\n", r.name, r.unavailability,
                r.storage_x, static_cast<double>(r.migration) / mB(1));
  }

  std::printf(
      "\nself-heal engine under a correlated-failure week (real RS codec,\n"
      "every reconstruction decode-verified):\n");
  std::printf("%-12s %10s %12s %8s %12s %12s\n", "scheme", "storage x",
              "lost/blocks", "L/W", "mttr (s)", "repairs");
  const RepairRow repair_rows[] = {
      run_repair("rep3", false),
      run_repair("rs-6-3", true),
  };
  for (const RepairRow& r : repair_rows) {
    std::printf("%-12s %10.2f %7llu/%-5zu %8.3f %12.1f %12llu\n", r.name,
                r.storage_x,
                static_cast<unsigned long long>(r.result.stats.blocks_lost),
                r.result.stats.blocks, r.result.l_over_w,
                r.result.stats.mttr_mean_s,
                static_cast<unsigned long long>(
                    r.result.stats.repairs_completed));
  }
  std::printf(
      "\nexpected (the paper's §3 argument): D2 beats traditional under\n"
      "either redundancy scheme; erasure coding cuts storage but pays\n"
      "~k x repair traffic per lost fragment and widens the failure\n"
      "surface under correlated outages.\n");
  return 0;
}
