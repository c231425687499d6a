// System-level configuration shared by all experiments.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "fs/volume.h"
#include "sim/timing_wheel.h"

namespace d2::core {

struct SystemConfig {
  int node_count = 200;

  /// Members per block (n), placed on the successors of its key. The
  /// paper uses 3 in the availability study and 4 in the performance
  /// study.
  int replicas = 3;

  /// Redundancy (§3): any k of a block's n members serve or rebuild it,
  /// each storing ceil(size / k) bytes. k = 1 is whole-block replication
  /// (the paper's choice, "for simplicity"); k > 1 is (n, k) erasure
  /// coding, which saves storage (n/k x instead of n x) at the cost of
  /// read fan-out and k x repair traffic. Requires 1 <= k <= n.
  int ec_data_fragments = 1;

  /// Hybrid placement (the paper's §11 future work): this many of the n
  /// members are placed at consistent-hash positions of the key instead
  /// of on the successor chain. Scattered replicas restore parallel
  /// download bandwidth for large files and resist targeted ID-space
  /// attacks, at the cost of extra lookup state. 0 = pure D2 placement.
  /// Requires 0 <= scatter_replicas < replicas, and k = 1.
  int scatter_replicas = 0;

  /// Key scheme of the system under test (D2 or a baseline).
  fs::KeyScheme scheme = fs::KeyScheme::kD2;

  /// Mercury-style active load balancing (on for D2 and for the
  /// "Traditional+Merc" comparison system of §10).
  bool active_load_balance = true;

  /// Use block pointers to defer migration (§6). Off = eager transfer on
  /// every ID change (the ablation in Table 4).
  bool use_pointers = true;

  /// Load-balancing probe interval (§8.1: 10 minutes). Probes are
  /// evaluated at System::kProbeCommitInterval commit ticks (DESIGN.md
  /// §12), so this must be at least twice that quantum.
  SimTime probe_interval = minutes(10);

  /// Pointer stabilization time (§8.1: 1 hour).
  SimTime pointer_stabilization = hours(1);

  /// Block removal delay (§3: 30 seconds, matching view staleness).
  SimTime remove_delay = seconds(30);

  /// Blocks are also removed automatically after this TTL unless
  /// refreshed (§3: removal can fail when nodes are partitioned, so
  /// blocks expire unless their publisher refreshes them). 0 disables
  /// expiry (the default for experiments, which model explicit removal).
  SimTime block_ttl = 0;

  /// Per-node bandwidth cap on migration traffic (§8.1: 750 kbps).
  BitRate migration_bandwidth = kbps(750);

  /// Load-balance trigger threshold t (§6: 4).
  double lb_threshold = 4.0;

  /// How long a node must stay down before its blocks regenerate onto the
  /// next successor.
  SimTime regen_delay = minutes(30);

  /// What remains of the removed arc-partitioned engine: the simulation
  /// core is serial, and System accepts only arcs = 1, arc_workers = 1.
  int arcs = 1;
  int arc_workers = 1;

  /// Event-queue backend (DESIGN.md §11): the hierarchical timing wheel,
  /// or the binary heap retained as the differential reference. Seeded
  /// outputs are byte-identical either way (`--scheduler heap|wheel`).
  sim::SchedulerKind scheduler = sim::SchedulerKind::kWheel;

  /// Run full-structure invariant audits (ring + block map cross-checks)
  /// after topology changes and sampled mutations, in any build. Paranoid
  /// builds (-DD2_PARANOID=ON) audit unconditionally; this flag lets
  /// `d2sim --paranoid` opt a release binary in at runtime.
  bool paranoid_audits = false;

  std::uint64_t seed = 1;
};

}  // namespace d2::core
