// Golden determinism guard for the hot-path data layout.
//
// Runs one small seeded availability trial and one performance trial and
// checksums every per-trial output that the paper's figures are computed
// from (task counts, per-user unavailability, group latencies, lookup and
// cache counters, lb_moves, migration bytes). The expected values below
// were recorded from the byte-wise Key / map-based BlockMap / hash-map
// EventQueue implementation; any hot-path rewrite (limb keys, slab event
// queue, contiguous block index, ...) must reproduce them bit-for-bit.
// A third checksum covers the file-system layer alone: the StoreOp stream
// the trace replay produces before any System sees it. The durability
// checksums pin core::RepairEngine's results: every RepairStats field
// and the event count of a small rep3 week and a small rs-4-2 week.
//
// If this test fails after an intentional *semantic* change (new physics,
// different replica policy), re-record the constants by running the test
// and copying the "actual" values from the failure message — but a pure
// data-layout or performance change must never need that.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "core/availability.h"
#include "core/performance.h"
#include "core/repair.h"
#include "core/replay.h"
#include "trace/harvard_gen.h"

namespace d2::core {
namespace {

/// FNV-1a over a string; the string is assembled from fixed-format fields
/// so the checksum is stable across platforms with IEEE-754 doubles.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void append_u64(std::string* s, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ";", v);
  s->append(buf);
}

void append_i64(std::string* s, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64 ";", v);
  s->append(buf);
}

void append_f(std::string* s, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g;", v);
  s->append(buf);
}

trace::HarvardParams golden_workload() {
  trace::HarvardParams p;
  p.users = 6;
  p.days = 2;
  p.target_active_bytes = mB(16);
  p.accesses_per_user_day = 120;
  p.seed = 4242;
  return p;
}

SystemConfig golden_system(int nodes) {
  SystemConfig c;
  c.node_count = nodes;
  c.replicas = 3;
  c.scheme = fs::KeyScheme::kD2;
  c.active_load_balance = true;
  c.seed = 77;
  return c;
}

// Re-pinned for fetch-timer ownership: a replica-set member keeps at most
// one pending fetch timer, and only that timer may start its fetch. A
// node that rejoins a block's set no longer fetches early off a timer
// its previous membership left behind, which shifts migration_bytes.
constexpr std::uint64_t kAvailabilityGolden = 5949234668160264810ull;
// The same availability trial under (n, k) = (6, 3) erasure coding,
// recorded while erasure was still a separate redundancy mode of System,
// before replication and erasure became one (n, k) model.
constexpr std::uint64_t kErasureAvailabilityGolden = 8648261805120728046ull;
// Re-pinned after the TcpModel partial-final-window fix: slow start now
// grows cwnd only by the packets actually acknowledged in the last RTT of
// a transfer, which shifts every downstream latency figure.
constexpr std::uint64_t kPerformanceGolden = 18256943228967445713ull;
// The file-system layer's own output: every StoreOp (kind, key, size)
// that VolumeSet::insert_initial and apply emit for golden_workload(),
// under D2, traditional and traditional-file keys in that order. Pins the
// write-back cache's flush order and the path routing directly, without
// going through a System.
constexpr std::uint64_t kFsOpStreamGolden = 4425017394829546145ull;
// RepairEngine's outputs for durability_scenario(): the rep3 week and the
// rs-4-2 week, recorded while it still found a node's blocks by scanning
// the whole block map and kept its per-block state in Key-keyed maps.
constexpr std::uint64_t kRep3DurabilityGolden = 8296615601259288080ull;
constexpr std::uint64_t kRs42DurabilityGolden = 17681754452533926099ull;

/// One seeded availability trial with (n, k) redundancy, reduced to a
/// checksum over every figure-bearing output.
std::uint64_t availability_checksum(int n = 3, int k = 1) {
  AvailabilityParams p;
  p.system = golden_system(20);
  p.system.replicas = n;
  p.system.ec_data_fragments = k;
  p.workload = golden_workload();
  p.failure.node_count = p.system.node_count;
  p.failure.duration = days(3);
  p.failure.mttf_hours = 40;
  p.failure.mttr_hours = 6;
  p.failure.correlated_events_per_day = 1.5;
  p.failure.correlated_fraction = 0.3;
  p.warmup = hours(12);

  const AvailabilityResult r = AvailabilityExperiment(p).run();

  std::string s;
  append_u64(&s, r.tasks);
  append_u64(&s, r.failed_tasks);
  append_f(&s, r.mean_blocks_per_task);
  append_f(&s, r.mean_files_per_task);
  append_f(&s, r.mean_nodes_per_task);
  append_i64(&s, r.migration_bytes);
  append_i64(&s, r.lb_moves);
  append_u64(&s, r.unknown_key_gets);
  for (const auto& [user, unavail] : r.per_user_unavailability) {
    append_i64(&s, user);
    append_f(&s, unavail);
  }
  return fnv1a(s);
}

/// One seeded performance trial, same idea.
std::uint64_t performance_checksum() {
  PerformanceParams p;
  p.system = golden_system(24);
  p.workload = golden_workload();
  p.warmup = hours(6);
  p.window_count = 8;

  const PerformanceResult r = PerformanceExperiment(p).run();

  std::string s;
  for (const GroupResult& g : r.groups) {
    append_i64(&s, g.user);
    append_u64(&s, g.group_id);
    append_i64(&s, g.latency);
    append_i64(&s, g.block_gets);
  }
  append_u64(&s, r.lookup_messages);
  append_u64(&s, r.lookups);
  append_u64(&s, r.cache_hits);
  append_u64(&s, r.cache_misses);
  append_f(&s, r.lookup_messages_per_node);
  append_f(&s, r.mean_cache_miss_rate);
  append_u64(&s, r.tcp_cold_starts);
  append_u64(&s, r.tcp_transfers);
  return fnv1a(s);
}

/// A week of independent and correlated failures, with disk loss and
/// foreground writes, over a small populated system: `erasure` picks
/// rs-4-2, otherwise rep3. Both schemes lose blocks and retry repairs.
DurabilityParams durability_scenario(bool erasure) {
  DurabilityParams p;
  p.repair.node_count = 20;
  p.repair.erasure = erasure;
  p.repair.replicas = 3;
  p.repair.ec_data_fragments = 4;
  p.repair.ec_parity_fragments = 2;
  p.repair.data_loss_fraction = 0.65;
  p.repair.seed = 5;
  p.blocks_per_node = 4;
  p.writes_per_node_per_day = 6;
  p.failure.duration = days(7);
  p.failure.mttf_hours = 40;
  p.failure.mttr_hours = 4;
  p.failure.correlated_events_per_day = 0.7;
  p.failure.correlated_fraction = 0.3;
  p.drain = hours(12);
  p.failure_seed = 12;
  return p;
}

/// Every RepairStats outcome and the event count, as one string.
/// node_event_blocks is left out: it counts work, not results.
std::string durability_fingerprint(const DurabilityResult& r) {
  const RepairStats& st = r.stats;
  std::string s;
  append_u64(&s, st.blocks);
  append_u64(&s, st.blocks_lost);
  append_i64(&s, st.repair_bytes);
  append_i64(&s, st.user_write_bytes);
  append_u64(&s, st.repairs_started);
  append_u64(&s, st.repairs_completed);
  append_u64(&s, st.repair_retries);
  append_u64(&s, st.verified_reconstructions);
  append_u64(&s, st.writes_failed);
  append_u64(&s, st.mttr_episodes);
  append_f(&s, st.mttr_mean_s);
  append_f(&s, st.mttr_p99_s);
  append_u64(&s, st.open_episodes);
  append_u64(&s, r.events);
  return s;
}

/// FNV-1a folded over every StoreOp the fs layer emits for the golden
/// workload, one key scheme after another.
std::uint64_t fs_op_stream_checksum() {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  const trace::HarvardGenerator gen(golden_workload());
  for (const fs::KeyScheme scheme :
       {fs::KeyScheme::kD2, fs::KeyScheme::kTraditionalBlock,
        fs::KeyScheme::kTraditionalFile}) {
    VolumeSet volumes(scheme);
    std::vector<fs::StoreOp> ops;
    volumes.insert_initial(gen.initial_files(), 0, ops);
    for (const trace::TraceRecord& r : gen.records()) {
      volumes.apply(r, r.time, ops);
    }
    for (const fs::StoreOp& op : ops) {
      mix(static_cast<std::uint8_t>(op.kind));
      for (const std::uint8_t b : op.key.bytes()) mix(b);
      for (int i = 0; i < 8; ++i) {
        mix(static_cast<std::uint8_t>(static_cast<std::uint64_t>(op.size) >>
                                      (8 * i)));
      }
    }
  }
  return h;
}

TEST(DeterminismGolden, FsOpStreamChecksum) {
  const std::uint64_t checksum = fs_op_stream_checksum();
  EXPECT_EQ(checksum, kFsOpStreamGolden)
      << "fs op stream drifted; actual checksum=" << checksum;
}

TEST(DeterminismGolden, DurabilityChecksum) {
  const struct {
    bool erasure;
    std::uint64_t golden;
  } schemes[] = {{false, kRep3DurabilityGolden},
                 {true, kRs42DurabilityGolden}};
  for (const auto& scheme : schemes) {
    const std::string fp =
        durability_fingerprint(run_durability(durability_scenario(scheme.erasure)));
    EXPECT_EQ(fnv1a(fp), scheme.golden)
        << (scheme.erasure ? "rs-4-2" : "rep3")
        << " drifted; actual checksum=" << fnv1a(fp) << " fingerprint=" << fp;
  }
}

TEST(DeterminismGolden, AvailabilityTrialChecksum) {
  const std::uint64_t checksum = availability_checksum();
  EXPECT_EQ(checksum, kAvailabilityGolden)
      << "availability outputs drifted; actual checksum=" << checksum;
}

TEST(DeterminismGolden, ErasureAvailabilityTrialChecksum) {
  const std::uint64_t checksum = availability_checksum(6, 3);
  EXPECT_EQ(checksum, kErasureAvailabilityGolden)
      << "erasure availability outputs drifted; actual checksum=" << checksum;
}

TEST(DeterminismGolden, PerformanceTrialChecksum) {
  const std::uint64_t checksum = performance_checksum();
  EXPECT_EQ(checksum, kPerformanceGolden)
      << "performance outputs drifted; actual checksum=" << checksum;
}

}  // namespace
}  // namespace d2::core
