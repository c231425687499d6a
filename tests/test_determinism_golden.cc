// Golden determinism guard for the hot-path data layout.
//
// Runs one small seeded availability trial and one performance trial and
// checksums every per-trial output that the paper's figures are computed
// from (task counts, per-user unavailability, group latencies, lookup and
// cache counters, lb_moves, migration bytes). The expected values below
// were recorded from the byte-wise Key / map-based BlockMap / hash-map
// EventQueue implementation; any hot-path rewrite (limb keys, slab event
// queue, contiguous block index, ...) must reproduce them bit-for-bit.
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
// Re-pinned after the TcpModel partial-final-window fix: slow start now
// grows cwnd only by the packets actually acknowledged in the last RTT of
// a transfer, which shifts every downstream latency figure.
constexpr std::uint64_t kPerformanceGolden = 18256943228967445713ull;

/// One seeded availability trial with the given partitioning, reduced to
/// a checksum over every figure-bearing output.
std::uint64_t availability_checksum(int arcs, int arc_workers) {
  AvailabilityParams p;
  p.system = golden_system(20);
  p.system.arcs = arcs;
  p.system.arc_workers = arc_workers;
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
std::uint64_t performance_checksum(int arcs, int arc_workers) {
  PerformanceParams p;
  p.system = golden_system(24);
  p.system.arcs = arcs;
  p.system.arc_workers = arc_workers;
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

TEST(DeterminismGolden, AvailabilityTrialChecksum) {
  const std::uint64_t checksum = availability_checksum(1, 1);
  EXPECT_EQ(checksum, kAvailabilityGolden)
      << "availability outputs drifted; actual checksum=" << checksum;
}

TEST(DeterminismGolden, PerformanceTrialChecksum) {
  const std::uint64_t checksum = performance_checksum(1, 1);
  EXPECT_EQ(checksum, kPerformanceGolden)
      << "performance outputs drifted; actual checksum=" << checksum;
}

// Arc variants: partitioning the simulation core (DESIGN.md §9) is a
// pure execution-strategy change, so every (arcs, workers) combination
// must land on the same pinned constants as the single-queue engine —
// serial multi-arc first, then parallel lanes.
TEST(DeterminismGolden, AvailabilityChecksumInvariantUnderArcs) {
  EXPECT_EQ(availability_checksum(4, 1), kAvailabilityGolden);
  EXPECT_EQ(availability_checksum(13, 1), kAvailabilityGolden);
  EXPECT_EQ(availability_checksum(4, 4), kAvailabilityGolden);
  EXPECT_EQ(availability_checksum(13, 3), kAvailabilityGolden);
}

TEST(DeterminismGolden, PerformanceChecksumInvariantUnderArcs) {
  EXPECT_EQ(performance_checksum(4, 1), kPerformanceGolden);
  EXPECT_EQ(performance_checksum(13, 1), kPerformanceGolden);
  EXPECT_EQ(performance_checksum(4, 4), kPerformanceGolden);
  EXPECT_EQ(performance_checksum(13, 3), kPerformanceGolden);
}

}  // namespace
}  // namespace d2::core
