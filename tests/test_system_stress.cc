// Randomized stress tests of the System: arbitrary interleavings of puts,
// removes, load-balancing moves and failures, with global invariants
// verified at quiescence. These are the "failure injection" tests the
// deterministic unit tests can't cover.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "core/system.h"
#include "sim/failure.h"

namespace d2::core {
namespace {

/// Checks the §3 invariant at a quiescent, all-up moment: every block's
/// replica set is exactly the r successors of its key, every member holds
/// data, and no stale holders remain.
void expect_canonical_state(System& sys) {
  const int r = sys.config().replicas;
  sys.block_map().for_each_block([&](const Key& key,
                                     const store::BlockState& block) {
    ASSERT_EQ(static_cast<int>(block.replicas.size()), r)
        << "block " << key.short_hex();
    if (sys.config().scatter_replicas == 0) {
      int node = sys.ring().owner(key);
      for (const store::Replica& rep : block.replicas) {
        EXPECT_EQ(rep.node, node) << "block " << key.short_hex();
        node = sys.ring().successor(node);
      }
    }
    for (const store::Replica& rep : block.replicas) {
      EXPECT_TRUE(rep.has_data) << "block " << key.short_hex();
    }
    EXPECT_TRUE(block.stale_holders.empty()) << "block " << key.short_hex();
    EXPECT_TRUE(sys.block_available(key));
  });
}

struct StressOptions {
  SystemConfig config;
  int steps = 600;
  bool with_failures = false;
  std::uint64_t seed = 1;
};

void run_stress(const StressOptions& opt) {
  sim::Simulator sim;
  System sys(opt.config, sim);
  Rng rng(opt.seed);

  sim::FailureTrace trace = sim::FailureTrace::all_up(opt.config.node_count,
                                                      days(30));
  if (opt.with_failures) {
    sim::FailureParams fp;
    fp.node_count = opt.config.node_count;
    fp.duration = days(10);
    fp.mttf_hours = 30;
    fp.mttr_hours = 3;
    fp.correlated_events_per_day = 1.0;
    fp.correlated_fraction = 0.25;
    Rng frng(opt.seed ^ 0xbeef);
    trace = sim::FailureTrace::generate(fp, frng);
  }
  sys.attach_failure_trace(&trace, 0);
  sys.start_load_balancing();

  std::vector<Key> live;
  std::uint64_t next_key = 0;
  for (int step = 0; step < opt.steps; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.55 || live.empty()) {
      // Mostly sequential keys (locality-preserving pattern), some random.
      Key k = rng.bernoulli(0.8)
                  ? Key::from_uint64(1'000'000 + 64 * next_key++)
                  : Key::random(rng);
      if (!sys.has(k)) {
        sys.put(k, 512 + static_cast<Bytes>(rng.next_below(kB(16))));
        live.push_back(k);
      }
    } else if (roll < 0.75) {
      const std::size_t i = rng.next_below(live.size());
      sys.remove(live[i]);
      live.erase(live.begin() + static_cast<long>(i));
    } else {
      sys.probe_once(static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(opt.config.node_count))));
    }
    sim.run_until(sim.now() + minutes(10));
  }

  // Quiesce: run far past the failure trace, every pointer stabilization
  // and every retry backoff.
  sim.run_until(days(20));
  sim.run_until(days(40));
  expect_canonical_state(sys);

  // Everything we didn't remove is still there; everything we removed is
  // gone.
  std::set<Key> live_set(live.begin(), live.end());
  EXPECT_EQ(sys.block_map().block_count(), live_set.size());
  for (const Key& k : live) EXPECT_TRUE(sys.has(k));
}

class StressSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StressSweep, QuiescesToCanonicalState) {
  StressOptions opt;
  opt.config.node_count = 20;
  opt.config.replicas = 3;
  opt.config.seed = GetParam();
  opt.seed = GetParam();
  run_stress(opt);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressSweep, ::testing::Values(1, 2, 3, 4));

class StressFailureSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StressFailureSweep, QuiescesDespiteFailures) {
  StressOptions opt;
  opt.config.node_count = 20;
  opt.config.replicas = 3;
  opt.config.regen_delay = minutes(20);
  opt.config.seed = GetParam();
  opt.seed = GetParam();
  opt.with_failures = true;
  opt.steps = 400;
  run_stress(opt);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressFailureSweep, ::testing::Values(5, 6, 7));

TEST(SystemStress, PointersQuiesceToo) {
  StressOptions opt;
  opt.config.node_count = 24;
  opt.config.replicas = 3;
  opt.config.use_pointers = true;
  opt.config.pointer_stabilization = hours(2);
  opt.seed = 11;
  run_stress(opt);
}

TEST(SystemStress, HybridPlacementQuiesces) {
  StressOptions opt;
  opt.config.node_count = 24;
  opt.config.replicas = 4;
  opt.config.scatter_replicas = 1;
  opt.seed = 12;
  opt.steps = 400;
  run_stress(opt);
}

TEST(SystemStress, ErasureQuiesces) {
  StressOptions opt;
  opt.config.node_count = 24;
  opt.config.replicas = 5;
  opt.config.ec_data_fragments = 3;
  opt.seed = 13;
  opt.steps = 400;
  run_stress(opt);
}

}  // namespace
}  // namespace d2::core
