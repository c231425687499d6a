// Erasure-coded redundancy (paper §3's alternative to whole-block
// replication): n fragments of size/k on the n successors, any k of which
// reconstruct the block. Replication is the same model at k = 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "core/system.h"
#include "sim/failure.h"

namespace d2::core {

/// Test hook: applies chosen ID moves directly.
struct SystemTestPeer {
  static void move(System& sys, int node, const Key& new_id) {
    sys.execute_move(dht::MoveDecision{node, sys.owner_of(new_id), new_id});
  }
};

namespace {

Key seq_key(std::uint64_t i) { return Key::from_uint64(1000 + i); }

SystemConfig ec_config(int n, int k) {
  SystemConfig c;
  c.node_count = 24;
  c.replicas = n;
  c.ec_data_fragments = k;
  c.seed = 13;
  return c;
}

TEST(ErasureCoding, PlacesNFragmentsOnSuccessors) {
  sim::Simulator sim;
  System sys(ec_config(6, 3), sim);
  sys.put(seq_key(1), kB(24));
  const auto nodes = sys.replica_nodes(seq_key(1));
  ASSERT_EQ(nodes.size(), 6u);
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    EXPECT_EQ(sys.ring().successor(nodes[i]), nodes[i + 1]);
  }
}

TEST(ErasureCoding, StorageCostIsNOverK) {
  sim::Simulator sim;
  System sys(ec_config(6, 3), sim);
  sys.put(seq_key(1), kB(24));
  // Fragments: 24 KB / 3 = 8 KB each, 6 of them = 48 KB total physical
  // (2x) instead of 72 KB under 3-way replication (3x).
  Bytes physical = 0;
  for (int n = 0; n < 24; ++n) physical += sys.block_map().physical_bytes(n);
  EXPECT_EQ(physical, kB(48));
  EXPECT_EQ(sys.block_map().find(seq_key(1))->member_bytes, kB(8));
  EXPECT_EQ(sys.block_map().total_bytes(), kB(24));  // logical
}

TEST(ErasureCoding, AvailableWithExactlyKFragments) {
  SystemConfig c = ec_config(6, 3);
  c.regen_delay = hours(20);  // disable regeneration for this test
  sim::Simulator sim;
  System sys(c, sim);
  sys.put(seq_key(1), kB(24));
  const auto nodes = sys.replica_nodes(seq_key(1));
  // Fail n-k = 3 members: still available (exactly k = 3 fragments left).
  std::vector<sim::FailureTrace::DownInterval> downs;
  for (int i = 0; i < 3; ++i) downs.push_back({nodes[static_cast<std::size_t>(i)],
                                               minutes(5), hours(10)});
  const auto trace =
      sim::FailureTrace::from_intervals(c.node_count, days(1), downs);
  sys.attach_failure_trace(&trace, 0);
  sim.run_until(hours(1));
  EXPECT_TRUE(sys.block_available(seq_key(1)));
}

TEST(ErasureCoding, UnavailableBelowKFragments) {
  SystemConfig c = ec_config(6, 3);
  c.regen_delay = hours(20);
  sim::Simulator sim;
  System sys(c, sim);
  sys.put(seq_key(1), kB(24));
  const auto nodes = sys.replica_nodes(seq_key(1));
  std::vector<sim::FailureTrace::DownInterval> downs;
  for (int i = 0; i < 4; ++i) downs.push_back({nodes[static_cast<std::size_t>(i)],
                                               minutes(5), hours(10)});
  const auto trace =
      sim::FailureTrace::from_intervals(c.node_count, days(1), downs);
  sys.attach_failure_trace(&trace, 0);
  sim.run_until(hours(1));
  EXPECT_FALSE(sys.block_available(seq_key(1)));  // only 2 of 3 needed up
  EXPECT_EQ(sys.serving_node(seq_key(1)), std::nullopt);
}

TEST(ErasureCoding, RepairCostsKFragmentsOfTraffic) {
  // Regenerating a lost fragment reads k fragments: repair traffic is
  // ~block size, not fragment size — the classic EC repair penalty.
  SystemConfig c = ec_config(6, 3);
  c.regen_delay = minutes(10);
  sim::Simulator sim;
  System sys(c, sim);
  sys.put(seq_key(1), kB(24));
  const auto nodes = sys.replica_nodes(seq_key(1));
  const auto trace = sim::FailureTrace::from_intervals(
      c.node_count, days(1), {{nodes[0], minutes(5), hours(10)}});
  sys.attach_failure_trace(&trace, 0);
  sim.run_until(hours(2));
  // One replacement fragment regenerated: traffic = k * fragment = 24 KB.
  EXPECT_EQ(sys.migration_bytes(), kB(24));
}

TEST(ErasureCoding, RecoveryCatchupAlsoReconstructs) {
  SystemConfig c = ec_config(4, 2);
  c.regen_delay = hours(20);
  sim::Simulator sim;
  System sys(c, sim);
  const Key key = seq_key(1);
  const int owner = sys.owner_of(key);
  const auto trace = sim::FailureTrace::from_intervals(
      c.node_count, days(1), {{owner, minutes(1), hours(1)}});
  sys.attach_failure_trace(&trace, 0);
  sim.run_until(minutes(5));
  sys.put(key, kB(16));  // written while a fragment holder is down
  sim.run_until(hours(3));
  const store::BlockState* b = sys.block_map().find(key);
  for (const store::Replica& r : b->replicas) EXPECT_TRUE(r.has_data);
}

TEST(ErasureCoding, InvalidParamsThrow) {
  sim::Simulator sim;
  SystemConfig c = ec_config(2, 3);  // n < k
  EXPECT_THROW(System(c, sim), d2::PreconditionError);
  SystemConfig c2 = ec_config(6, 3);
  c2.scatter_replicas = 1;  // unsupported combination
  EXPECT_THROW(System(c2, sim), d2::PreconditionError);
  EXPECT_THROW(System(ec_config(3, 0), sim), d2::PreconditionError);
  EXPECT_THROW(System(ec_config(0, 1), sim), d2::PreconditionError);
  SystemConfig scattered = ec_config(3, 1);
  for (const int scatter : {-1, 3, 7}) {
    scattered.scatter_replicas = scatter;  // must lie in [0, replicas)
    EXPECT_THROW(System(scattered, sim), d2::PreconditionError) << scatter;
  }
  scattered.scatter_replicas = 2;
  EXPECT_NO_THROW(System(scattered, sim));
}

TEST(ErasureCoding, StaleCopiesAloneDoNotServe) {
  // Every up copy of a k > 1 block sits on a stale holder, and every
  // responsible member is down: no member can redirect a read to the
  // copies, so the block is unavailable and has no server.
  SystemConfig c = ec_config(4, 2);
  c.pointer_stabilization = hours(10);  // new members stay pointers
  c.regen_delay = hours(20);
  sim::Simulator sim;
  System sys(c, sim);
  const Key key = seq_key(1);
  sys.put(key, kB(16));
  const std::vector<int> holders = sys.replica_nodes(key);
  // Four other nodes take IDs just at the key, one by one: they become the
  // block's members as pointers, and the old members keep their copies as
  // stale holders until the pointers fetch.
  std::vector<int> members;
  for (int node = 0; members.size() < holders.size(); ++node) {
    if (std::find(holders.begin(), holders.end(), node) != holders.end()) {
      continue;
    }
    SystemTestPeer::move(sys, node, key + Key::from_uint64(members.size()));
    members.push_back(node);
  }
  ASSERT_EQ(sys.replica_nodes(key), members);
  const store::BlockState* b = sys.block_map().find(key);
  for (const store::Replica& r : b->replicas) ASSERT_FALSE(r.has_data);
  ASSERT_EQ(b->stale_holders.size(), holders.size());
  // Up members redirect to a stale holder.
  const std::optional<int> server = sys.serving_node(key);
  ASSERT_TRUE(server.has_value());
  EXPECT_NE(std::find(holders.begin(), holders.end(), *server), holders.end());

  std::vector<sim::FailureTrace::DownInterval> downs;
  for (int node : members) downs.push_back({node, minutes(5), hours(5)});
  const auto trace =
      sim::FailureTrace::from_intervals(c.node_count, days(1), downs);
  sys.attach_failure_trace(&trace, 0);
  sim.run_until(minutes(30));
  for (int node : holders) ASSERT_TRUE(sys.node_up(node));
  EXPECT_FALSE(sys.block_available(key));
  EXPECT_EQ(sys.serving_node(key), std::nullopt);
}

/// A seeded run with load balancing (moves) and a churning failure trace:
/// after every move and every failure transition, each block reads as
/// available exactly when the read rule names a server.
void expect_available_iff_served(int n, int k) {
  SystemConfig c = ec_config(n, k);
  c.regen_delay = minutes(20);
  c.pointer_stabilization = minutes(30);
  sim::Simulator sim;
  System sys(c, sim);
  Rng rng(static_cast<std::uint64_t>(17 + k));
  for (std::uint64_t i = 0; i < 300; ++i) {
    sys.put(rng.bernoulli(0.8) ? seq_key(64 * i) : Key::random(rng), kB(12));
  }
  sim::FailureParams fp;
  fp.node_count = c.node_count;
  fp.duration = days(2);
  fp.mttf_hours = 12;
  fp.mttr_hours = 3;
  fp.correlated_events_per_day = 3.0;
  fp.correlated_fraction = 0.5;
  Rng frng(static_cast<std::uint64_t>(91 + k));
  const sim::FailureTrace trace = sim::FailureTrace::generate(fp, frng);
  sys.attach_failure_trace(&trace, 0);
  sys.start_load_balancing();

  auto up_mask = [&sys, &c] {
    std::vector<bool> up(static_cast<std::size_t>(c.node_count));
    for (int i = 0; i < c.node_count; ++i) {
      up[static_cast<std::size_t>(i)] = sys.node_up(i);
    }
    return up;
  };
  std::int64_t moves = sys.lb_moves();
  std::vector<bool> up = up_mask();
  std::size_t checks = 0;
  std::size_t unavailable = 0;
  while (sim.now() < days(2) && sim.step()) {
    std::vector<bool> now_up = up_mask();
    if (sys.lb_moves() == moves && now_up == up) continue;
    moves = sys.lb_moves();
    up = std::move(now_up);
    ++checks;
    sys.block_map().for_each_block([&](const Key& key,
                                       const store::BlockState&) {
      const bool served = sys.serving_node(key).has_value();
      EXPECT_EQ(sys.block_available(key), served) << key.short_hex();
      if (!served) ++unavailable;
    });
  }
  EXPECT_GT(sys.lb_moves(), 0);
  EXPECT_GT(checks, 100u);
  EXPECT_GT(unavailable, 0u);  // the trace does take blocks offline
}

TEST(ErasureCoding, AvailableIffServedUnderReplication) {
  expect_available_iff_served(3, 1);
}

TEST(ErasureCoding, AvailableIffServedUnderErasure) {
  expect_available_iff_served(6, 3);
}

TEST(ErasureCoding, LoadBalancingStillWorks) {
  SystemConfig c = ec_config(4, 2);
  c.node_count = 32;
  c.use_pointers = false;
  sim::Simulator sim;
  System sys(c, sim);
  for (std::uint64_t i = 0; i < 1000; ++i) sys.put(seq_key(i), kB(8));
  sys.start_load_balancing();
  sim.run_until(days(2));
  EXPECT_GT(sys.lb_moves(), 0);
  EXPECT_LT(sys.max_over_mean_load(), 6.0);
}

class EcParamSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(EcParamSweep, FragmentArithmeticConsistent) {
  const auto [n, k] = GetParam();
  sim::Simulator sim;
  System sys(ec_config(n, k), sim);
  const Bytes size = kB(30);
  sys.put(seq_key(1), size);
  const store::BlockState* b = sys.block_map().find(seq_key(1));
  EXPECT_EQ(static_cast<int>(b->replicas.size()), n);
  EXPECT_EQ(b->member_bytes, (size + k - 1) / k);
}

INSTANTIATE_TEST_SUITE_P(Params, EcParamSweep,
                         ::testing::Values(std::pair{4, 2}, std::pair{6, 3},
                                           std::pair{9, 6}, std::pair{3, 3}));

}  // namespace
}  // namespace d2::core
