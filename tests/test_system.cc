#include "core/system.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/stats.h"
#include "fs/key_encoding.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace d2::core {

/// Applies ID moves chosen by the test instead of by a probe.
struct SystemTestPeer {
  static void move(System& sys, int node, const Key& new_id) {
    sys.execute_move(dht::MoveDecision{node, sys.owner_of(new_id), new_id});
  }
  static Key scatter_position(const Key& k, int i) {
    return System::scatter_position(k, i);
  }
};

namespace {

SystemConfig small_config() {
  SystemConfig c;
  c.node_count = 16;
  c.replicas = 3;
  c.seed = 7;
  return c;
}

// Sequential "D2-like" keys concentrated in a small region of the ring —
// the skew that consistent hashing cannot balance.
Key seq_key(std::uint64_t i) { return Key::from_uint64(1000 + i); }

const store::Replica* member(const System& sys, const Key& k, int node) {
  for (const store::Replica& r : sys.block_map().find(k)->replicas) {
    if (r.node == node) return &r;
  }
  return nullptr;
}

/// Members that lack data and are up: the ones a fetch timer serves.
std::size_t fetching_members(const System& sys) {
  std::size_t n = 0;
  sys.block_map().for_each_block([&](const Key&, const store::BlockState& b) {
    for (const store::Replica& r : b.replicas) {
      if (!r.has_data && sys.node_up(r.node)) ++n;
    }
  });
  return n;
}

std::int64_t fetch_timers(const System& sys) {
  return sys.metrics().find_counter("system.fetch_timers")->value();
}

/// A node outside `k`'s replica set.
int node_outside_set(const System& sys, const Key& k) {
  const std::vector<int> set = sys.replica_nodes(k);
  int n = 0;
  while (std::find(set.begin(), set.end(), n) != set.end()) ++n;
  return n;
}

TEST(System, PutPlacesOnReplicaSet) {
  sim::Simulator sim;
  System sys(small_config(), sim);
  const Key key = seq_key(1);
  sys.put(key, 100);
  const auto nodes = sys.replica_nodes(key);
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0], sys.owner_of(key));
  EXPECT_TRUE(sys.block_available(key));
  EXPECT_EQ(sys.serving_node(key), nodes[0]);
  EXPECT_EQ(sys.user_write_bytes(), 100);
}

TEST(System, RemoveIsDelayed) {
  sim::Simulator sim;
  System sys(small_config(), sim);
  sys.put(seq_key(1), 100);
  sys.remove(seq_key(1));
  EXPECT_TRUE(sys.has(seq_key(1)));  // §3: 30-second removal delay
  sim.run_until(seconds(29));
  EXPECT_TRUE(sys.has(seq_key(1)));
  sim.run_until(seconds(31));
  EXPECT_FALSE(sys.has(seq_key(1)));
  EXPECT_EQ(sys.user_removed_bytes(), 100);
}

TEST(System, PutExistingKeyIsUpdate) {
  sim::Simulator sim;
  System sys(small_config(), sim);
  sys.put(seq_key(1), 100);
  sys.put(seq_key(1), 150);
  EXPECT_EQ(sys.block_map().find(seq_key(1))->size, 150);
  EXPECT_EQ(sys.block_map().block_count(), 1u);
  EXPECT_EQ(sys.user_write_bytes(), 250);
}

TEST(System, LoadBalancingFlattensSkewedKeys) {
  SystemConfig c = small_config();
  c.node_count = 32;
  c.use_pointers = false;  // eager, so physical bytes follow quickly
  sim::Simulator sim;
  System sys(c, sim);
  for (std::uint64_t i = 0; i < 2000; ++i) sys.put(seq_key(i), kB(8));
  // All keys land on one node initially (they're numerically adjacent).
  EXPECT_GT(sys.max_over_mean_load(), 5.0);
  sys.start_load_balancing();
  sim.run_until(days(2));
  // Karger-Ruhl with t=4: loads within a constant factor of the mean.
  Stats s;
  for (int n = 0; n < c.node_count; ++n) {
    s.add(static_cast<double>(sys.block_map().primary_count(n)));
  }
  EXPECT_LT(s.max() / s.mean(), 6.0);
  EXPECT_GT(sys.lb_moves(), 5);
}

TEST(System, NoBalancingWithoutActivation) {
  SystemConfig c = small_config();
  sim::Simulator sim;
  System sys(c, sim);
  for (std::uint64_t i = 0; i < 500; ++i) sys.put(seq_key(i), kB(8));
  sim.run_until(days(1));
  EXPECT_EQ(sys.lb_moves(), 0);
}

TEST(System, PointersDeferMigrationUntilStabilization) {
  SystemConfig c = small_config();
  c.use_pointers = true;
  c.pointer_stabilization = hours(1);
  sim::Simulator sim;
  System sys(c, sim);
  for (std::uint64_t i = 0; i < 400; ++i) sys.put(seq_key(i), kB(8));
  // Force one balancing step manually.
  bool moved = false;
  for (int p = 0; p < c.node_count && !moved; ++p) moved = sys.probe_once(p);
  ASSERT_TRUE(moved);
  // Immediately after the move nothing migrated: the new owner holds
  // pointers.
  EXPECT_EQ(sys.migration_bytes(), 0);
  // All blocks are still available (data is where it was).
  for (std::uint64_t i = 0; i < 400; ++i) {
    EXPECT_TRUE(sys.block_available(seq_key(i)));
  }
  // After stabilization + transfer time, data has moved.
  sim.run_until(hours(12));
  EXPECT_GT(sys.migration_bytes(), 0);
  // And every replica of every block holds real data again.
  for (std::uint64_t i = 0; i < 400; ++i) {
    const store::BlockState* b = sys.block_map().find(seq_key(i));
    for (const store::Replica& r : b->replicas) {
      EXPECT_TRUE(r.has_data) << "block " << i;
    }
    EXPECT_TRUE(b->stale_holders.empty());
  }
}

TEST(System, EagerMigrationWithoutPointers) {
  SystemConfig c = small_config();
  c.use_pointers = false;
  sim::Simulator sim;
  System sys(c, sim);
  for (std::uint64_t i = 0; i < 400; ++i) sys.put(seq_key(i), kB(8));
  bool moved = false;
  for (int p = 0; p < c.node_count && !moved; ++p) moved = sys.probe_once(p);
  ASSERT_TRUE(moved);
  sim.run_until(hours(1));  // well within pointer_stabilization
  EXPECT_GT(sys.migration_bytes(), 0);
}

TEST(System, PointerHandoffAvoidsDoubleMove) {
  // Split the same hot range twice within the stabilization window: the
  // blocks that were handed off to the second splitter must be fetched
  // only once (from the original holder), not moved twice.
  SystemConfig base = small_config();
  base.node_count = 32;

  auto run = [&](bool pointers) {
    SystemConfig c = base;
    c.use_pointers = pointers;
    sim::Simulator sim;
    System sys(c, sim);
    for (std::uint64_t i = 0; i < 1000; ++i) sys.put(seq_key(i), kB(8));
    sys.start_load_balancing();
    sim.run_until(days(3));
    return sys.migration_bytes();
  };
  const Bytes with_pointers = run(true);
  const Bytes without_pointers = run(false);
  EXPECT_LT(with_pointers, without_pointers);
}

TEST(System, RepeatedReadjustmentKeepsOneFetchTimerPerMember) {
  // One real split makes pointer members; then the heavy node's ID moves
  // back and forth inside its empty gap, so every move readjusts the same
  // hot blocks without changing any replica set. However many such
  // readjustments land inside the stabilization window, each pointer
  // member keeps exactly one pending fetch timer.
  SystemConfig c = small_config();
  c.pointer_stabilization = hours(1);
  sim::Simulator sim;
  System sys(c, sim);
  for (std::uint64_t i = 0; i < 400; ++i) sys.put(seq_key(i), kB(8));
  const int heavy = sys.owner_of(seq_key(0));
  SystemTestPeer::move(sys, node_outside_set(sys, seq_key(0)), seq_key(199));
  const std::size_t pointers = fetching_members(sys);
  ASSERT_GT(pointers, 0u);
  EXPECT_EQ(sim.events_pending(), pointers);

  const Key home = sys.ring().id_of(heavy);
  const Key nudged = home - Key::from_uint64(1);
  for (int n = 1; n <= 8; ++n) {
    sim.run_until(minutes(5 * n));
    const std::vector<int> before = sys.replica_nodes(seq_key(0));
    SystemTestPeer::move(sys, heavy, n % 2 == 1 ? nudged : home);
    ASSERT_EQ(sys.replica_nodes(seq_key(0)), before);
    EXPECT_EQ(sim.events_pending(), pointers) << "after move " << n;
  }
  EXPECT_EQ(fetch_timers(sys), static_cast<std::int64_t>(pointers));

  // The single timers still fetch every pointer member's data.
  sim.run_until(hours(12));
  EXPECT_EQ(fetching_members(sys), 0u);
  EXPECT_EQ(sys.metrics().find_counter("system.replica_fetches")->value(),
            static_cast<std::int64_t>(pointers));
}

TEST(System, RejoinedPointerMemberWaitsFullStabilization) {
  // A node joins a block's set, leaves it, and rejoins inside one
  // stabilization window. The timer armed for its first membership must
  // not fetch for the second: the data arrives only once the rejoined
  // membership has stabilized.
  SystemConfig c = small_config();
  c.pointer_stabilization = hours(1);
  sim::Simulator sim;
  System sys(c, sim);
  for (std::uint64_t i = 0; i < 400; ++i) sys.put(seq_key(i), kB(8));
  const Key k = seq_key(0);
  const int light = node_outside_set(sys, k);
  const Key home = sys.ring().id_of(light);

  SystemTestPeer::move(sys, light, seq_key(199));  // joins k's set
  ASSERT_NE(member(sys, k, light), nullptr);
  sim.run_until(minutes(20));
  SystemTestPeer::move(sys, light, home);  // leaves it
  ASSERT_EQ(member(sys, k, light), nullptr);
  sim.run_until(minutes(30));
  SystemTestPeer::move(sys, light, seq_key(199));  // rejoins
  const SimTime since = member(sys, k, light)->pointer_since;
  EXPECT_EQ(since, minutes(30));

  sim.run_until(since + c.pointer_stabilization - seconds(1));
  EXPECT_FALSE(member(sys, k, light)->has_data);
  sim.run_until(hours(12));
  EXPECT_TRUE(member(sys, k, light)->has_data);
}

/// The replica set the placement rules give `k` right now, written out
/// independently of System: the owner, then its successors, skipping past
/// down nodes until r are up (at most r + 6 nodes); then each scattered
/// member, the first node at or after its hashed position that is not in
/// the set yet, continuing past down nodes to an up one.
std::vector<int> reference_set(const System& sys, const Key& k) {
  const int scatter =
      std::min(sys.config().scatter_replicas, sys.config().replicas - 1);
  const int r = sys.config().replicas - scatter;
  const dht::Ring& ring = sys.ring();
  std::vector<int> set;
  int up = 0;
  for (int node = ring.owner(k);
       up < r && static_cast<int>(set.size()) < r + 6;
       node = ring.successor(node)) {
    set.push_back(node);
    if (sys.node_up(node)) ++up;
  }
  for (int s = 0; s < scatter; ++s) {
    for (int node = ring.owner(SystemTestPeer::scatter_position(k, s));;
         node = ring.successor(node)) {
      if (std::find(set.begin(), set.end(), node) != set.end()) continue;
      set.push_back(node);
      if (sys.node_up(node)) break;
    }
  }
  return set;
}

/// Blocks across the whole keyspace, one node down long enough for its
/// blocks' sets to be extended, then one move whose cover arc wraps past
/// Key::max(): every block's members must match reference_set.
void check_readjusted_sets_match_reference(int scatter_replicas) {
  SystemConfig c = small_config();
  c.scatter_replicas = scatter_replicas;
  c.regen_delay = minutes(5);
  sim::Simulator sim;
  System sys(c, sim);
  const std::vector<int> order = sys.ring().nodes_in_order();
  Rng rng(11);
  for (int i = 0; i < 600; ++i) sys.put(Key::random(rng), kB(8));
  // Keys above the largest node ID belong to the smallest-ID node.
  for (std::uint64_t i = 0; i < 20; ++i) {
    sys.put(Key::max() - Key::from_uint64(i), kB(8));
  }
  // order[0] goes down and stays down; regeneration extends its blocks'
  // sets.
  const auto trace = sim::FailureTrace::from_intervals(
      c.node_count, days(1), {{order[0], minutes(10), days(1)}});
  sys.attach_failure_trace(&trace, 0);
  sim.run_until(hours(1));

  // order[8] moves below the smallest ID. The cover arc of its new
  // position runs from r + 6 predecessors back, past Key::max(), to its
  // new ID, and order[0] now succeeds it.
  const Key new_id = sys.ring().id_of(order[0]).half();
  SystemTestPeer::move(sys, order[8], new_id);
  ASSERT_EQ(sys.ring().successor(order[8]), order[0]);

  std::size_t extended = 0;
  std::size_t wrapped = 0;
  sys.block_map().for_each_block([&](const Key& k, const store::BlockState&) {
    const std::vector<int> expected = reference_set(sys, k);
    EXPECT_EQ(sys.replica_nodes(k), expected) << k.short_hex();
    if (static_cast<int>(expected.size()) > c.replicas) ++extended;
    if (new_id < k && sys.owner_of(k) == order[8]) ++wrapped;
  });
  EXPECT_GT(extended, 0u);
  EXPECT_GT(wrapped, 0u);
  sys.check_invariants();
}

TEST(System, ReadjustedSetsMatchReferenceScan) {
  check_readjusted_sets_match_reference(0);
}

TEST(System, ReadjustedSetsMatchReferenceScanWithScatter) {
  check_readjusted_sets_match_reference(1);
}

TEST(System, AvailabilitySurvivesMinorityReplicaFailure) {
  SystemConfig c = small_config();
  sim::Simulator sim;
  System sys(c, sim);
  sys.put(seq_key(1), kB(8));
  const auto nodes = sys.replica_nodes(seq_key(1));

  // Primary down for an hour: the block stays available via replicas.
  const auto trace = sim::FailureTrace::from_intervals(
      c.node_count, days(1), {{nodes[0], minutes(10), minutes(70)}});
  sys.attach_failure_trace(&trace, 0);
  sim.run_until(minutes(20));
  EXPECT_FALSE(sys.node_up(nodes[0]));
  EXPECT_TRUE(sys.block_available(seq_key(1)));
  EXPECT_EQ(sys.serving_node(seq_key(1)), nodes[1]);
  sim.run_until(minutes(80));
  EXPECT_TRUE(sys.node_up(nodes[0]));
  EXPECT_EQ(sys.serving_node(seq_key(1)), nodes[0]);
}

TEST(System, WholeGroupDownMakesBlockUnavailable) {
  SystemConfig c = small_config();
  c.regen_delay = hours(10);  // effectively no regeneration
  sim::Simulator sim;
  System sys(c, sim);
  sys.put(seq_key(1), kB(8));
  const auto nodes = sys.replica_nodes(seq_key(1));
  std::vector<sim::FailureTrace::DownInterval> downs;
  for (int n : nodes) downs.push_back({n, minutes(10), hours(2)});
  const auto trace = sim::FailureTrace::from_intervals(c.node_count, days(1), downs);
  sys.attach_failure_trace(&trace, 0);
  sim.run_until(minutes(30));
  EXPECT_FALSE(sys.block_available(seq_key(1)));
  EXPECT_EQ(sys.serving_node(seq_key(1)), std::nullopt);
  sim.run_until(hours(3));
  EXPECT_TRUE(sys.block_available(seq_key(1)));
}

TEST(System, RegenerationRestoresAvailability) {
  // The first two replicas fail; regeneration must copy the block onto an
  // extra successor (bandwidth-limited), so that when the third replica
  // later also fails, the block is still reachable.
  SystemConfig c = small_config();
  c.regen_delay = minutes(30);
  sim::Simulator sim;
  System sys(c, sim);
  sys.put(seq_key(1), kB(8));
  const auto nodes = sys.replica_nodes(seq_key(1));
  std::vector<sim::FailureTrace::DownInterval> downs = {
      {nodes[0], minutes(10), hours(8)},
      {nodes[1], minutes(10), hours(8)},
      {nodes[2], hours(3), hours(8)},  // fails after regeneration completed
  };
  const auto trace = sim::FailureTrace::from_intervals(c.node_count, days(1), downs);
  sys.attach_failure_trace(&trace, 0);
  sim.run_until(hours(4));
  // All three original replicas are down, but the regenerated copy serves.
  EXPECT_FALSE(sys.node_up(nodes[0]));
  EXPECT_FALSE(sys.node_up(nodes[1]));
  EXPECT_FALSE(sys.node_up(nodes[2]));
  EXPECT_TRUE(sys.block_available(seq_key(1)));
}

TEST(System, RecoveryShrinksReplicaSetToCanonical) {
  SystemConfig c = small_config();
  c.regen_delay = minutes(5);
  sim::Simulator sim;
  System sys(c, sim);
  sys.put(seq_key(1), kB(8));
  const auto before = sys.replica_nodes(seq_key(1));
  const auto trace = sim::FailureTrace::from_intervals(
      c.node_count, days(1), {{before[0], minutes(10), hours(2)}});
  sys.attach_failure_trace(&trace, 0);
  sim.run_until(hours(1));
  EXPECT_GT(sys.replica_nodes(seq_key(1)).size(), 3u);  // extended
  sim.run_until(hours(6));
  const auto after = sys.replica_nodes(seq_key(1));
  EXPECT_EQ(after, before);  // canonical set restored on recovery
}

TEST(System, WriteDuringReplicaDowntimeCatchesUpOnRecovery) {
  SystemConfig c = small_config();
  c.regen_delay = hours(10);  // no regeneration in this window
  sim::Simulator sim;
  System sys(c, sim);
  // Find the replica set of the key before inserting it.
  const Key key = seq_key(1);
  const auto nodes = sys.replica_nodes(key);  // empty (not inserted)
  EXPECT_TRUE(nodes.empty());
  const int owner = sys.owner_of(key);
  // The write lands on the three successors of the down owner; they go
  // down too before it recovers, leaving it no source from 1 h to 2 h.
  std::vector<sim::FailureTrace::DownInterval> downs = {
      {owner, minutes(1), hours(1)}};
  for (int n = sys.ring().successor(owner); downs.size() < 4;
       n = sys.ring().successor(n)) {
    downs.push_back({n, minutes(30), hours(2)});
  }
  const auto trace =
      sim::FailureTrace::from_intervals(c.node_count, days(1), downs);
  sys.attach_failure_trace(&trace, 0);
  sim.run_until(minutes(5));
  sys.put(key, kB(8));  // written while the primary is down
  const store::BlockState* b = sys.block_map().find(key);
  bool owner_has_data = true;
  for (const store::Replica& r : b->replicas) {
    if (r.node == owner) owner_has_data = r.has_data;
  }
  EXPECT_FALSE(owner_has_data);
  EXPECT_TRUE(sys.block_available(key));  // other replicas hold it

  // No member has a fetch timer yet; the owner's recovery at 1 h fires
  // one failure transition and arms one timer per member lacking data.
  sim.run_until(minutes(55));
  const std::size_t other_events = sim.events_pending() - 1;
  sim.run_until(hours(1) + minutes(5));
  EXPECT_FALSE(sys.block_available(key));
  const std::size_t fetching = fetching_members(sys);
  ASSERT_GT(fetching, 0u);
  EXPECT_EQ(sim.events_pending(), other_events + fetching);
  // Every kFetchRetryDelay (10 min) each of them retries, and the retry
  // replaces its timer instead of stacking another.
  const std::int64_t timers = fetch_timers(sys);
  for (int round = 1; round <= 5; ++round) {
    sim.run_until(hours(1) + minutes(5 + 10 * round));
    EXPECT_EQ(sim.events_pending(), other_events + fetching);
    EXPECT_EQ(fetch_timers(sys),
              timers + round * static_cast<std::int64_t>(fetching));
  }
  // After recovery the owner fetches the missed write.
  sim.run_until(hours(3));
  b = sys.block_map().find(key);
  for (const store::Replica& r : b->replicas) {
    EXPECT_TRUE(r.has_data);
  }
  EXPECT_GT(sys.migration_bytes(), 0);
}

TEST(System, ImbalanceMetricsComputed) {
  sim::Simulator sim;
  System sys(small_config(), sim);
  for (std::uint64_t i = 0; i < 100; ++i) sys.put(seq_key(i), kB(8));
  EXPECT_GT(sys.load_imbalance(), 0.0);
  EXPECT_GE(sys.max_over_mean_load(), 1.0);
}

TEST(System, ResetTrafficCounters) {
  sim::Simulator sim;
  System sys(small_config(), sim);
  sys.put(seq_key(1), 100);
  sys.reset_traffic_counters();
  EXPECT_EQ(sys.user_write_bytes(), 0);
  EXPECT_EQ(sys.migration_bytes(), 0);
}

TEST(System, ReplicaSetsConsecutiveOnRing) {
  sim::Simulator sim;
  System sys(small_config(), sim);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const Key k = Key::random(rng);
    sys.put(k, kB(8));
    const auto nodes = sys.replica_nodes(k);
    ASSERT_EQ(nodes.size(), 3u);
    EXPECT_EQ(nodes[0], sys.ring().owner(k));
    EXPECT_EQ(sys.ring().successor(nodes[0]), nodes[1]);
    EXPECT_EQ(sys.ring().successor(nodes[1]), nodes[2]);
  }
}

TEST(System, RegistryCountersMatchLegacyAccessors) {
  // Replay a skewed write/remove stream through a balanced system with an
  // injected registry: every legacy accessor must agree exactly with its
  // registry counterpart (the accessors are shims over the same counters).
  SystemConfig c = small_config();
  c.node_count = 32;
  obs::Registry metrics;
  obs::Tracer tracer;
  sim::Simulator sim;
  sim.bind_metrics(&metrics);
  System sys(c, sim, &metrics);
  sys.set_tracer(&tracer);
  for (std::uint64_t i = 0; i < 1000; ++i) sys.put(seq_key(i), kB(8));
  for (std::uint64_t i = 0; i < 100; ++i) sys.remove(seq_key(i));
  sys.start_load_balancing();
  sim.run_until(days(2));

  ASSERT_NE(metrics.find_counter("system.user_write_bytes"), nullptr);
  EXPECT_EQ(metrics.find_counter("system.user_write_bytes")->value(),
            sys.user_write_bytes());
  EXPECT_EQ(metrics.find_counter("system.user_removed_bytes")->value(),
            sys.user_removed_bytes());
  EXPECT_EQ(metrics.find_counter("system.migration_bytes")->value(),
            sys.migration_bytes());
  EXPECT_EQ(metrics.find_counter("system.lb_moves")->value(), sys.lb_moves());

  // The replay actually exercised the counters.
  EXPECT_EQ(sys.user_write_bytes(), static_cast<Bytes>(1000 * kB(8)));
  EXPECT_EQ(sys.user_removed_bytes(), static_cast<Bytes>(100 * kB(8)));
  EXPECT_GT(sys.migration_bytes(), 0);
  EXPECT_GT(sys.lb_moves(), 0);
  EXPECT_EQ(metrics.find_counter("sim.events_processed")->value(),
            static_cast<std::int64_t>(sim.events_processed()));

  // The tracer saw the balancing moves the counter reports.
  std::int64_t traced_moves = 0;
  for (const obs::Event& e : tracer.events()) {
    if (e.type == obs::EventType::kLbMove) ++traced_moves;
  }
  EXPECT_EQ(traced_moves, sys.lb_moves());

  // Legacy reset keeps the shims and registry in lockstep.
  sys.reset_traffic_counters();
  EXPECT_EQ(metrics.find_counter("system.user_write_bytes")->value(), 0);
  EXPECT_EQ(sys.user_write_bytes(), 0);
}

TEST(System, OwnedRegistryWhenNoneInjected) {
  sim::Simulator sim;
  System sys(small_config(), sim);
  sys.put(seq_key(1), 100);
  // The fallback registry backs the accessors identically.
  EXPECT_EQ(sys.metrics().find_counter("system.user_write_bytes")->value(),
            sys.user_write_bytes());
  EXPECT_EQ(sys.user_write_bytes(), 100);
}

class LbThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(LbThresholdSweep, SteadyStateRespectsThreshold) {
  SystemConfig c = small_config();
  c.node_count = 24;
  c.lb_threshold = GetParam();
  c.use_pointers = false;
  sim::Simulator sim;
  System sys(c, sim);
  for (std::uint64_t i = 0; i < 1500; ++i) sys.put(seq_key(i), kB(8));
  sys.start_load_balancing();
  sim.run_until(days(2));
  // Steady state: no pair of nodes should differ by much more than t
  // (allow slack for the minimum-split floor and probe randomness).
  Stats s;
  for (int n = 0; n < c.node_count; ++n) {
    s.add(static_cast<double>(sys.block_map().primary_count(n)) + 1.0);
  }
  EXPECT_LT(s.max() / s.mean(), GetParam() * 2.5);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, LbThresholdSweep,
                         ::testing::Values(2.0, 4.0, 8.0));

}  // namespace
}  // namespace d2::core
