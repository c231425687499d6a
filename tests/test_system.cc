#include "core/system.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/stats.h"
#include "core/op_batch.h"
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

std::int64_t discarded_timers(const System& sys) {
  return sys.metrics().find_counter("system.fetch_timers_discarded")->value();
}

std::int64_t replica_fetches(const System& sys) {
  return sys.metrics().find_counter("system.replica_fetches")->value();
}

/// Recorded fetch-timer ids of `k`'s members.
std::vector<sim::EventId> recorded_timers(const System& sys, const Key& k) {
  std::vector<sim::EventId> out;
  for (const store::Replica& r : sys.block_map().find(k)->replicas) {
    if (r.fetch_timer != sim::Simulator::kNoEvent) out.push_back(r.fetch_timer);
  }
  return out;
}

/// How many of `ids` are still pending.
std::size_t still_pending(const sim::Simulator& sim,
                          const std::vector<sim::EventId>& ids) {
  std::size_t n = 0;
  for (sim::EventId id : ids) {
    if (sim.local_pending_time(id).has_value()) ++n;
  }
  return n;
}

/// True when `node` is not in `k`'s replica set.
bool member_absent(const System& sys, const Key& k, int node) {
  const std::vector<int> set = sys.replica_nodes(k);
  return std::find(set.begin(), set.end(), node) == set.end();
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
  // Stabilization runs from the rejoin, not from the first join.
  const SimTime due = member(sys, k, light)->fetch_due;
  EXPECT_EQ(due, minutes(30) + c.pointer_stabilization);

  sim.run_until(due - seconds(1));
  EXPECT_FALSE(member(sys, k, light)->has_data);
  sim.run_until(hours(12));
  EXPECT_TRUE(member(sys, k, light)->has_data);
}

TEST(System, DroppedMemberTakesItsFetchTimerWithIt) {
  // One split arms timers that stay pending; a second split five minutes
  // later makes `light` a pointer member of blocks next to them, and
  // moving it back drops every one of those memberships. Each dropped
  // member's timer is discarded: none of them is the key-local queue's
  // next event, which is one of the first split's timers.
  SystemConfig c = small_config();
  c.pointer_stabilization = hours(1);
  sim::Simulator sim;
  System sys(c, sim);
  for (std::uint64_t i = 0; i < 400; ++i) sys.put(seq_key(i), kB(8));
  SystemTestPeer::move(sys, node_outside_set(sys, seq_key(0)), seq_key(99));
  const std::size_t kept = sim.events_pending();
  ASSERT_GT(kept, 0u);

  sim.run_until(minutes(5));
  int light = 0;
  while (sys.block_map().find(seq_key(0))->is_replica(light) ||
         sys.block_map().find(seq_key(200))->is_replica(light)) {
    ++light;
  }
  const Key home = sys.ring().id_of(light);
  SystemTestPeer::move(sys, light, seq_key(299));
  const std::vector<sim::EventId> joined = recorded_timers(sys, seq_key(200));
  ASSERT_EQ(joined.size(), 1u);
  const std::size_t light_timers = sim.events_pending() - kept;
  ASSERT_GT(light_timers, 0u);
  EXPECT_EQ(discarded_timers(sys), 0);

  sim.run_until(minutes(10));
  SystemTestPeer::move(sys, light, home);
  EXPECT_FALSE(sys.block_map().find(seq_key(200))->is_replica(light));
  EXPECT_EQ(still_pending(sim, joined), 0u);
  EXPECT_EQ(sim.events_pending(), kept);
  EXPECT_EQ(discarded_timers(sys), static_cast<std::int64_t>(light_timers));
  EXPECT_EQ(fetch_timers(sys), static_cast<std::int64_t>(kept + light_timers));

  // The first split's timers still fetch; the dropped ones never run.
  const std::uint64_t events_before = sim.events_processed();
  sim.run_until(hours(12));
  EXPECT_EQ(replica_fetches(sys), static_cast<std::int64_t>(kept));
  EXPECT_EQ(fetching_members(sys), 0u);
  EXPECT_EQ(sim.events_processed() - events_before, 2 * kept)
      << "one timer and one completion per fetch, nothing else";
}

TEST(System, ErasingABlockDiscardsEveryMembersFetchTimer) {
  // Two splits leave the lowest keys with two pointer members each. A
  // put with a new size, a remove and a TTL expiry each erase one such
  // block, and both members' timers go with it. The blocks' TTL events
  // (3 h, 4 h) sit ahead of the fetch timers (6 h) on the key-local
  // queue, so no discard here targets the queue's next event.
  SystemConfig c = small_config();
  c.pointer_stabilization = hours(6);
  c.block_ttl = hours(3);
  sim::Simulator sim;
  System sys(c, sim);
  for (std::uint64_t i = 0; i < 400; ++i) sys.put(seq_key(i), kB(8));
  SystemTestPeer::move(sys, node_outside_set(sys, seq_key(0)), seq_key(199));
  SystemTestPeer::move(sys, node_outside_set(sys, seq_key(0)), seq_key(99));
  const Key rewritten = seq_key(10);
  const Key removed = seq_key(20);
  const Key expired = seq_key(30);
  const std::vector<sim::EventId> rewritten_timers =
      recorded_timers(sys, rewritten);
  const std::vector<sim::EventId> removed_timers =
      recorded_timers(sys, removed);
  const std::vector<sim::EventId> expired_timers =
      recorded_timers(sys, expired);
  ASSERT_EQ(rewritten_timers.size(), 2u);
  ASSERT_EQ(removed_timers.size(), 2u);
  ASSERT_EQ(expired_timers.size(), 2u);

  sim.run_until(minutes(10));
  sys.put(rewritten, kB(16));  // a new size replaces the block
  EXPECT_EQ(still_pending(sim, rewritten_timers), 0u);
  EXPECT_EQ(discarded_timers(sys), 2);
  EXPECT_TRUE(recorded_timers(sys, rewritten).empty());

  sys.remove(removed);
  sim.run_until(minutes(11));
  ASSERT_FALSE(sys.has(removed));
  EXPECT_EQ(still_pending(sim, removed_timers), 0u);
  EXPECT_EQ(discarded_timers(sys), 4);

  // Everything but `expired` is refreshed to a 4 h deadline.
  sim.run_until(hours(1));
  for (std::uint64_t i = 0; i < 400; ++i) {
    if (seq_key(i) != expired) sys.refresh(seq_key(i));
  }
  sim.run_until(hours(3) + seconds(1));
  ASSERT_FALSE(sys.has(expired));
  EXPECT_EQ(still_pending(sim, expired_timers), 0u);
  EXPECT_EQ(discarded_timers(sys), 6);
  sys.check_invariants();
}

TEST(System, EarlierRecoveryFetchDiscardsTheSupersededTimer) {
  // A pointer member's node goes down ten minutes into its stabilization
  // and recovers ten minutes later. The recovery wants the fetch now,
  // earlier than the pending timer: it arms one for now and discards the
  // one it supersedes.
  SystemConfig c = small_config();
  c.pointer_stabilization = hours(1);
  sim::Simulator sim;
  System sys(c, sim);
  for (std::uint64_t i = 0; i < 400; ++i) sys.put(seq_key(i), kB(8));
  const Key k = seq_key(0);
  const int light = node_outside_set(sys, k);
  const auto trace = sim::FailureTrace::from_intervals(
      c.node_count, days(1), {{light, minutes(10), minutes(20)}});
  sys.attach_failure_trace(&trace, 0);
  SystemTestPeer::move(sys, light, seq_key(199));
  const std::vector<sim::EventId> armed = recorded_timers(sys, k);
  ASSERT_EQ(armed.size(), 1u);
  EXPECT_EQ(member(sys, k, light)->fetch_due, hours(1));
  const std::int64_t timers = fetch_timers(sys);
  const std::size_t pointers = fetching_members(sys);

  sim.run_until(minutes(20) - seconds(1));
  EXPECT_EQ(discarded_timers(sys), 0);
  sim.run_until(minutes(20));  // recovery
  EXPECT_EQ(still_pending(sim, armed), 0u);
  EXPECT_EQ(discarded_timers(sys), static_cast<std::int64_t>(pointers));
  EXPECT_EQ(fetch_timers(sys), timers + static_cast<std::int64_t>(pointers));

  sim.run_until(hours(12));
  EXPECT_TRUE(member(sys, k, light)->has_data);
  EXPECT_EQ(replica_fetches(sys), static_cast<std::int64_t>(pointers));
}

TEST(System, DeclinedDiscardOfTheNextEventLapsesThroughFetchDue) {
  // With one block, a pointer member's timer is the only, and so next,
  // key-local event. The member leaves: the discard is declined and the
  // timer stays. It rejoins before the timer is due: the old timer fires
  // against the rejoined membership's later fetch_due and does nothing.
  SystemConfig c = small_config();
  c.pointer_stabilization = hours(1);
  sim::Simulator sim;
  System sys(c, sim);
  const Key k = seq_key(0);
  sys.put(k, kB(8));
  const int light = node_outside_set(sys, k);
  const Key home = sys.ring().id_of(light);
  SystemTestPeer::move(sys, light, k);  // joins as the primary
  ASSERT_NE(member(sys, k, light), nullptr);
  const std::vector<sim::EventId> first = recorded_timers(sys, k);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(sim.events_pending(), 1u);

  sim.run_until(minutes(20));
  SystemTestPeer::move(sys, light, home);  // leaves
  ASSERT_EQ(member(sys, k, light), nullptr);
  EXPECT_EQ(discarded_timers(sys), 0);
  EXPECT_EQ(still_pending(sim, first), 1u);

  sim.run_until(minutes(30));
  SystemTestPeer::move(sys, light, k);  // rejoins
  EXPECT_EQ(member(sys, k, light)->fetch_due, minutes(90));
  EXPECT_EQ(sim.events_pending(), 2u);

  const std::uint64_t events_before = sim.events_processed();
  sim.run_until(hours(1) + seconds(1));
  EXPECT_EQ(sim.events_processed() - events_before, 1u);  // the old timer
  EXPECT_EQ(replica_fetches(sys), 0);
  EXPECT_FALSE(member(sys, k, light)->has_data);
  EXPECT_EQ(member(sys, k, light)->fetch_due, minutes(90));
  sys.check_invariants();

  sim.run_until(hours(12));
  EXPECT_TRUE(member(sys, k, light)->has_data);
  EXPECT_EQ(replica_fetches(sys), 1);
}

/// The replica set the placement rules give `k` right now, written out
/// independently of System: the owner, then its successors, skipping past
/// down nodes until r are up (at most r + 6 nodes); then each scattered
/// member, the first node at or after its hashed position that is not in
/// the set yet, continuing past down nodes to an up one.
std::vector<int> reference_set(const System& sys, const Key& k) {
  const int scatter = sys.config().scatter_replicas;
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

TEST(System, MoveReassignsOnlyBlocksWhoseWalkReachesTheMovedNodes) {
  // On a failure-free ring a move can change only the replica sets whose
  // successor walk reaches the light node at its new position or the
  // light node's old successor. The move's two readjustments visit
  // exactly those blocks: each readjustment counts every block whose
  // walk reaches its node.
  SystemConfig c = small_config();
  sim::Simulator sim;
  System sys(c, sim);
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) sys.put(Key::random(rng), kB(8));
  const std::vector<int> order = sys.ring().nodes_in_order();
  const int light = order[3];
  const int old_successor = sys.ring().successor(light);
  const Key new_id = Key::midpoint(sys.ring().id_of(order[9]),
                                   sys.ring().id_of(order[10]));
  const auto reassigned = [&sys] {
    return sys.metrics().find_counter("system.reassigned_blocks")->value();
  };
  const std::int64_t before = reassigned();
  SystemTestPeer::move(sys, light, new_id);

  std::int64_t expected = 0;
  std::vector<int> walk;
  sys.block_map().for_each_block([&](const Key& k, const store::BlockState&) {
    sys.ring().successors(sys.owner_of(k), c.replicas,
                          [](int) { return true; }, walk);
    for (const int around : {old_successor, light}) {
      if (std::find(walk.begin(), walk.end(), around) != walk.end()) {
        ++expected;
      }
    }
  });
  EXPECT_GT(expected, 0);
  EXPECT_EQ(reassigned() - before, expected);
  sys.check_invariants();
}

TEST(System, StaleFetchEventsLeaveAReputBlockUntouched) {
  // A pointer member's fetch is in flight when its block is removed. The
  // key is put again while the member's node is down, and the node's
  // recovery starts the new block's own fetch, queued on the same link
  // behind the old one. The old fetch's completion names the erased
  // block, so it must not promote the new block's member; only the new
  // fetch's completion does. A fetch timer that outlives its block
  // likewise leaves the block put under its key afterwards alone.
  SystemConfig c = small_config();
  c.pointer_stabilization = minutes(1);
  c.remove_delay = 0;
  sim::Simulator sim;
  System sys(c, sim);
  const Key k = seq_key(0);
  const Key k2 = seq_key(50);
  const Bytes size = mB(4);  // ~45 s on a 750 kbps migration link
  sys.put(k, size);
  sys.put(k2, kB(8));
  const int light = node_outside_set(sys, k);
  int joiner = 0;
  while (joiner == light || !member_absent(sys, k2, joiner)) ++joiner;
  const auto trace = sim::FailureTrace::from_intervals(
      c.node_count, days(1),
      {{light, seconds(80), seconds(90)},
       {joiner, minutes(6) + seconds(2), minutes(10)}});
  sys.attach_failure_trace(&trace, 0);
  SystemTestPeer::move(sys, light, k);  // joins as the pointer primary
  const auto promotions = [&sys] {
    return sys.metrics().find_counter("system.pointer_promotions")->value();
  };

  sim.run_until(seconds(61));  // the timer fired: the old fetch is in flight
  ASSERT_TRUE(member(sys, k, light)->fetch_in_flight);
  sim.run_until(seconds(82));  // light is down
  sys.remove(k);
  sim.run_until(seconds(83));
  ASSERT_FALSE(sys.has(k));
  sys.put(k, size);  // light is down: its new member lacks the data
  ASSERT_FALSE(member(sys, k, light)->has_data);
  sim.run_until(seconds(91));  // recovered: the new fetch is in flight
  ASSERT_TRUE(member(sys, k, light)->fetch_in_flight);
  ASSERT_EQ(promotions(), 0);

  // The old transfer ends at ~105 s, the new one at ~150 s.
  sim.run_until(seconds(120));
  EXPECT_FALSE(member(sys, k, light)->has_data)
      << "the erased block's fetch completion promoted the new block";
  EXPECT_TRUE(member(sys, k, light)->fetch_in_flight);
  EXPECT_EQ(promotions(), 0);
  sim.run_until(minutes(5));
  EXPECT_TRUE(member(sys, k, light)->has_data);
  EXPECT_EQ(promotions(), 1);

  // The timer: with `k` gone, the joiner's timer for `k2` is its arc
  // queue's next event, so erasing `k2` cannot discard it.
  sys.remove(k);
  sim.run_until(minutes(6));
  SystemTestPeer::move(sys, joiner, k2);  // joins as the pointer primary
  const std::vector<sim::EventId> old_timers = recorded_timers(sys, k2);
  ASSERT_EQ(old_timers.size(), 1u);
  sys.remove(k2);
  sim.run_until(minutes(6) + seconds(1));
  ASSERT_FALSE(sys.has(k2));
  ASSERT_EQ(still_pending(sim, old_timers), 1u);
  sim.run_until(minutes(6) + seconds(3));  // the joiner is down
  sys.put(k2, kB(8));
  const store::Replica* again = member(sys, k2, joiner);
  ASSERT_NE(again, nullptr);
  ASSERT_FALSE(again->has_data);
  sim.run_until(minutes(7) + seconds(1));  // the old timer fired
  EXPECT_EQ(still_pending(sim, old_timers), 0u);
  again = member(sys, k2, joiner);
  EXPECT_FALSE(again->has_data);
  EXPECT_FALSE(again->fetch_in_flight);
  EXPECT_EQ(again->fetch_due, kSimTimeNever);
  EXPECT_EQ(again->fetch_timer, sim::Simulator::kNoEvent);
  sim.run_until(minutes(15));  // recovery fetches the new block's copy
  EXPECT_TRUE(member(sys, k2, joiner)->has_data);
  sys.check_invariants();
}

TEST(System, FetchCompletingInsideAnOpBatchServesItsLaterGets) {
  // A pointer member's fetch timer fires inside one op batch, and a get
  // later in the same batch comes after the transfer's end. The member
  // holds the data by then, so it serves that get; the stale holder
  // serves only the get before the fetch. The completion fires when the
  // transfer ends, not at the batch's flush.
  SystemConfig c = small_config();
  c.replicas = 1;
  c.pointer_stabilization = minutes(1);
  sim::Simulator sim;
  System sys(c, sim);
  const Key k = seq_key(0);
  sys.put(k, mB(1));  // ~11 s on a 750 kbps migration link
  const int holder = sys.replica_nodes(k).front();
  const int light = node_outside_set(sys, k);
  SystemTestPeer::move(sys, light, k);  // the sole member, a pointer
  ASSERT_EQ(sys.replica_nodes(k), std::vector<int>{light});
  ASSERT_EQ(sys.serving_node(k), holder);

  OpBatchRunner batch(sys, sim);
  const fs::StoreOp get{fs::StoreOp::Kind::kGet, k, mB(1)};
  batch.add(get, seconds(30), 0);  // before the timer fires at 60 s
  ASSERT_FALSE(batch.should_flush_before(minutes(2)));
  batch.add(get, minutes(2), 1);  // after the transfer ends at ~71 s
  batch.flush();
  ASSERT_EQ(batch.outcomes().size(), 2u);
  EXPECT_EQ(batch.outcomes()[0].serving, holder);
  EXPECT_EQ(batch.outcomes()[1].serving, light)
      << "a get after the transfer's end saw the stale holder";
  EXPECT_TRUE(member(sys, k, light)->has_data);
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
