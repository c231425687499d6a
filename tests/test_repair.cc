// RepairEngine: self-heal behaviour, determinism across arc settings,
// and corruption-injection audits (core/repair.h).

#include "core/repair.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/assert.h"

namespace d2::core {

/// Corruption-injection hooks (mirrors BlockMapTestPeer / RingTestPeer).
struct RepairEngineTestPeer {
  static store::BlockMap& map(RepairEngine& e) { return e.map_; }
  static std::vector<std::unordered_map<Key, RepairEngine::FragSet, KeyHash>>&
  frag_shards(RepairEngine& e) {  // d2-lint: allow(unordered-container)
    return e.frag_shards_;
  }
  static std::set<std::pair<Key, int>>& inflight(RepairEngine& e) {
    return e.inflight_;
  }
  static std::map<Key, SimTime>& degraded_since(RepairEngine& e) {
    return e.degraded_since_;
  }
  static std::set<Key>& dead(RepairEngine& e) { return e.dead_; }
  static Bytes& repair_bytes(RepairEngine& e) { return e.repair_bytes_; }
  static std::vector<Key> keys(RepairEngine& e) {
    std::vector<Key> out;
    e.map_.for_each_block(
        [&](const Key& k, const store::BlockState&) { out.push_back(k); });
    return out;
  }
  static bool write(RepairEngine& e, const Key& k, SimTime now) {
    return e.write_block(k, now, /*in_lane=*/false);
  }
  static void node_down(RepairEngine& e, int node, bool lose_data) {
    e.on_node_down(node, lose_data);
  }
  static int member_count(RepairEngine& e, const Key& k) {
    const store::BlockState* b = e.map_.find_mutable(k);
    return b == nullptr ? 0 : static_cast<int>(b->replicas.size());
  }
};

namespace {

RepairConfig small_config(bool erasure) {
  RepairConfig cfg;
  cfg.node_count = 24;
  cfg.erasure = erasure;
  cfg.replicas = 3;
  cfg.ec_data_fragments = 4;
  cfg.ec_parity_fragments = 2;
  cfg.detect_delay = minutes(2);
  cfg.retry_delay = minutes(1);
  cfg.seed = 9;
  return cfg;
}

DurabilityParams small_scenario(bool erasure, int arcs, int workers) {
  DurabilityParams p;
  p.repair = small_config(erasure);
  p.repair.arcs = arcs;
  p.arc_workers = workers;
  p.blocks_per_node = 8;
  p.writes_per_node_per_day = 12.0;
  p.failure.duration = days(1);
  p.failure.mttf_hours = 18.0;
  p.failure.mttr_hours = 2.0;
  p.failure.correlated_events_per_day = 1.0;
  p.failure.correlated_fraction = 0.2;
  p.drain = hours(6);
  p.failure_seed = 77;
  return p;
}

std::string fingerprint(const DurabilityResult& r) {
  std::ostringstream os;
  os << r.stats.blocks << '|' << r.stats.blocks_lost << '|'
     << r.stats.repair_bytes << '|' << r.stats.user_write_bytes << '|'
     << r.stats.repairs_started << '|' << r.stats.repairs_completed << '|'
     << r.stats.repair_retries << '|' << r.stats.verified_reconstructions
     << '|' << r.stats.writes_failed << '|' << r.stats.mttr_episodes << '|'
     << r.stats.mttr_mean_s << '|' << r.stats.mttr_p99_s << '|'
     << r.stats.open_episodes << '|' << r.events;
  return os.str();
}

TEST(RepairEngine, SelfHealsThroughAFailureWeek) {
  const DurabilityResult rep = run_durability(small_scenario(false, 1, 1));
  EXPECT_GT(rep.stats.blocks, 150u);
  EXPECT_GT(rep.stats.repairs_completed, 0u);
  // Every completed reconstruction was decode-verified against a fresh
  // encode of the block's true payload.
  EXPECT_EQ(rep.stats.verified_reconstructions, rep.stats.repairs_completed);
  EXPECT_GT(rep.stats.mttr_episodes, 0u);
  EXPECT_GT(rep.stats.repair_bytes, 0);
  // With a post-trace drain every surviving block must converge back to
  // full protection — a lingering episode means a repair chain leaked.
  EXPECT_EQ(rep.stats.open_episodes, 0u);
  // Individual failures with working repair should not lose data at this
  // small scale / short horizon.
  EXPECT_LT(rep.unrecoverable_fraction, 0.05);

  const DurabilityResult ec = run_durability(small_scenario(true, 1, 1));
  EXPECT_GT(ec.stats.repairs_completed, 0u);
  EXPECT_EQ(ec.stats.verified_reconstructions, ec.stats.repairs_completed);
  EXPECT_EQ(ec.stats.open_episodes, 0u);
  // rs-4-2 spreads each block over 6 holders vs rep3's 3, so the same
  // trace degrades more blocks — the classic wide-stripe repair cost.
  EXPECT_GT(ec.stats.repairs_completed, rep.stats.repairs_completed);
}

TEST(RepairEngine, ByteIdenticalAcrossArcsAndWorkers) {
  const std::string base = fingerprint(run_durability(small_scenario(true, 1, 1)));
  EXPECT_EQ(base, fingerprint(run_durability(small_scenario(true, 8, 1))));
  EXPECT_EQ(base, fingerprint(run_durability(small_scenario(true, 8, 4))));
  const std::string rep = fingerprint(run_durability(small_scenario(false, 1, 1)));
  EXPECT_EQ(rep, fingerprint(run_durability(small_scenario(false, 4, 2))));
}

TEST(RepairEngine, TotalPermanentLossKillsEveryBlock) {
  RepairConfig cfg = small_config(true);
  cfg.data_loss_fraction = 1.0;
  sim::Simulator sim;
  RepairEngine engine(cfg, sim);
  engine.populate(100);
  // Every node dies (with disk loss) at t = 1h and never recovers within
  // the trace: all fragments are destroyed, so every block is dead.
  std::vector<sim::FailureTrace::DownInterval> downs;
  for (int node = 0; node < cfg.node_count; ++node) {
    downs.push_back({node, hours(1), days(1)});
  }
  const sim::FailureTrace trace =
      sim::FailureTrace::from_intervals(cfg.node_count, days(1), downs);
  engine.attach_failure_trace(trace);
  sim.run_until(hours(12));
  engine.check_invariants();
  const RepairStats s = engine.snapshot();
  EXPECT_EQ(s.blocks, 100u);
  EXPECT_EQ(s.blocks_lost, 100u);
}

TEST(RepairEngine, TransientOutageLosesNothingAndCloses) {
  RepairConfig cfg = small_config(true);
  cfg.data_loss_fraction = 0.0;  // reboots only, disks survive
  sim::Simulator sim;
  RepairEngine engine(cfg, sim);
  engine.populate(200);
  std::vector<sim::FailureTrace::DownInterval> downs;
  for (int node = 0; node < cfg.node_count; node += 2) {
    downs.push_back({node, hours(2), hours(5)});
  }
  const sim::FailureTrace trace =
      sim::FailureTrace::from_intervals(cfg.node_count, days(1), downs);
  engine.attach_failure_trace(trace);
  sim.run_until(days(1));
  engine.check_invariants();
  const RepairStats s = engine.snapshot();
  EXPECT_EQ(s.blocks_lost, 0u);
  EXPECT_EQ(s.open_episodes, 0u);  // everything re-protected by trace end
  EXPECT_GT(s.mttr_episodes, 0u);
}

TEST(RepairEngine, WriteIntoExtendedSetIsBornProtected) {
  // The target set extends past down nodes until n up members, so a
  // write can carry a down, data-less member yet place all n fragments
  // on up nodes. Such a block is fully protected at birth and must not
  // open a (spurious) MTTR episode.
  sim::Simulator sim;
  RepairEngine engine(small_config(false), sim);
  RepairEngineTestPeer::node_down(engine, 5, /*lose_data=*/false);
  Rng kr(123);
  bool saw_extended = false;
  for (int i = 0; i < 64; ++i) {
    const Key key = Key::random(kr);
    ASSERT_TRUE(RepairEngineTestPeer::write(engine, key, sim.now()));
    if (RepairEngineTestPeer::member_count(engine, key) > 3) {
      saw_extended = true;
    }
  }
  ASSERT_TRUE(saw_extended);  // at least one set routed around node 5
  EXPECT_TRUE(RepairEngineTestPeer::degraded_since(engine).empty());
  EXPECT_EQ(engine.snapshot().mttr_episodes, 0u);
  engine.check_invariants();
}

// --- corruption injection: every queue/sidecar invariant must trip ---

class RepairAuditTest : public ::testing::Test {
 protected:
  RepairAuditTest() : engine_(small_config(true), sim_) {
    engine_.populate(40);
    engine_.check_invariants();  // clean baseline
    keys_ = RepairEngineTestPeer::keys(engine_);
  }

  sim::Simulator sim_;
  RepairEngine engine_;
  std::vector<Key> keys_;
};

TEST_F(RepairAuditTest, DetectsVanishedFragment) {
  auto& shards = RepairEngineTestPeer::frag_shards(engine_);
  const Key& k = keys_.front();
  auto& fs = shards[static_cast<std::size_t>(
      RepairEngineTestPeer::map(engine_).arc_of(k))][k];
  fs.frags.pop_back();  // a member still claims has_data for it
  EXPECT_THROW(engine_.check_invariants(), InvariantError);
}

TEST_F(RepairAuditTest, DetectsUntrackedInflightMember) {
  store::BlockState* b =
      RepairEngineTestPeer::map(engine_).find_mutable(keys_.front());
  ASSERT_NE(b, nullptr);
  b->replicas.front().fetch_in_flight = true;  // not in the repair queue
  EXPECT_THROW(engine_.check_invariants(), InvariantError);
}

TEST_F(RepairAuditTest, DetectsGhostQueueEntry) {
  RepairEngineTestPeer::inflight(engine_).insert({Key::from_uint64(1), 0});
  EXPECT_THROW(engine_.check_invariants(), InvariantError);
}

TEST_F(RepairAuditTest, DetectsBogusEpisode) {
  // A fully protected block must not carry an open degradation episode.
  RepairEngineTestPeer::degraded_since(engine_).emplace(keys_.front(), 0);
  EXPECT_THROW(engine_.check_invariants(), InvariantError);
}

TEST_F(RepairAuditTest, DetectsFalseDeath) {
  RepairEngineTestPeer::dead(engine_).insert(keys_.front());
  EXPECT_THROW(engine_.check_invariants(), InvariantError);
}

TEST_F(RepairAuditTest, DetectsByteAccountingDrift) {
  RepairEngineTestPeer::repair_bytes(engine_) += 1;
  EXPECT_THROW(engine_.check_invariants(), InvariantError);
}

}  // namespace
}  // namespace d2::core
