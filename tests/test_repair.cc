// RepairEngine: self-heal behaviour, the per-node block index,
// and corruption-injection audits (core/repair.h).

#include "core/repair.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/assert.h"

namespace d2::core {

/// Corruption-injection hooks (mirrors BlockMapTestPeer / RingTestPeer).
struct RepairEngineTestPeer {
  static store::BlockMap& map(RepairEngine& e) { return e.map_; }
  static RepairEngine::Record& record(RepairEngine& e, const Key& k) {
    return e.record(e.map_.handle_of(k));
  }
  static std::set<std::pair<Key, int>>& inflight(RepairEngine& e) {
    return e.inflight_;
  }
  /// Records with an open degradation episode, counted from the records.
  static std::size_t open_episode_records(RepairEngine& e) {
    std::size_t open = 0;
    e.map_.for_each_block([&](const Key& k, const store::BlockState&) {
      if (record(e, k).degraded_since != RepairEngine::kNoEpisode) ++open;
    });
    return open;
  }
  static std::size_t& dead_blocks(RepairEngine& e) { return e.dead_blocks_; }
  static std::size_t& open_episodes(RepairEngine& e) {
    return e.open_episodes_;
  }
  static std::vector<store::BlockHandle>& node_blocks(RepairEngine& e,
                                                      int node) {
    return e.node_blocks_[static_cast<std::size_t>(node)];
  }
  static Bytes& repair_bytes(RepairEngine& e) { return e.repair_bytes_; }
  static std::vector<Key> keys(RepairEngine& e) {
    std::vector<Key> out;
    e.map_.for_each_block(
        [&](const Key& k, const store::BlockState&) { out.push_back(k); });
    return out;
  }
  static bool write(RepairEngine& e, const Key& k, SimTime now) {
    return e.write_block(k, now);
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

DurabilityParams small_scenario(bool erasure) {
  DurabilityParams p;
  p.repair = small_config(erasure);
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

TEST(RepairEngine, SelfHealsThroughAFailureWeek) {
  const DurabilityResult rep = run_durability(small_scenario(false));
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

  const DurabilityResult ec = run_durability(small_scenario(true));
  EXPECT_GT(ec.stats.repairs_completed, 0u);
  EXPECT_EQ(ec.stats.verified_reconstructions, ec.stats.repairs_completed);
  EXPECT_EQ(ec.stats.open_episodes, 0u);
  // rs-4-2 spreads each block over 6 holders vs rep3's 3, so the same
  // trace degrades more blocks — the classic wide-stripe repair cost.
  EXPECT_GT(ec.stats.repairs_completed, rep.stats.repairs_completed);
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
  EXPECT_EQ(RepairEngineTestPeer::open_episode_records(engine), 0u);
  EXPECT_EQ(engine.snapshot().mttr_episodes, 0u);
  engine.check_invariants();
}

/// Test-local whole-map scan: for each node, the handles of the blocks
/// it is a member or stale holder of, in key order.
std::vector<std::vector<store::BlockHandle>> scan_holders(RepairEngine& e,
                                                          int node_count) {
  store::BlockMap& map = RepairEngineTestPeer::map(e);
  std::vector<std::vector<store::BlockHandle>> out(
      static_cast<std::size_t>(node_count));
  map.for_each_block([&](const Key& k, const store::BlockState& b) {
    const store::BlockHandle h = map.handle_of(k);
    for (const store::Replica& r : b.replicas) {
      out[static_cast<std::size_t>(r.node)].push_back(h);
    }
    for (int node : b.stale_holders) {
      out[static_cast<std::size_t>(node)].push_back(h);
    }
  });
  return out;
}

TEST(RepairEngine, NodeIndexMatchesHolderScan) {
  RepairConfig cfg = small_config(true);
  cfg.data_loss_fraction = 0.8;
  sim::Simulator sim;
  RepairEngine engine(cfg, sim);
  engine.populate(20);
  engine.populate(20);  // merges its blocks into non-empty lists
  sim::FailureParams fp;
  fp.node_count = cfg.node_count;
  fp.duration = hours(20);
  fp.mttf_hours = 10;
  fp.mttr_hours = 2;
  fp.correlated_events_per_day = 2;
  fp.correlated_fraction = 0.25;
  Rng trace_rng(31);
  engine.attach_failure_trace(sim::FailureTrace::generate(fp, trace_rng));
  engine.start_foreground_writes(12, fp.duration);
  std::size_t steps = 0;
  std::size_t stale_entries = 0;
  bool index_ok = true;
  while (index_ok && sim.step()) {
    ++steps;
    const auto scan = scan_holders(engine, cfg.node_count);
    RepairEngineTestPeer::map(engine).for_each_block(
        [&](const Key&, const store::BlockState& b) {
          stale_entries += b.stale_holders.size();
        });
    for (int node = 0; node < cfg.node_count; ++node) {
      if (RepairEngineTestPeer::node_blocks(engine, node) !=
          scan[static_cast<std::size_t>(node)]) {
        ADD_FAILURE() << "node " << node << "'s index diverges after event "
                      << steps << " at t=" << sim.now();
        index_ok = false;
      }
    }
  }
  engine.check_invariants();
  const RepairStats s = engine.snapshot();
  // The trace exercised what changes holders: disk loss, departing
  // members kept as stale holders, repairs that prune them, and writes.
  EXPECT_GT(stale_entries, 0u);
  EXPECT_GT(s.blocks_lost, 0u);
  EXPECT_GT(s.repairs_completed, 0u);
  EXPECT_GT(s.blocks, 40u);
  EXPECT_GT(s.node_event_blocks, 0u);
}

// --- corruption injection: every queue/record/index invariant must trip ---

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
  // A member still claims has_data for the dropped fragment.
  RepairEngineTestPeer::record(engine_, keys_.front()).frags.pop_back();
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
  RepairEngineTestPeer::record(engine_, keys_.front()).degraded_since = 0;
  EXPECT_THROW(engine_.check_invariants(), InvariantError);
}

TEST_F(RepairAuditTest, DetectsFalseDeath) {
  RepairEngineTestPeer::record(engine_, keys_.front()).dead = true;
  EXPECT_THROW(engine_.check_invariants(), InvariantError);
}

TEST_F(RepairAuditTest, DetectsCounterDrift) {
  ++RepairEngineTestPeer::dead_blocks(engine_);
  EXPECT_THROW(engine_.check_invariants(), InvariantError);
  --RepairEngineTestPeer::dead_blocks(engine_);
  ++RepairEngineTestPeer::open_episodes(engine_);
  EXPECT_THROW(engine_.check_invariants(), InvariantError);
  --RepairEngineTestPeer::open_episodes(engine_);
  engine_.check_invariants();
}

TEST_F(RepairAuditTest, DetectsNodeIndexDrift) {
  // A node holding at least two blocks; rs-4-2 over 24 nodes spreads 40
  // blocks' 240 members, so node 0 holds several.
  std::vector<store::BlockHandle>& list =
      RepairEngineTestPeer::node_blocks(engine_, 0);
  ASSERT_GE(list.size(), 2u);
  const std::vector<store::BlockHandle> clean = list;

  list.erase(list.begin() + 1);  // a holder's block is missing
  EXPECT_THROW(engine_.check_invariants(), InvariantError);
  list = clean;

  // A block node 0 does not hold, put at its key position.
  const std::vector<store::BlockHandle>& other =
      RepairEngineTestPeer::node_blocks(engine_, 1);
  store::BlockHandle stray;
  for (const store::BlockHandle h : other) {
    if (std::find(clean.begin(), clean.end(), h) == clean.end()) {
      stray = h;
      break;
    }
  }
  ASSERT_FALSE(stray == store::BlockHandle{});
  const store::BlockMap& map = RepairEngineTestPeer::map(engine_);
  const auto key_of = [&](store::BlockHandle h) {
    Key found;
    map.for_each_block([&](const Key& k, const store::BlockState&) {
      if (map.handle_of(k) == h) found = k;
    });
    return found;
  };
  const Key stray_key = key_of(stray);
  auto pos = list.begin();
  while (pos != list.end() && key_of(*pos) < stray_key) ++pos;
  list.insert(pos, stray);
  EXPECT_THROW(engine_.check_invariants(), InvariantError);
  list = clean;

  std::swap(list[0], list[1]);  // right blocks, wrong order
  EXPECT_THROW(engine_.check_invariants(), InvariantError);
  list = clean;
  engine_.check_invariants();
}

TEST_F(RepairAuditTest, DetectsByteAccountingDrift) {
  RepairEngineTestPeer::repair_bytes(engine_) += 1;
  EXPECT_THROW(engine_.check_invariants(), InvariantError);
}

}  // namespace
}  // namespace d2::core
