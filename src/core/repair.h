// Self-heal repair engine: redundancy maintenance over the failure model.
//
// ROADMAP item 2 / DESIGN.md §10. The availability experiments treat
// redundancy as accounting; this engine runs the real thing, modeled on
// gluster's AFR self-heal daemon: it subscribes to FailureTrace
// transitions, walks the node's blocks (a per-node index of block
// handles) for under-replicated / under-coded ones when a node goes down
// (after a transient-failure damping delay) or rejoins, and schedules
// fragment reconstruction as simulator events
// whose transfer cost combines net::TcpModel slow-start latency,
// net::LatencyModel RTTs, and a per-node repair-bandwidth budget
// (sim::BandwidthLink) so repair competes with — rather than preempts —
// foreground traffic.
//
// Redundancy is uniformly (k, m) Reed–Solomon over the real codec in
// store/ec.h: r-way replication is the k = 1, m = r - 1 special case
// (every "fragment" is a copy-sized unit and any one recovers the
// block), so replication and erasure coding share one repair path and
// both push real bytes through the codec. Every block carries a small
// deterministic payload derived from its key; every reconstruction
// decodes k surviving fragments and is verified against a re-encode of
// the original payload — the codec is load-bearing, not decorative.
//
// Block lifecycle: fully-protected (all n = k + m fragments on up
// members) → degraded (a member lost its fragment, or holds one on a
// down node) → repairing (reconstruction events in flight, gated by the
// per-node budget) → fully-protected again, or *dead* when fewer than k
// intact fragments exist anywhere (down-but-intact fragments count —
// only actual data loss kills a block). Durability is the fraction of
// blocks that ever die; MTTR is measured per degradation episode.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/key.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "dht/ring.h"
#include "net/latency.h"
#include "net/tcp_model.h"
#include "obs/metrics.h"
#include "sim/bandwidth.h"
#include "sim/failure.h"
#include "sim/paged_array.h"
#include "sim/simulator.h"
#include "store/block_map.h"
#include "store/ec.h"

namespace d2::core {

struct RepairEngineTestPeer;

struct RepairConfig {
  int node_count = 64;
  /// rep-r (replicas copies) or rs-k-m (ec_* fragments).
  bool erasure = false;
  int replicas = 3;
  int ec_data_fragments = 6;
  int ec_parity_fragments = 3;

  /// Logical block size — drives all traffic and storage accounting.
  Bytes block_size = 8 * 1024;

  /// Per-node bandwidth budget reserved for repair traffic; repairs
  /// into a node serialize through it (§8.1 uses the same 750 kbps cap
  /// for migration).
  BitRate repair_bandwidth = kbps(750);
  /// How long a node must stay down before its blocks are re-protected
  /// elsewhere (gluster's transient-failure damping; avoids repairing
  /// through every reboot).
  SimTime detect_delay = minutes(10);
  /// Backoff before retrying a repair that found < k reachable fragments.
  SimTime retry_delay = minutes(5);
  /// Probability that a node-down event destroys the node's stored
  /// fragments (disk loss) rather than just making them unreachable.
  double data_loss_fraction = 0.5;

  double mean_rtt_ms = 90.0;
  /// What remains of the removed arc-partitioned engine: accepts only 1.
  int arcs = 1;
  /// Event-queue backend (wheel default; heap = differential reference).
  sim::SchedulerKind scheduler = sim::SchedulerKind::kWheel;
  std::uint64_t seed = 1;
};

/// Aggregated engine state for reporting (all deterministic integers /
/// exact sums, so formatted output is byte-stable).
struct RepairStats {
  std::size_t blocks = 0;
  std::uint64_t blocks_lost = 0;  // ever unrecoverable
  Bytes repair_bytes = 0;         // the paper's L
  Bytes user_write_bytes = 0;     // the paper's W (populate + foreground)
  std::uint64_t repairs_started = 0;
  std::uint64_t repairs_completed = 0;
  std::uint64_t repair_retries = 0;
  std::uint64_t verified_reconstructions = 0;
  std::uint64_t writes_failed = 0;
  std::size_t mttr_episodes = 0;
  double mttr_mean_s = 0.0;
  double mttr_p99_s = 0.0;
  std::size_t open_episodes = 0;  // still degraded at snapshot time
  /// Blocks the node-down, detect-delay and node-up passes visited: the
  /// node's index entries, plus its orphans on a lossy down. Work, not
  /// an outcome.
  std::uint64_t node_event_blocks = 0;
};

class RepairEngine {
 public:
  RepairEngine(const RepairConfig& config, sim::Simulator& sim);

  int k() const { return codec_.k(); }
  int n() const { return codec_.n(); }
  const RepairConfig& config() const { return cfg_; }

  /// Creates `count` blocks with random keys, fully protected on their
  /// successor sets. Requires every node up (call at t = 0, before the
  /// failure trace starts).
  void populate(std::int64_t count);

  /// Schedules every up/down transition of `trace` as a global simulator
  /// event. Each down event independently destroys the node's fragments
  /// with probability data_loss_fraction (drawn here, so the outcome is
  /// independent of event execution interleaving).
  void attach_failure_trace(const sim::FailureTrace& trace);

  /// Starts a foreground write process: each node writes a fresh block
  /// at exponential intervals averaging `writes_per_node_per_day`, while
  /// up, until simulated time `until`. Supplies the W in L/W and keeps
  /// creating blocks born degraded during outages.
  void start_foreground_writes(double writes_per_node_per_day, SimTime until);

  RepairStats snapshot() const;

  /// Full-structure audit; throws InvariantError naming the violated
  /// invariant. Audits the ring and BlockMap, one record per block in
  /// its slab slot, each record's fragments against replica membership
  /// (member has_data ⟺ it holds a fragment; stale holders keep theirs;
  /// every fragment belongs to a member or stale holder and has the
  /// right length), dead flags (< k intact fragments iff dead), the
  /// repair queue (every in-flight member is tracked, tracked entries
  /// reference live blocks), episode starts (degraded blocks only), the
  /// dead and open-episode counters, the node index (each node lists
  /// exactly the blocks it is a member or stale holder of, in key
  /// order) and byte accounting (repair bytes == the sum over per-node
  /// budget links).
  void check_invariants() const;

 private:
  friend struct RepairEngineTestPeer;

  /// One stored fragment: encode-matrix row `index` living on `node`.
  struct Frag {
    int index;
    int node;
    std::vector<std::uint8_t> bytes;
  };

  static constexpr SimTime kNoEpisode = kSimTimeNever;

  /// RepairEngine's state of one block. It sits in the slot the block's
  /// BlockMap slab slot has: RepairEngine never erases a block, so the
  /// map hands out slots 0, 1, 2, ... and records_[slot] belongs to the
  /// block BlockHandle(slot, ·) names.
  struct Record {
    Key key;
    /// Sorted by (index, node); unique per (index, node).
    std::vector<Frag> frags;
    /// When protection first dropped, or kNoEpisode.
    SimTime degraded_since = kNoEpisode;
    /// Unrecoverable (fewer than k intact indices); never reset.
    bool dead = false;
  };

  bool node_up(int node) const {
    return up_[static_cast<std::size_t>(node)] != 0;
  }
  Record& record(store::BlockHandle h) { return records_[h.slot()]; }
  const Record& record(store::BlockHandle h) const {
    return records_[h.slot()];
  }
  store::BlockState& state(store::BlockHandle h) {
    store::BlockState* b = map_.at(h);
    D2_DCHECK(b != nullptr);
    return *b;
  }
  std::vector<std::uint8_t> payload_of(const Key& key) const;

  /// Successor-order replica set under the current up/down state:
  /// Ring::successors of the key's owner until n members are up, the
  /// walk System places its members with.
  void target_replica_set(const Key& key, std::vector<int>& out) const;

  /// Inserts one block with target set `set`: BlockMap entry, record,
  /// encoded fragments on its first n up members. Leaves the node index,
  /// W and the degradation episode to the caller, which guarantees at
  /// least k members are up.
  store::BlockHandle place_block(const Key& key, const std::vector<int>& set);
  /// Writes one block at the current time (place_block), counting W and
  /// opening its degradation episode. Returns false (a failed write) when
  /// fewer than k members are reachable.
  bool write_block(const Key& key, SimTime now);

  void schedule_next_write(int node);
  void do_foreground_write(int node);

  void on_node_down(int node, bool lose_data);
  void on_node_up(int node);
  /// Detect-delay callback: re-protect the (still-down) node's blocks.
  void repair_scan(int node);

  /// Re-derives one block's membership from the ring + up/down state,
  /// syncs its fragments, schedules reconstruction for up members
  /// lacking data, and updates its degradation episode.
  void reconcile(store::BlockHandle h);
  void start_repair(store::BlockHandle h, int node);
  void finish_repair(store::BlockHandle h, int node);
  void retry_repair(store::BlockHandle h, int node);

  /// Distinct fragment indices intact anywhere (down-but-intact counts).
  static int intact_indices(const std::vector<Frag>& frags);
  /// Distinct fragment indices held by up members with data.
  int live_indices(const store::BlockState& b,
                   const std::vector<Frag>& frags) const;
  /// Picks k reachable fragments (distinct indices, up holders,
  /// excluding `exclude_node`) in (index, node) order. Returns false if
  /// fewer than k are reachable.
  bool pick_sources(const std::vector<Frag>& frags, int exclude_node,
                    std::vector<const Frag*>& out) const;
  void mark_dead(Record& rec);
  void update_episode(Record& rec, const store::BlockState& b);
  /// Drops fragments on nodes that are neither members nor stale
  /// holders of the block (after reassign/mark_data pruning).
  void sync_frags(Record& rec, const store::BlockState& b);

  /// Node index upkeep. index_add/index_remove put `h` into / take it
  /// out of `node`'s key-ordered list. reindex brings every list up to
  /// date after a mutation that may have changed block `h`'s holders,
  /// given its holders (members, then stale holders) from before it.
  void index_add(int node, store::BlockHandle h);
  void index_remove(int node, store::BlockHandle h);
  static void holders_of(const store::BlockState& b, std::vector<int>& out);
  void reindex(store::BlockHandle h, const std::vector<int>& before);
  void maybe_audit();

  RepairConfig cfg_;
  sim::Simulator& sim_;
  Rng rng_;
  dht::Ring ring_;
  net::LatencyModel latency_;
  net::TcpModel tcp_;
  store::BlockMap map_;
  store::ErasureCodec codec_;
  Bytes frag_traffic_bytes_;  // per-fragment accounting size
  Bytes frag_payload_len_;    // per-fragment real payload length

  std::vector<char> up_;
  std::vector<sim::BandwidthLink> links_;  // per-node repair budget

  /// Per-block records, slot-aligned with the BlockMap's slab.
  sim::PagedArray<Record> records_;
  /// node -> handles of the blocks it is a member or stale holder of,
  /// in key order: what a node event walks instead of the whole map.
  std::vector<std::vector<store::BlockHandle>> node_blocks_;
  std::size_t dead_blocks_ = 0;    // records with dead set
  std::size_t open_episodes_ = 0;  // records with an episode start
  /// Reconstructions in flight, (key, target node); authoritative for
  /// the fetch_in_flight flags in the BlockMap.
  std::set<std::pair<Key, int>> inflight_;
  /// node -> keys with a detached ("orphan") fragment on that node: a
  /// sole surviving copy of its index whose holder left the replica set.
  /// Indexed so a lossy node-down can destroy these too.
  std::map<int, std::set<Key>> orphans_;

  Stats mttr_s_;
  Bytes repair_bytes_ = 0;
  Bytes user_write_bytes_ = 0;
  std::uint64_t repairs_started_ = 0;
  std::uint64_t repairs_completed_ = 0;
  std::uint64_t repair_retries_ = 0;
  std::uint64_t verified_ = 0;
  std::uint64_t writes_failed_ = 0;
  std::uint64_t node_event_blocks_ = 0;
  SimTime writes_until_ = 0;
  double write_mean_us_ = 0.0;

  ParanoidGate audit_gate_;
  std::vector<int> scratch_set_;
  std::vector<int> scratch_holders_;
  std::vector<int> scratch_after_;
  std::vector<store::BlockHandle> scratch_blocks_;
  std::vector<const Frag*> scratch_sources_;
};

/// PlanetLab-style durability scenario (ROADMAP item 2): a correlated
/// mass-failure week over a populated system, measuring durability,
/// repair traffic (L/W), and MTTR for a redundancy scheme.
struct DurabilityParams {
  RepairConfig repair;
  sim::FailureParams failure;  // node_count is overridden from `repair`
  int blocks_per_node = 50;
  double writes_per_node_per_day = 24.0;
  /// Post-trace drain: every node is back up at trace end; this much
  /// extra simulated time lets queued repairs finish.
  SimTime drain = hours(12);
  /// What remains of the removed arc-partitioned engine: accepts only 1.
  int arc_workers = 1;
  std::uint64_t failure_seed = 42;
  /// When set, run_durability binds the simulator to it and exports the
  /// sim.* gauges and the RepairStats fields as repair.* instruments.
  obs::Registry* metrics = nullptr;
};

struct DurabilityResult {
  RepairStats stats;
  std::uint64_t events = 0;
  double unrecoverable_fraction = 0.0;  // blocks_lost / blocks
  double l_over_w = 0.0;
};

DurabilityResult run_durability(const DurabilityParams& params);

}  // namespace d2::core
