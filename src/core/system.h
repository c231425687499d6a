// The D2 system simulator: a DHT of N nodes with replicated block
// storage, Mercury-style active load balancing with block pointers, and
// (optionally) a node-failure process with bandwidth-limited replica
// regeneration.
//
// This is the paper's §8.1 "detailed event-driven simulator": it captures
// every facet of D2 except DHT routing (which the performance experiments
// layer on separately via dht::Router), models the 750 kbps per-node cap
// on migration traffic, and maintains the invariant that each block is
// stored on the r successors of its key — re-established after every
// load-balancing ID change via replica adjustment, with new members
// holding block pointers until the pointer stabilization time elapses.
//
// The same class simulates the traditional baselines: consistent hashing
// is just "locality-free keys" (provided by the fs layer) plus load
// balancing disabled.
//
// ## Arc sharding (DESIGN.md §9)
//
// With config.arcs > 1 every piece of keyed state — the block map, TTL
// deadlines, extended-set membership — is sharded by the key's arc, and
// the key-local events (TTL expiry, delayed remove, fetch timers) are
// scheduled onto the key's arc queue. An arc lane (parallel window or
// batched op phase) may therefore run put/remove/refresh/get/try_fetch
// for its own keys touching only its shard. Cross-cutting state stays
// coordinator-only, reached from lanes through two deterministic relays
// (DESIGN.md §12's event-class taxonomy):
//   - migration links: a fetch admitted by a lane stages a bandwidth
//     reservation; the simulator's commit hook resolves all staged
//     reservations in (time, arc, seq) order on the coordinator, so the
//     shared FIFO links see one canonical enqueue order in every
//     arcs/workers configuration;
//   - probes: per-node jittered due times live in a coordinator-side
//     commit calendar; one global tick per probe_commit_interval
//     evaluates every probe due in the last epoch in (due, node) order
//     against live state (probes read ring/rng/primary counts, so they
//     are genuinely global — the tick just batches them).
// Failure transitions remain individually global: they mutate node
// up/down state every arc reads.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/key.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "core/config.h"
#include "dht/load_balance.h"
#include "dht/ring.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/bandwidth.h"
#include "sim/failure.h"
#include "sim/simulator.h"
#include "store/block_map.h"

namespace d2::core {

struct SystemTestPeer;

class System {
 public:
  /// When `metrics` is null the system owns a private obs::Registry; in
  /// either case all traffic accounting lives in registry instruments
  /// (`system.*`, `dht.load_balancer.*`, `sim.migration_link.*`) and the
  /// legacy accessors below are shims over them.
  System(const SystemConfig& config, sim::Simulator& sim,
         obs::Registry* metrics = nullptr);

  /// Unregisters the commit hook (the system registers itself as the
  /// simulator's single commit-hook client for fetch reservations).
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  const SystemConfig& config() const { return config_; }
  sim::Simulator& simulator() { return sim_; }
  const dht::Ring& ring() const { return ring_; }
  store::BlockMap& block_map() { return map_; }
  const store::BlockMap& block_map() const { return map_; }

  // ----- store interface (driven by fs::StoreOps) -----

  /// Writes a block at the current simulated time. If the key exists this
  /// is an in-place update (the mutable root block); otherwise the block
  /// is placed on the r successors of its key. Down members receive their
  /// copy later (recovery fetch).
  void put(const Key& k, Bytes size) { put_at(k, size, sim_.now()); }

  /// Schedules removal after the configured delay (§3). Unknown keys are
  /// ignored (the block may have been removed already).
  void remove(const Key& k) { remove_at(k, sim_.now()); }

  /// Extends a block's TTL (no-op when block_ttl is 0 or the key is
  /// unknown). put() refreshes implicitly.
  void refresh(const Key& k) { refresh_at(k, sim_.now()); }

  /// Explicit-time variants, for batched op application (core/op_batch.h):
  /// a lane applying a backlog of replay ops passes each op's record time
  /// `t` (>= now) so TTL deadlines and removal delays are anchored exactly
  /// where the serial, one-run_until-per-op engine would put them.
  void put_at(const Key& k, Bytes size, SimTime t);
  void remove_at(const Key& k, SimTime t);
  void refresh_at(const Key& k, SimTime t);

  bool has(const Key& k) const { return map_.contains(k); }

  /// True iff the block can be served right now: some responsible replica
  /// is up with data, or a responsible node is up and can redirect to an
  /// up holder (block pointer indirection).
  bool block_available(const Key& k) const;

  /// The node that would serve a get for `k` right now (first up replica
  /// holding data), or nullopt if unavailable/unknown.
  std::optional<int> serving_node(const Key& k) const;

  /// Current responsible replica nodes (successor order).
  std::vector<int> replica_nodes(const Key& k) const;

  int owner_of(const Key& k) const { return ring_.owner(k); }

  // ----- load balancing -----

  /// Starts the per-node periodic probe process (call once, before
  /// running the simulator).
  void start_load_balancing();

  /// Runs one probe by `prober` against a random other node immediately.
  /// Returns true if it triggered a move. Exposed for tests.
  bool probe_once(int prober);

  // ----- failures -----

  /// Attaches a failure trace whose t=0 maps to simulated time `offset`.
  /// Schedules all up/down transitions. Call before running.
  void attach_failure_trace(const sim::FailureTrace* trace, SimTime offset);

  bool node_up(int node) const;

  // ----- metrics -----

  /// The registry this system reports into (its own unless one was
  /// injected).
  obs::Registry& metrics() { return *metrics_; }
  const obs::Registry& metrics() const { return *metrics_; }

  /// Attaches an event tracer (lb_move, replica_fetch, node_down/up,
  /// block_expired). Pass nullptr to detach. Tracing records from TTL
  /// events, which arc lanes execute, so it requires a serial simulator.
  void set_tracer(obs::Tracer* tracer) {
    D2_REQUIRE_MSG(tracer == nullptr || sim_.workers() == 1,
                   "event tracing requires arc_workers == 1");
    tracer_ = tracer;
  }

  // Legacy accessors — per-instance totals. The registry carries the same
  // quantities under `system.*`, but a registry shared across trials
  // aggregates every bound System; these members answer "what did *this*
  // system do", which is what per-trial experiment results need to stay
  // identical between serial and parallel runs.
  Bytes user_write_bytes() const { return sum_shards(user_write_bytes_sh_); }
  Bytes user_removed_bytes() const {
    return sum_shards(user_removed_bytes_sh_);
  }
  Bytes migration_bytes() const { return sum_shards(migration_bytes_sh_); }
  std::int64_t lb_moves() const { return lb_moves_; }
  void reset_traffic_counters();

  /// Normalized standard deviation of per-node physical storage (§10's
  /// imbalance metric), and max/mean load.
  double load_imbalance() const;
  double max_over_mean_load() const;

  /// Full cross-layer audit; throws InvariantError naming the violated
  /// invariant. Audits the ring and block map individually, then the
  /// system-level invariant tying them together: the ring holds exactly
  /// node_count members and every block's primary is the ring owner of
  /// its key (§3's successor placement, re-established by readjustment
  /// after every ID change). With arcs > 1 it also audits the partition
  /// bijection: every TTL deadline and extended-set entry is filed under
  /// the arc shard that owns its key (the block map audits the same for
  /// block storage). Wired into execute_move / on_node_down /
  /// on_node_up and sampled put/remove paths when built with D2_PARANOID
  /// or running with config.paranoid_audits; callable from tests always.
  void check_invariants() const;

 private:
  /// Test hook (tests/test_system.cc): applies chosen ID moves directly.
  friend struct SystemTestPeer;

  struct NodeState {
    sim::BandwidthLink migration_link;
    bool up = true;
    explicit NodeState(BitRate rate) : migration_link(rate) {}
  };

  int effective_replicas() const;
  bool erasure() const;
  /// Up nodes currently holding a data copy/fragment of `b`.
  int up_data_holders(const store::BlockState& b) const;
  /// Fills `out` (cleared first) with the successor-order replica set for
  /// `k`: successor_set of its owner plus append_scattered. Out-param so
  /// hot callers can reuse a scratch buffer.
  void target_replica_set(const Key& k, std::vector<int>& out) const;
  /// Fills `out` (cleared first) with the successor part of the replica
  /// set of every key `owner` owns.
  void successor_set(int owner, std::vector<int>& out) const;
  /// Appends the scattered members of `k` (hybrid placement) to `out`,
  /// which holds its successor part.
  void append_scattered(const Key& k, std::vector<int>& out) const;
  /// Replica-set members placed at hashed positions (hybrid placement).
  int scattered_members() const;
  /// Ring position of the i-th scattered replica of key `k`.
  static Key scatter_position(const Key& k, int i);
  void register_scatter(const Key& k);
  void forget_scatter(const Key& k);
  void schedule_probe(int node);
  /// Files node's next probe, due jitter past `from`, in the commit
  /// calendar (probe_commit_interval > 0 paths).
  void schedule_probe_due(int node, SimTime from);
  /// Schedules the global tick for the first non-empty calendar epoch.
  void schedule_probe_tick();
  /// Processes every probe due in `epoch`, in (due, node) order, then
  /// chains the next tick.
  void probe_commit_tick(std::int64_t epoch);
  std::int64_t probe_epoch(SimTime due) const {
    return (due + config_.probe_commit_interval - 1) /
           config_.probe_commit_interval;
  }
  void execute_move(const dht::MoveDecision& decision);
  /// Recomputes replica sets for all blocks in the cover arc around
  /// `around_node` (its scan_cap(r) = r+6 predecessors through itself)
  /// and schedules fetches for members lacking data. `fetch_delay`
  /// applies to newly created pointer members.
  void readjust_arc(int around_node, SimTime fetch_delay);
  /// Gives block `k`, whose state `b` the caller holds, the replica set
  /// `set`; returns whether its member list changed. Fetch-timer
  /// ownership: each member lacking data has at most one pending timer,
  /// due at Replica::fetch_due. A readjustment arms one only when it
  /// wants the fetch earlier than the pending timer would.
  bool reassign_block(const Key& k, store::BlockState& b,
                      const std::vector<int>& set, SimTime fetch_delay);
  /// Blocks one readjustment or recovery pass reassigned, and how many of
  /// their member lists changed.
  struct ReassignTally {
    std::int64_t blocks = 0;
    std::int64_t changed = 0;
    void add(bool set_changed) {
      ++blocks;
      if (set_changed) ++changed;
    }
  };
  /// Adds a pass's tally to system.reassigned_blocks and
  /// system.replica_set_changes: one atomic add per pass, not per block.
  void count_pass(const ReassignTally& tally);
  void note_set_shape(const Key& k, std::size_t set_size);
  /// Arms `member`'s fetch timer for block `k` at `due`, replacing its
  /// pending one (which then fires as a no-op).
  void schedule_fetch(const Key& k, store::Replica& member, SimTime due);
  /// Fetch-timer arc event. Acts only if it is the member's own timer —
  /// the clock equals the member's fetch_due — so timers that were
  /// replaced, or armed for a previous membership, do nothing.
  void try_fetch(const Key& k, int node);
  /// Resolves every staged bandwidth reservation in (time, arc, seq)
  /// order: enqueue on the node's migration link, then schedule the
  /// fetch-completion event on the key's arc. Runs at the simulator's
  /// commit points (coordinator only) — see the class comment.
  void resolve_fetch_reservations();
  /// Fetch-completion arc event: promotes the member to a data holder if
  /// the fetch is still wanted.
  void finish_fetch(const Key& k, int node);
  void on_node_down(int node);
  void on_node_up(int node);
  std::optional<int> fetch_source(const store::BlockState& b) const;

  /// Runs check_invariants() when auditing is on (D2_PARANOID build or
  /// config.paranoid_audits). Topology changes audit unconditionally;
  /// `sampled` callers (put/remove — far more frequent) are paced by
  /// audit_gate_ to keep the amortized cost linear. From an arc lane the
  /// global audit would race with the other lanes, so only the lane's own
  /// block-map slice is audited (paced by a per-arc gate).
  void maybe_audit(bool sampled);

  /// Shard slot for lane-striped scratch and totals: the lane's own arc
  /// inside an arc lane, the extra coordinator slot (index arcs) outside.
  std::size_t shard_slot() const {
    return sim_.in_lane() ? static_cast<std::size_t>(sim_.lane_arc())
                          : static_cast<std::size_t>(config_.arcs);
  }
  // Reference into expiry_, whose declaration documents why hash order
  // cannot leak. d2-lint: allow(unordered-container)
  std::unordered_map<Key, SimTime, KeyHash>& expiry_shard(const Key& k) {
    return expiry_[static_cast<std::size_t>(map_.arc_of(k))];
  }
  std::set<Key>& extended_shard(const Key& k) {
    return extended_[static_cast<std::size_t>(map_.arc_of(k))];
  }
  static Bytes sum_shards(const std::vector<Bytes>& shards) {
    Bytes total = 0;
    for (Bytes b : shards) total += b;
    return total;
  }

  // Per-instance accounting plus the shared-registry mirror. The shards
  // are lane-disjoint plain integers; the registry counters are atomic.
  void add_user_write_bytes(Bytes n) {
    user_write_bytes_sh_[shard_slot()] += n;
    user_write_bytes_c_->add(n);
  }
  void add_user_removed_bytes(Bytes n) {
    user_removed_bytes_sh_[shard_slot()] += n;
    user_removed_bytes_c_->add(n);
  }

  SystemConfig config_;
  sim::Simulator& sim_;
  std::unique_ptr<obs::Registry> owned_metrics_;  // set iff none injected
  obs::Registry* metrics_;
  obs::Tracer* tracer_ = nullptr;
  Rng rng_;
  dht::Ring ring_;
  store::BlockMap map_;
  /// Block TTL deadlines, one shard per arc (the owning lane's private
  /// state). Keyed lookup/erase only outside audits, so the hash order
  /// cannot leak into event order.
  std::vector<std::unordered_map<Key, SimTime, KeyHash>> expiry_ D2_SHARDED_BY_ARC(arc);  // d2-lint: allow(unordered-container)
  /// scatter position -> block key, for hybrid placement readjustment.
  /// Couples arbitrary keys, hence scatter requires config.arcs == 1.
  std::multimap<Key, Key> scatter_index_;
  /// Blocks whose replica set is currently extended past the canonical
  /// size (members down / regeneration), one shard per arc. Shards
  /// concatenated in arc order enumerate keys ascending, exactly like
  /// the single pre-sharding set. Re-canonicalized on recoveries,
  /// regardless of how far load balancing has shifted ring ranks.
  std::vector<std::set<Key>> extended_ D2_SHARDED_BY_ARC(arc);
  dht::LoadBalancer balancer_;
  std::vector<NodeState> nodes_;
  /// Scratch for target_replica_set results on the put/reassign hot path
  /// (avoids a heap allocation per block write / replica adjustment).
  /// One buffer per shard slot so concurrent lanes don't share it.
  mutable std::vector<std::vector<int>> replica_set_scratch_ D2_SHARDED_BY_ARC(slot);
  ParanoidGate audit_gate_;  // paces sampled full audits
  // Pace per-slice lane audits.
  std::vector<ParanoidGate> lane_audit_gates_ D2_SHARDED_BY_ARC(arc);
  const sim::FailureTrace* failure_trace_ = nullptr;

  // Per-instance traffic totals (the accessors above), lane-sharded like
  // the scratch (slot arcs = coordinator) ...
  std::vector<Bytes> user_write_bytes_sh_ D2_SHARDED_BY_ARC(slot);
  std::vector<Bytes> user_removed_bytes_sh_ D2_SHARDED_BY_ARC(slot);
  std::vector<Bytes> migration_bytes_sh_ D2_SHARDED_BY_ARC(slot);
  std::int64_t lb_moves_ = 0;

  /// A fetch admitted inside an arc lane cannot touch its node's shared
  /// FIFO migration link directly, so it stages a reservation in its
  /// arc's slot (single-writer; the coordinator slot covers serial
  /// execution too — staging is keyed by the *key's* arc in both modes so
  /// (t, arc, seq) is mode-independent). resolve_fetch_reservations()
  /// drains them at commit points.
  struct FetchReservation {
    SimTime t;  // lane event time of the admitting try_fetch
    Key k;
    int node;
    Bytes bytes;
  };
  std::vector<std::vector<FetchReservation>> fetch_reservations_ D2_SHARDED_BY_ARC(arc);
  struct FetchRef {
    SimTime t;
    int arc;
    std::uint32_t seq;
  };
  std::vector<FetchRef> fetch_refs_;  // scratch, reused across commits

  /// Probe commit calendar: epoch -> (due, node) for every probe due in
  /// ((epoch-1)*Q, epoch*Q]. Ordered map so the tick chain always hops
  /// to the first non-empty epoch deterministically.
  std::map<std::int64_t, std::vector<std::pair<SimTime, int>>> probe_buckets_;
  // ... and the registry instruments that mirror them system-wide.
  // Stable instrument addresses, bound once in the constructor.
  obs::Counter* user_write_bytes_c_;
  obs::Counter* user_removed_bytes_c_;
  obs::Counter* migration_bytes_c_;
  obs::Counter* lb_moves_c_;
  obs::Counter* replica_fetches_c_;
  obs::Counter* fetch_timers_c_;
  obs::Counter* pointer_promotions_c_;
  obs::Counter* reassigned_blocks_c_;
  obs::Counter* replica_set_changes_c_;
};

}  // namespace d2::core
