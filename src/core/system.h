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
// ## Event classes (DESIGN.md §9)
//
// Key-local work — TTL expiry, delayed removes, fetch timers and fetch
// completions — runs as key-local simulator events, which never end an
// op batch early (core/op_batch.h). An admitted fetch enqueues its
// transfer on the node's migration link and schedules its completion
// for the transfer's end. Probes are global: per-node jittered due times
// live in a calendar, and one global tick per kProbeCommitInterval
// evaluates every probe due in the last epoch in (due, node) order
// against live state. Failure transitions are global too: they mutate
// node up/down state every block reads.
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

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Probe commit quantum (DESIGN.md §12). Each node keeps its own
  /// jittered probe cadence, but evaluations are committed in epochs: one
  /// global tick per quantum processes every probe that came due during
  /// it, in (due time, node) order, against system state at the tick.
  /// The quantum is part of the seeded outputs, which is why it stays.
  /// SystemConfig::probe_interval must be at least twice the quantum so a
  /// committed probe's next due time always lands in a later epoch.
  static constexpr SimTime kProbeCommitInterval = seconds(10);

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
  void put(const Key& k, Bytes size);

  /// Schedules removal after the configured delay (§3). Unknown keys are
  /// ignored (the block may have been removed already).
  void remove(const Key& k);

  /// Extends a block's TTL (no-op when block_ttl is 0 or the key is
  /// unknown). put() refreshes implicitly.
  void refresh(const Key& k);

  bool has(const Key& k) const { return map_.contains(k); }

  /// True iff a get for `k` can be served right now (serving_node).
  bool block_available(const Key& k) const {
    return serving_node(k).has_value();
  }

  /// The node that would serve a get for `k` right now, or nullopt if the
  /// block is unknown or unavailable.
  std::optional<int> serving_node(const Key& k) const;

  /// The read rule, for a block's state `b`. At least k of its copies
  /// must sit on up nodes (stale holders count). Then the first up member
  /// with data serves; failing that, if some responsible member is up, it
  /// redirects to the first up stale holder (block pointer indirection).
  std::optional<int> serving_node(const store::BlockState& b) const;

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
  /// block_expired). Pass nullptr to detach.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Snapshots the block map's allocated bytes into the registry
  /// (`store.block_map_bytes`); call before dumping, next to
  /// Simulator::export_metrics.
  void export_metrics();

  // Legacy accessors — per-instance totals. The registry carries the same
  // quantities under `system.*`, but a registry shared across trials
  // aggregates every bound System; these members answer "what did *this*
  // system do", which is what per-trial experiment results need to stay
  // identical between serial and parallel runs.
  Bytes user_write_bytes() const { return user_write_bytes_; }
  Bytes user_removed_bytes() const { return user_removed_bytes_; }
  Bytes migration_bytes() const { return migration_bytes_; }
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
  /// after every ID change). Every extended-set entry names a stored
  /// block and every TTL deadline is set. Every recorded fetch timer
  /// (Replica::fetch_timer) must belong to a member lacking data with no
  /// fetch in flight and be a pending key-local event due at the member's
  /// fetch_due.
  /// Wired into execute_move / on_node_down /
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

  /// Up nodes currently holding a copy of `b`: members with data and
  /// stale holders.
  int up_data_holders(const store::BlockState& b) const;
  /// Fills `out` (cleared first) with the successor-order replica set for
  /// `k`: successor_set of its owner plus append_scattered. Out-param so
  /// hot callers can reuse a scratch buffer.
  void target_replica_set(const Key& k, std::vector<int>& out) const;
  /// Fills `out` (cleared first) with the successor part of the replica
  /// set of every key `owner` owns: Ring::successors with node_up.
  void successor_set(int owner, std::vector<int>& out) const;
  /// Appends the scattered members of `k` (hybrid placement) to `out`,
  /// which holds its successor part.
  void append_scattered(const Key& k, std::vector<int>& out) const;
  /// Ring position of the i-th scattered replica of key `k`.
  static Key scatter_position(const Key& k, int i);
  /// Computes a newly stored block's scatter positions (once) and files
  /// them in scatter_positions_ and scatter_index_.
  void register_scatter(const Key& k);
  /// Drops a removed block's scatter positions from both.
  void forget_scatter(const Key& k);
  /// Files node's next probe, due jitter past `from`, in the commit
  /// calendar.
  void schedule_probe_due(int node, SimTime from);
  /// Schedules the global tick for the first non-empty calendar epoch.
  void schedule_probe_tick();
  /// Processes every probe due in `epoch`, in (due, node) order, then
  /// chains the next tick.
  void probe_commit_tick(std::int64_t epoch);
  static std::int64_t probe_epoch(SimTime due) {
    return (due + kProbeCommitInterval - 1) / kProbeCommitInterval;
  }
  void execute_move(const dht::MoveDecision& decision);
  /// Recomputes the replica sets of the blocks whose successor walk can
  /// reach `around_node` (their owner is `around_node` or one of its
  /// predecessors with fewer than r' = replicas - scatter_replicas up
  /// nodes from it to `around_node`, at most r' + Ring::kMaxSkipped
  /// owners; plus, under hybrid placement, blocks with a scattered
  /// position among its r + Ring::kMaxSkipped predecessors) and
  /// schedules fetches for members lacking data. `fetch_delay` applies
  /// to newly created pointer members.
  void readjust_arc(int around_node, SimTime fetch_delay);
  /// Gives block `k`, whose handle `h` and state `b` the caller holds,
  /// the replica set `set`; returns whether its member list changed.
  /// Fetch-timer ownership: each member lacking data has at most one
  /// pending timer, due at Replica::fetch_due. A readjustment arms one
  /// only when it wants the fetch earlier than the pending timer would,
  /// records its id in Replica::fetch_timer, and discards the timer it
  /// supersedes; a member leaving the set has its recorded timer
  /// discarded.
  bool reassign_block(const Key& k, store::BlockHandle h, store::BlockState& b,
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
  /// Arms `member`'s fetch timer for block `h` at `due`, replacing its
  /// pending one as the member's own (the old one then fires as a no-op
  /// unless it is discarded). Returns the new timer's id; only the caller
  /// decides whether to record it.
  sim::EventId schedule_fetch(store::BlockHandle h, store::Replica& member,
                              SimTime due);
  /// Best-effort discard of a recorded fetch timer (kNoEvent is a
  /// no-op); counts it when the timer was removed.
  void discard_fetch_timer(sim::EventId id);
  /// Discards every member's recorded fetch timer of block `k`, whose
  /// state `b` is about to be erased.
  void discard_fetch_timers(const Key& k, const store::BlockState& b);
  /// Fetch-timer key-local event. Acts only if block `h` still exists and it is
  /// the member's own timer — the clock equals the member's fetch_due —
  /// so a replaced timer, one armed for a previous membership, or one
  /// whose block was erased (and perhaps put again under the same key)
  /// that was not discarded does nothing. An admitted fetch enqueues its
  /// transfer on the node's migration link and schedules finish_fetch at
  /// the transfer's end.
  void try_fetch(store::BlockHandle h, int node);
  /// Fetch-completion key-local event: promotes the member to a data
  /// holder if block `h` still exists and the fetch is still wanted.
  void finish_fetch(store::BlockHandle h, int node);
  void on_node_down(int node);
  void on_node_up(int node);

  /// Runs check_invariants() when auditing is on (D2_PARANOID build or
  /// config.paranoid_audits). Topology changes audit unconditionally;
  /// `sampled` callers (put/remove — far more frequent) are paced by
  /// audit_gate_ to keep the amortized cost linear.
  void maybe_audit(bool sampled);

  // Per-instance accounting plus the shared-registry mirror.
  void add_user_write_bytes(Bytes n) {
    user_write_bytes_ += n;
    user_write_bytes_c_->add(n);
  }
  void add_user_removed_bytes(Bytes n) {
    user_removed_bytes_ += n;
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
  /// Block TTL deadlines. Keyed lookup/erase only outside audits, so the
  /// hash order cannot leak into event order.
  // d2-lint: allow(unordered-container)
  std::unordered_map<Key, SimTime, KeyHash> expiry_;
  /// scatter position -> block key, for hybrid placement readjustment.
  std::multimap<Key, Key> scatter_index_;
  /// Block key -> its scatter positions, from register_scatter until
  /// forget_scatter. Each position is a SHA-1 over the key's hex form;
  /// caching them keeps readjustment walks from rehashing every key.
  // d2-lint: allow(unordered-container) — keyed lookup only, never walked
  std::unordered_map<Key, std::vector<Key>, KeyHash> scatter_positions_;
  /// Blocks whose replica set is currently extended past the canonical
  /// size (members down / regeneration), in key order. Re-canonicalized
  /// on recoveries, regardless of how far load balancing has shifted ring
  /// ranks.
  std::set<Key> extended_;
  dht::LoadBalancer balancer_;
  std::vector<NodeState> nodes_;
  /// Scratch for target_replica_set results on the put/reassign hot path
  /// (avoids a heap allocation per block write / replica adjustment).
  std::vector<int> replica_set_scratch_;
  ParanoidGate audit_gate_;  // paces sampled full audits
  const sim::FailureTrace* failure_trace_ = nullptr;

  // Per-instance traffic totals (the accessors above) ...
  Bytes user_write_bytes_ = 0;
  Bytes user_removed_bytes_ = 0;
  Bytes migration_bytes_ = 0;
  std::int64_t lb_moves_ = 0;

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
  obs::Counter* fetch_timers_discarded_c_;
  obs::Counter* pointer_promotions_c_;
  obs::Counter* reassigned_blocks_c_;
  obs::Counter* replica_set_changes_c_;
};

}  // namespace d2::core
