// Authoritative map of every block in the DHT and where its replicas live.
//
// D2-Store keeps each block on the r immediate successors of its key (§3).
// BlockMap tracks, per block, the current responsible replica set and
// which members physically hold the data versus a *block pointer* (§6):
// after a load-balancing ID change the new owner initially holds only a
// pointer and fetches the bytes later (pointer stabilization), which is
// how D2 avoids moving the same block repeatedly during rebalancing.
//
// The map also maintains the per-node accounting the experiments need:
// primary replica count (the load-balancing metric), primary bytes, and
// physical bytes (for the §10 imbalance figures), all updated
// incrementally.
//
// ## Arc slices (DESIGN.md §9)
//
// The map is sharded into `arcs` contiguous keyspace slices routed by
// ArcPlan — the same partition the arc-partitioned Simulator uses — so
// a simulation lane that owns arc `a` may mutate blocks of arc `a`
// without synchronisation: every mutator touches only the owning
// slice's index, accounting vectors, and audit gate. Key order is
// preserved globally because slice order == key order (arcs are
// contiguous and ascending), so iteration, range walks, and therefore
// every seeded experiment output are unchanged for any arc count.
// check_invariants() additionally audits the ownership bijection: a key
// stored in slice `a` satisfies plan.arc_of(key) == a.
//
// Blocks live in a SortedKeyIndex (chunked sorted arrays) per slice
// rather than a std::map, so the load balancer's owned-arc range scans
// walk contiguous cache lines instead of tree nodes.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "common/arc_plan.h"
#include "common/key.h"
#include "common/thread_annotations.h"
#include "common/units.h"
#include "store/block_index.h"

namespace d2::store {

struct BlockMapTestPeer;

/// One member of a block's responsible replica set. The two times lead so
/// the node and flags share the last word: 24 bytes, one per member of
/// every block (core::RepairEngine shares the type).
struct Replica {
  SimTime pointer_since = 0;   // when this member became responsible
  /// Due time of the member's single pending fetch timer (core::System),
  /// kSimTimeNever when none is pending.
  SimTime fetch_due = kSimTimeNever;
  int node = -1;
  bool has_data = false;       // physical copy present (false => pointer)
  bool fetch_in_flight = false;
};
static_assert(sizeof(Replica) == 24, "Replica is stored per member per block");

struct BlockState {
  Bytes size = 0;
  /// Bytes each member physically stores: == size under whole-block
  /// replication, == ceil(size / k) under (n, k) erasure coding.
  Bytes member_bytes = 0;
  /// Responsible replica set, in successor order (first = primary).
  std::vector<Replica> replicas;
  /// Nodes that still hold a stale physical copy (sheds pending pointer
  /// resolution elsewhere). Not responsible for the block.
  std::vector<int> stale_holders;

  bool any_data() const;
  bool node_has_data(int node) const;
  bool is_replica(int node) const;
};

class BlockMap {
 public:
  explicit BlockMap(int node_count, int arcs = 1);

  int node_count() const { return node_count_; }
  int arcs() const { return plan_.arcs(); }
  /// Which slice (and simulation arc) owns key `k`.
  int arc_of(const Key& k) const { return plan_.arc_of(k); }

  /// Inserts a block whose replica set is `nodes` (all holding data
  /// immediately — a fresh write pushes bytes to all replicas).
  /// `member_bytes` is what each member stores (defaults to `size`, i.e.
  /// whole-block replication; erasure coding passes the fragment size).
  void insert(const Key& k, Bytes size, const std::vector<int>& nodes,
              Bytes member_bytes = -1);

  /// Removes a block entirely.
  void erase(const Key& k);

  bool contains(const Key& k) const { return slice_of(k).index.contains(k); }
  const BlockState* find(const Key& k) const { return slice_of(k).index.find(k); }
  BlockState* find_mutable(const Key& k) { return slice_of(k).index.find(k); }

  std::size_t block_count() const;
  Bytes total_bytes() const;

  /// Blocks stored in one slice. Unlike block_count() this reads a single
  /// slice, so the owning arc's lane may call it while other slices are
  /// being mutated.
  std::size_t slice_block_count(int arc) const {
    return slices_[static_cast<std::size_t>(arc)].index.size();
  }

  /// Per-node accounting (summed across slices).
  std::int64_t primary_count(int node) const;
  Bytes primary_bytes(int node) const;
  Bytes physical_bytes(int node) const;

  /// Key that splits `node`'s primary arc (from, to] into halves by block
  /// count: the median block's key. nullopt if the node owns < 2 blocks.
  std::optional<Key> median_primary_key(const Key& from, const Key& to) const;

  /// Visits blocks with keys in the clockwise arc (from, to], in key
  /// order from `from`; handles wrap and slice boundaries.
  /// `fn(const Key&, BlockState&)` may change the visited block (e.g.
  /// reassign_replicas on it) but must not insert or erase blocks. A
  /// template (not std::function) so the per-block call is direct — these
  /// walks are the load balancer's inner loop. from == to visits the
  /// whole ring.
  template <class Fn>
  void for_each_in_arc(const Key& from, const Key& to, Fn&& fn) {
    walk_in_arc(from, to, [&fn](const Key& k, BlockState& b) {
      fn(k, b);
      return true;
    });
  }

  /// --- replica-state mutators (keep the accounting consistent) ---

  /// Replaces the responsible set of block `k` with `nodes`. Members kept
  /// from the old set keep their data/pointer state and fetch timer; new
  /// members join as pointers (pointer_since = now) with no fetch timer,
  /// even if they held the set before. Members removed drop out: their data
  /// copy is deleted unless it is still needed as a fetch source (some
  /// remaining replica lacks data), in which case it becomes a stale
  /// holder. Returns whether the member list changed.
  bool reassign_replicas(const Key& k, const std::vector<int>& nodes,
                         SimTime now);

  /// Same, on `b`, block `k`'s state as held by the caller (e.g. inside
  /// for_each_in_arc), without searching the index. When `nodes` equals
  /// the current member list, node for node, the block keeps every
  /// member as it is and nothing is allocated.
  bool reassign_replicas(const Key& k, BlockState& b,
                         const std::vector<int>& nodes, SimTime now);

  /// Marks the replica at `node` as holding data (pointer resolved after a
  /// fetch). Drops stale holders that are no longer needed.
  void mark_data(const Key& k, int node);

  /// Downgrades the replica at `node` to a pointer (the write could not
  /// reach it — e.g. the node is down). Inverse of mark_data.
  void mark_missing(const Key& k, int node);

  /// Removes `node` from the block's stale holders (its physical copy was
  /// destroyed, e.g. disk loss). No-op if `node` is not a stale holder.
  void drop_stale(const Key& k, int node);

  /// Visits all blocks in key order (for iteration by experiments).
  /// `fn(const Key&, const BlockState&)` must not insert or erase blocks.
  template <class Fn>
  void for_each_block(Fn&& fn) const {
    for (const Slice& s : slices_) {
      const_cast<SortedKeyIndex<BlockState>&>(s.index).for_each(
          [&fn](const Key& k, BlockState& b) {
            fn(k, static_cast<const BlockState&>(b));
          });
    }
  }

  /// Mutable variant for callers that adjust per-replica state in bulk
  /// (e.g. failure injection flipping has_data). `fn(const Key&,
  /// BlockState&)` must not insert or erase blocks, and must keep the
  /// per-node accounting consistent via mark_data/mark_missing rather
  /// than flipping Replica fields directly.
  template <class Fn>
  void for_each_block_mut(Fn&& fn) {
    for (Slice& s : slices_) s.index.for_each(fn);
  }

  /// Early-exit range walk over (from, to]: `fn(const Key&, BlockState&)`
  /// returns false to stop. from == to visits the whole ring.
  template <class Fn>
  void walk_in_arc(const Key& from, const Key& to, Fn&& fn) {
    if (from == to) {
      // Whole ring: every slice, in key (== slice) order.
      for (Slice& s : slices_) {
        bool more = true;
        s.index.walk_in_arc(from, to, [&](const Key& k, BlockState& b) {
          more = fn(k, b);
          return more;
        });
        if (!more) return;
      }
      return;
    }
    if (from < to) {
      walk_slices(plan_.arc_of(from), plan_.arc_of(to), from, to,
                  std::forward<Fn>(fn));
      return;
    }
    // Wrapped arc: clockwise (from, max] then (min-1, to] == [min, to].
    // Each leg is non-wrapping within its slices; skip a leg that is
    // empty by construction (from == max has nothing after it).
    bool more = true;
    if (!(from == Key::max())) {
      walk_slices(plan_.arc_of(from), plan_.arcs() - 1, from, Key::max(),
                  [&](const Key& k, BlockState& b) {
                    more = fn(k, b);
                    return more;
                  });
    }
    if (more) {
      // (max, to] under the slice walker's wrap rules == keys <= to.
      walk_slices(0, plan_.arc_of(to), Key::max(), to, std::forward<Fn>(fn));
    }
  }

  /// Full-structure audit; throws InvariantError naming the violated
  /// invariant. Audits every slice's sorted index, the slice-ownership
  /// bijection (each stored key maps back to its slice under ArcPlan),
  /// every block's replica set (non-empty, in-range, duplicate-free,
  /// stale holders disjoint and only present while a replica lacks data)
  /// and recomputes the per-node primary/physical accounting from
  /// scratch against the incremental per-slice counters. O(blocks x
  /// replicas); the mutators run slice-local audits in paranoid builds
  /// and this full audit is callable from tests in any build.
  void check_invariants() const;

  /// Slice-local audit (the slice's index, blocks and accounting plus
  /// its ownership bijection); safe to run from the arc's own lane.
  void check_slice_invariants(int arc) const;

 private:
  /// Corruption-injection hook for tests (tests/test_invariants.cc).
  friend struct BlockMapTestPeer;

  /// Arc-confined shard: a lane owning arc `a` may touch only slice `a`.
  struct Slice {
    SortedKeyIndex<BlockState> index;
    Bytes total_bytes = 0;
    std::vector<std::int64_t> primary_count;
    std::vector<Bytes> primary_bytes;
    std::vector<Bytes> physical_bytes;
    ParanoidGate audit_gate;  // paces paranoid-build audits
  };

  Slice& slice_of(const Key& k) {
    return slices_[static_cast<std::size_t>(plan_.arc_of(k))];
  }
  const Slice& slice_of(const Key& k) const {
    return slices_[static_cast<std::size_t>(plan_.arc_of(k))];
  }

  /// Runs `fn` over slices [first_arc, last_arc] with the slice-level
  /// walk bounds (from, to]; fn returns false to stop.
  template <class Fn>
  void walk_slices(int first_arc, int last_arc, const Key& from, const Key& to,
                   Fn&& fn) {
    for (int arc = first_arc; arc <= last_arc; ++arc) {
      bool more = true;
      slices_[static_cast<std::size_t>(arc)].index.walk_in_arc(
          from, to, [&](const Key& k, BlockState& b) {
            more = fn(k, b);
            return more;
          });
      if (!more) return;
    }
  }

  static void account_add_data(Slice& s, int node, Bytes size);
  static void account_remove_data(Slice& s, int node, Bytes size);
  static void account_add_primary(Slice& s, int node, Bytes size);
  static void account_remove_primary(Slice& s, int node, Bytes size);
  void prune_stale(Slice& s, BlockState& b);

  int node_count_;
  ArcPlan plan_;
  std::vector<Slice> slices_ D2_SHARDED_BY_ARC(arc);
};

}  // namespace d2::store
