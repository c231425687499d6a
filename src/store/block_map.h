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
// The map keeps its block states in a slab of slots that never move
// (sim::PagedArray pages, a free list, a generation per slot) and a
// SortedKeyIndex (chunked sorted arrays, not a std::map) from key to
// slot, so the load balancer's owned-arc range scans walk contiguous
// cache lines instead of tree nodes. Iteration and range walks run in key
// order. A stored block has a stable BlockHandle: at() resolves it in
// O(1) with no key search, and returns null once the block is erased.
// Pointers from find()/at() survive other blocks' inserts and erases.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/key.h"
#include "common/units.h"
#include "sim/paged_array.h"
#include "store/block_index.h"

namespace d2::store {

struct BlockMapTestPeer;

/// One member of a block's responsible replica set. The two 8-byte fields
/// lead so the node and flags share the last word: 24 bytes, one per
/// member of every block (core::RepairEngine shares the type).
struct Replica {
  /// sim::EventId of the member's pending fetch timer when core::System
  /// armed it from a readjustment, so the timer can be discarded once the
  /// membership ends or a new timer supersedes it; 0 (no id) otherwise.
  std::uint64_t fetch_timer = 0;
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

  /// Whether `node` physically holds the block: a member with data, or
  /// a stale holder.
  bool node_has_data(int node) const {
    for (const Replica& r : replicas) {
      if (r.node == node) return r.has_data;
    }
    return std::find(stale_holders.begin(), stale_holders.end(), node) !=
           stale_holders.end();
  }
  bool is_replica(int node) const {
    for (const Replica& r : replicas) {
      if (r.node == node) return true;
    }
    return false;
  }
};

/// Stable 8-byte name of a stored block: its slot in the map's slab and
/// the slot's generation when the block was stored. Erasing the block
/// bumps the generation, so an old handle then resolves to nothing even
/// after the slot and the key are reused. Event closures and fetch
/// reservations carry it instead of a 64-byte Key. The default handle
/// names no block.
class BlockHandle {
 public:
  static constexpr int kSlotBits = 26;        // 64M slots
  static constexpr int kGenerationBits = 28;  // wraps back to 1, never 0
  static constexpr std::uint32_t kMaxSlots = std::uint32_t{1} << kSlotBits;
  static constexpr std::uint32_t kGenerationMask =
      (std::uint32_t{1} << kGenerationBits) - 1;

  BlockHandle() = default;
  BlockHandle(std::uint32_t slot, std::uint32_t generation)
      : bits_(static_cast<std::uint64_t>(slot) << kGenerationBits |
              generation) {}

  std::uint32_t slot() const {
    return static_cast<std::uint32_t>(bits_ >> kGenerationBits) &
           (kMaxSlots - 1);
  }
  std::uint32_t generation() const {
    return static_cast<std::uint32_t>(bits_) & kGenerationMask;
  }
  bool operator==(const BlockHandle&) const = default;

 private:
  std::uint64_t bits_ = 0;  // slot | generation
};
static_assert(sizeof(BlockHandle) == 8 &&
                  std::is_trivially_copyable_v<BlockHandle>,
              "handles ride in 24-byte event captures");

class BlockMap {
 public:
  explicit BlockMap(int node_count);

  int node_count() const { return node_count_; }

  /// Inserts a block whose replica set is `nodes` (all holding data
  /// immediately — a fresh write pushes bytes to all replicas) and
  /// returns its handle. `member_bytes` is what each member stores
  /// (defaults to `size`, i.e. whole-block replication; erasure coding
  /// passes the fragment size).
  BlockHandle insert(const Key& k, Bytes size, const std::vector<int>& nodes,
                     Bytes member_bytes = -1);

  /// Removes a block entirely. Its handle stops resolving.
  void erase(const Key& k);

  bool contains(const Key& k) const { return index_.contains(k); }
  const BlockState* find(const Key& k) const {
    return const_cast<BlockMap*>(this)->find_mutable(k);
  }
  BlockState* find_mutable(const Key& k) {
    const std::uint32_t* slot = index_.find(k);
    return slot == nullptr ? nullptr : &slab_[*slot].state;
  }

  /// Handle of block `k`, or the default (null) handle when absent.
  BlockHandle handle_of(const Key& k) const;

  /// The block `h` names, in O(1) without a key search; null once that
  /// block was erased (even if its key was stored again since).
  BlockState* at(BlockHandle h) {
    if (h.slot() >= slab_.size()) return nullptr;
    BlockSlot& slot = slab_[h.slot()];
    return slot.generation == h.generation() ? &slot.state : nullptr;
  }
  const BlockState* at(BlockHandle h) const {
    return const_cast<BlockMap*>(this)->at(h);
  }

  std::size_t block_count() const { return index_.size(); }
  Bytes total_bytes() const { return total_bytes_; }

  /// Bytes the map's structures allocated: the index's chunk arrays and
  /// directory plus the slab pages (store.block_map_bytes). Replica and
  /// stale-holder vectors are not included.
  std::size_t allocated_bytes() const {
    return index_.allocated_bytes() + slab_.allocated_bytes();
  }

  /// Per-node accounting.
  std::int64_t primary_count(int node) const;
  Bytes primary_bytes(int node) const;
  Bytes physical_bytes(int node) const;

  /// Key that splits `node`'s primary arc (from, to] into halves by block
  /// count: the median block's key. nullopt if the node owns < 2 blocks.
  std::optional<Key> median_primary_key(const Key& from, const Key& to) const;

  /// Visits blocks with keys in the clockwise arc (from, to], in key
  /// order from `from`; handles wrap.
  /// `fn(const Key&, BlockState&)`, or `fn(const Key&, BlockHandle,
  /// BlockState&)` for callers that keep the block's handle, may change
  /// the visited block (e.g. reassign_replicas on it) but must not insert
  /// or erase blocks. A template (not std::function) so the per-block
  /// call is direct — these walks are the load balancer's inner loop.
  /// from == to visits the whole ring.
  template <class Fn>
  void for_each_in_arc(const Key& from, const Key& to, Fn&& fn) {
    index_.for_each_in_arc(from, to, [&](const Key& k, std::uint32_t slot) {
      BlockSlot& bs = slab_[slot];
      if constexpr (std::is_invocable_v<Fn&, const Key&, BlockHandle,
                                        BlockState&>) {
        fn(k, BlockHandle(slot, bs.generation), bs.state);
      } else {
        fn(k, bs.state);
      }
    });
  }

  /// --- replica-state mutators (keep the accounting consistent) ---

  /// Replaces the responsible set of block `k` with `nodes`, on `b`, the
  /// block's state as held by the caller (from find_mutable, at or
  /// for_each_in_arc). Members kept from the old set keep their
  /// data/pointer state and fetch timer; new members join as pointers
  /// with no fetch timer, even if they held the set before. Members
  /// removed drop out: their data copy is deleted unless it is still
  /// needed as a fetch source (some remaining replica lacks data), in
  /// which case it becomes a stale holder. Returns whether the member
  /// list changed. The new member list is built in a scratch array and
  /// copied into the block's existing one, so nothing is allocated unless
  /// the set outgrows that array or a departing member's copy turns
  /// stale.
  bool reassign_replicas(const Key& k, BlockState& b,
                         const std::vector<int>& nodes);

  /// Marks the replica at `node` as holding data (pointer resolved after a
  /// fetch), on `b`, the state of the block `h` names, as held by the
  /// caller. Drops stale holders that are no longer needed.
  void mark_data(BlockHandle h, BlockState& b, int node);

  /// Downgrades the replica at `node` to a pointer (the write could not
  /// reach it — e.g. the node is down). Inverse of mark_data.
  void mark_missing(const Key& k, int node);

  /// Removes `node` from the block's stale holders (its physical copy was
  /// destroyed, e.g. disk loss). No-op if `node` is not a stale holder.
  void drop_stale(const Key& k, int node);

  /// Visits all blocks in key order (audits and tests).
  /// `fn(const Key&, const BlockState&)` must not insert or erase blocks.
  template <class Fn>
  void for_each_block(Fn&& fn) const {
    const_cast<SortedKeyIndex<std::uint32_t>&>(index_).for_each(
        [&](const Key& k, std::uint32_t slot) {
          fn(k, static_cast<const BlockState&>(slab_[slot].state));
        });
  }

  /// Early-exit range walk over (from, to]: `fn(const Key&, BlockState&)`
  /// returns false to stop. from == to visits the whole ring.
  template <class Fn>
  void walk_in_arc(const Key& from, const Key& to, Fn&& fn) {
    index_.walk_in_arc(from, to, [&](const Key& k, std::uint32_t slot) {
      return fn(k, slab_[slot].state);
    });
  }

  /// Full-structure audit; throws InvariantError naming the violated
  /// invariant. Audits the sorted index, the slab, every block's replica
  /// set (non-empty, in-range, duplicate-free, stale holders disjoint and
  /// only present while a replica lacks data) and recomputes the per-node
  /// primary/physical accounting from scratch against the incremental
  /// counters. O(blocks x replicas); the mutators run it paced in
  /// paranoid builds, and it is callable from tests in any build.
  void check_invariants() const;

 private:
  /// Corruption-injection hook for tests (tests/test_invariants.cc).
  friend struct BlockMapTestPeer;

  /// Marks a slab slot that holds a block (BlockSlot::next_free).
  static constexpr std::uint32_t kLiveSlot = 0xffffffffu;
  /// Free-list end.
  static constexpr std::uint32_t kNoSlot = 0xfffffffeu;

  /// A slab slot: one block's state, or a free-list entry. The state's
  /// address never changes while the slot holds the block.
  struct BlockSlot {
    BlockState state;  // empty while the slot is free
    /// Bumped by each erase, in [1, 2^28): a handle resolves only while
    /// its generation is the slot's.
    std::uint32_t generation = 1;
    std::uint32_t next_free = kLiveSlot;  // free-list link, or kLiveSlot
  };

  /// Takes a slot off the free list, or appends one to the slab.
  std::uint32_t acquire_slot();
  /// Empties `slot`, bumps its generation and returns it to the free list.
  void release_slot(std::uint32_t slot);
  /// Slab audit (free list, live slots vs the index, generations).
  void check_slab() const;

  void account_add_data(int node, Bytes size);
  void account_remove_data(int node, Bytes size);
  void account_add_primary(int node, Bytes size);
  void account_remove_primary(int node, Bytes size);
  void prune_stale(BlockState& b);

  int node_count_;
  SortedKeyIndex<std::uint32_t> index_;  // key -> slot in `slab_`
  sim::PagedArray<BlockSlot> slab_;
  std::uint32_t free_head_ = kNoSlot;
  Bytes total_bytes_ = 0;
  std::vector<std::int64_t> primary_count_;
  std::vector<Bytes> primary_bytes_;
  std::vector<Bytes> physical_bytes_;
  std::vector<Replica> next_replicas_;  // reassign_replicas' scratch
  ParanoidGate audit_gate_;  // paces paranoid-build audits
};

}  // namespace d2::store
