// 30-second write-back / buffer cache (paper §3, D2-FS).
//
// Writes are buffered for 30 seconds before being pushed to the DHT, so
// temporary files that are created and deleted quickly never touch the
// store, and a burst of writes to the same block (or to the metadata
// blocks on the path to the root) coalesces into one put. The same cache
// doubles as a read buffer: a block fetched within the window is not
// fetched again. Users may therefore see data up to 30 s stale, but never
// partial writes.
//
// The cache tracks *pending puts* (dirty blocks, with the previous
// version's key to remove once the new version commits) and *clean
// entries* (recently-read blocks). Expiry uses a lazy min-heap so
// operations stay O(log n).
//
// Layout: one slab slot per key holds both its dirty and its clean
// state, found through the shared open-addressed key->slot table
// (common/slot_table.h). A dirty slot's predecessor key, the committed
// version its flush removes, sits in a side table that a free list
// recycles, so a slot carries a 4-byte index instead of a second 64-byte
// key. Heap entries are 16 bytes {expires, slot, dirty}. A slot is
// recycled only when it is neither dirty nor clean and no heap entry
// names it (a per-slot count), so every popped entry still names its key
// and a key keeps its slot while stale entries for it are queued. Once
// slab, predecessor table, key table and heap have reached their
// high-water marks, nothing here allocates except flush_all's sort
// scratch.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "common/key.h"
#include "common/slot_table.h"
#include "common/units.h"
#include "obs/metrics.h"

namespace d2::fs {

/// One operation the file system asks the store to perform.
struct StoreOp {
  enum class Kind { kPut, kGet, kRemove };
  Kind kind;
  Key key;
  Bytes size = 0;

  bool operator==(const StoreOp& o) const = default;
};

class WritebackCache {
 public:
  explicit WritebackCache(SimTime ttl = seconds(30));

  /// Aggregates write-back activity into shared registry counters
  /// `fs.writeback_cache.{staged_puts,coalesced_puts,cancelled_puts,
  /// flushed_puts}` (per-volume caches bound to one registry sum
  /// together). Pass nullptr to unbind.
  void bind_metrics(obs::Registry* registry);

  /// Stages a put of `key`. `remove_on_flush` is the previous committed
  /// version's key, removed when (and only when) the new version commits.
  void stage_put(const Key& key, Bytes size, SimTime now,
                 std::optional<Key> remove_on_flush);

  /// True iff a put of `key` is staged (dirty, not yet flushed).
  bool has_pending(const Key& key) const {
    const std::uint32_t s = find(key);
    return s != SlotTable::kNull && slots_[s].dirty;
  }

  /// Refreshes a staged put (another write to the same uncommitted
  /// version); updates its size and resets its age.
  void touch_put(const Key& key, Bytes size, SimTime now);

  /// Cancels a staged put (the block was deleted before ever committing).
  /// Returns the remove_on_flush key, which the *caller* must still emit
  /// as a remove (the previous version is committed in the store).
  std::optional<Key> cancel_put(const Key& key);

  /// Buffer-cache read check: true if `key` was read or written within
  /// the window (no store get needed).
  bool is_fresh(const Key& key, SimTime now) const;

  /// Records that `key` was just fetched (becomes fresh).
  void mark_clean(const Key& key, SimTime now);

  /// Flushes staged puts older than the TTL; appends the resulting
  /// put/remove ops. Call with the current time before handling each FS
  /// operation (the experiment drivers also call flush_all at trace end).
  void collect_expired(SimTime now, std::vector<StoreOp>& out);

  /// Flushes everything regardless of age, in key order.
  void flush_all(SimTime now, std::vector<StoreOp>& out);

  std::size_t pending_puts() const { return dirty_count_; }

  SimTime ttl() const { return ttl_; }

  /// Bytes held by the slab, the predecessor table (both with their free
  /// lists), the key table and the expiry heap: capacity, not occupancy.
  std::size_t allocated_bytes() const;

 private:
  static constexpr std::uint32_t kNoPred = 0xffffffffu;

  /// Everything the cache knows about one key.
  struct Slot {
    Key key;
    Bytes size = 0;                // dirty: size of the staged put
    SimTime since = 0;             // dirty: last stage/touch time
    SimTime clean_at = 0;          // clean: last read, or a flush's commit
    std::uint32_t heap_refs = 0;   // heap entries naming this slot
    std::uint32_t pred = kNoPred;  // dirty: preds_ index of the key to remove
    bool dirty = false;
    bool clean = false;
  };
  static_assert(sizeof(Slot) <= 104);

  struct HeapEntry {
    SimTime expires;
    std::uint32_t slot;
    bool dirty;  // which of the slot's states this entry tracks
    bool operator>(const HeapEntry& o) const { return expires > o.expires; }
  };
  static_assert(sizeof(HeapEntry) == 16);

  /// The expiry min-heap, with its storage's capacity readable.
  struct ExpiryHeap
      : std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> {
    std::size_t capacity() const { return c.capacity(); }
  };

  auto slot_key() const {
    return [this](std::uint32_t s) -> const Key& { return slots_[s].key; };
  }
  /// Slot of `key`, or SlotTable::kNull.
  std::uint32_t find(const Key& key) const {
    return index_.find(key, slot_key());
  }
  /// Slot of `key`, taking a free one if the key has none.
  std::uint32_t find_or_add(const Key& key);
  /// Queues a heap entry for state `dirty` of slot `s`, due at `expires`.
  void queue_expiry(SimTime expires, std::uint32_t s, bool dirty);
  /// Returns `s` to the free list once nothing refers to it any more.
  void release_if_unused(std::uint32_t s);
  /// Stores predecessor `key` in a free entry of preds_; returns its index.
  std::uint32_t add_pred(const Key& key);
  /// Detaches `slot`'s predecessor, frees its entry and returns the key.
  Key release_pred(Slot& slot);
  /// Emits the put (and remove of the predecessor) of dirty slot `s` and
  /// marks it clean as of `committed_at`.
  void flush_slot(std::uint32_t s, SimTime committed_at,
                  std::vector<StoreOp>& out);

  SimTime ttl_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  SlotTable index_;  // key -> slot, for every slot not on the free list
  std::vector<Key> preds_;  // predecessor keys of dirty slots
  std::vector<std::uint32_t> free_preds_;
  std::size_t dirty_count_ = 0;
  ExpiryHeap heap_;

  obs::Counter* staged_counter_ = nullptr;
  obs::Counter* coalesced_counter_ = nullptr;
  obs::Counter* cancelled_counter_ = nullptr;
  obs::Counter* flushed_counter_ = nullptr;
};

}  // namespace d2::fs
