// Per-node retrieval (read) cache.
//
// D2 balances *storage* load with Mercury; *request* load — some files
// being read far more than others — is handled the way traditional DHTs
// do it (paper §6, citing PAST): nodes keep an LRU cache of recently
// retrieved blocks, so repeated reads of a hot block are absorbed near
// the readers instead of hammering the block's replica group.
//
// This is a byte-capacity LRU keyed by block key. Entries are copies of
// immutable blocks, so invalidation is only needed for removal (version
// keys change on every write).
//
// Layout: entries live in a contiguous slab, linked into an intrusive
// LRU list by 32-bit slot indices, and found through the shared
// open-addressed key->slot table (common/slot_table.h). A hit is one
// probe run over a contiguous index array plus four index writes to
// splice the LRU — no list-node churn, and in steady state (slab at its
// high-water mark, table sized for it) lookup/insert/evict touch the
// heap zero times (tests/test_alloc_guard.cc enforces this).
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/key.h"
#include "common/slot_table.h"
#include "common/units.h"
#include "obs/metrics.h"

namespace d2::store {

struct RetrievalCacheTestPeer;

class RetrievalCache {
 public:
  explicit RetrievalCache(Bytes capacity);

  /// True (and refreshes LRU position) if `k` is cached.
  bool lookup(const Key& k);

  /// Inserts a block copy, evicting LRU entries to fit. Blocks larger
  /// than the capacity are not cached.
  void insert(const Key& k, Bytes size);

  /// Drops a block (e.g., it was removed from the system).
  void erase(const Key& k);

  Bytes used() const { return used_; }
  Bytes capacity() const { return capacity_; }
  std::size_t entries() const { return size_; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  /// Aggregates activity into shared registry counters
  /// `store.retrieval_cache.{hits,misses,evictions}` (per-node caches
  /// bound to one registry sum together). Pass nullptr to unbind.
  void bind_metrics(obs::Registry* registry);

  /// Full-structure audit; throws InvariantError naming the violated
  /// invariant. Walks the LRU list (closed chain head<->tail, prev/next
  /// mirror each other, exactly size_ nodes), the free list (disjoint
  /// from the LRU, covers the rest of the slab), the key->slot table
  /// (exactly the live slots, each reachable by probing its key) and the
  /// byte accounting. O(n); wired into lookup/insert/erase in
  /// paranoid builds and callable from tests in any build.
  void check_invariants() const;

 private:
  /// Corruption-injection hook for tests (tests/test_invariants.cc).
  friend struct RetrievalCacheTestPeer;
  static constexpr std::uint32_t kNull = SlotTable::kNull;

  /// Slab entry: block metadata plus intrusive LRU links. Free slots are
  /// chained through `next`.
  struct Node {
    Key key;
    Bytes size = 0;
    std::uint32_t prev = kNull;  // toward MRU
    std::uint32_t next = kNull;  // toward LRU / next free slot
  };

  /// key_of callable for table_.
  auto slot_key() const {
    return [this](std::uint32_t s) -> const Key& { return slab_[s].key; };
  }

  void lru_unlink(std::uint32_t s);
  void lru_push_front(std::uint32_t s);
  void evict_lru();
  std::uint32_t alloc_slot();

  Bytes capacity_;
  Bytes used_ = 0;
  std::size_t size_ = 0;             // live entries
  std::vector<Node> slab_;           // grows to high-water, then stable
  std::uint32_t free_head_ = kNull;  // free-slot chain through Node::next
  std::uint32_t lru_head_ = kNull;   // most recently used
  std::uint32_t lru_tail_ = kNull;   // least recently used
  SlotTable table_;                  // key -> slab slot
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  ParanoidGate audit_gate_;  // paces paranoid-build audits
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;
};

}  // namespace d2::store
