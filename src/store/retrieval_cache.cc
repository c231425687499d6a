#include "store/retrieval_cache.h"

#include "common/assert.h"

namespace d2::store {

RetrievalCache::RetrievalCache(Bytes capacity) : capacity_(capacity) {
  D2_REQUIRE(capacity >= 0);
}

void RetrievalCache::bind_metrics(obs::Registry* registry) {
  if (registry == nullptr) {
    hits_counter_ = nullptr;
    misses_counter_ = nullptr;
    evictions_counter_ = nullptr;
    return;
  }
  hits_counter_ = &registry->counter("store.retrieval_cache.hits");
  misses_counter_ = &registry->counter("store.retrieval_cache.misses");
  evictions_counter_ = &registry->counter("store.retrieval_cache.evictions");
}

void RetrievalCache::lru_unlink(std::uint32_t s) {
  Node& n = slab_[s];
  if (n.prev != kNull) {
    slab_[n.prev].next = n.next;
  } else {
    lru_head_ = n.next;
  }
  if (n.next != kNull) {
    slab_[n.next].prev = n.prev;
  } else {
    lru_tail_ = n.prev;
  }
}

void RetrievalCache::lru_push_front(std::uint32_t s) {
  Node& n = slab_[s];
  n.prev = kNull;
  n.next = lru_head_;
  if (lru_head_ != kNull) slab_[lru_head_].prev = s;
  lru_head_ = s;
  if (lru_tail_ == kNull) lru_tail_ = s;
}

std::uint32_t RetrievalCache::alloc_slot() {
  if (free_head_ != kNull) {
    const std::uint32_t s = free_head_;
    free_head_ = slab_[s].next;
    return s;
  }
  const std::uint32_t s = static_cast<std::uint32_t>(slab_.size());
  D2_REQUIRE_MSG(s < kNull, "retrieval cache slab exhausted");
  slab_.emplace_back();
  return s;
}

void RetrievalCache::evict_lru() {
  const std::uint32_t victim = lru_tail_;
  D2_ASSERT(victim != kNull);
  used_ -= slab_[victim].size;
  table_.erase_at(table_.probe(slab_[victim].key, slot_key()), slot_key());
  lru_unlink(victim);
  slab_[victim].next = free_head_;
  free_head_ = victim;
  --size_;
  if (evictions_counter_ != nullptr) evictions_counter_->add(1);
}

bool RetrievalCache::lookup(const Key& k) {
  const std::uint32_t s = table_.find(k, slot_key());
  if (s == kNull) {
    ++misses_;
    if (misses_counter_ != nullptr) misses_counter_->add(1);
    return false;
  }
  if (s != lru_head_) {  // move to front
    lru_unlink(s);
    lru_push_front(s);
  }
  ++hits_;
  if (hits_counter_ != nullptr) hits_counter_->add(1);
  D2_PARANOID_AUDIT(if (audit_gate_.due(slab_.size())) check_invariants());
  return true;
}

void RetrievalCache::insert(const Key& k, Bytes size) {
  D2_REQUIRE(size >= 0);
  if (size > capacity_) return;
  const std::size_t pos = table_.probe(k, slot_key());
  if (table_[pos] != kNull) {
    // Refresh in place (a re-retrieved block, possibly a new size).
    const std::uint32_t s = table_[pos];
    used_ += size - slab_[s].size;
    slab_[s].size = size;
    if (s != lru_head_) {
      lru_unlink(s);
      lru_push_front(s);
    }
  } else {
    // In steady state (slab at high-water) the table never grows:
    // evictions backward-shift their probe run, so occupancy tracks live
    // entries.
    const std::uint32_t s = alloc_slot();
    slab_[s].key = k;
    slab_[s].size = size;
    table_.insert_at(pos, s, slot_key());
    lru_push_front(s);
    ++size_;
    used_ += size;
  }
  while (used_ > capacity_ && size_ > 0) evict_lru();
  D2_PARANOID_AUDIT(if (audit_gate_.due(slab_.size())) check_invariants());
}

void RetrievalCache::erase(const Key& k) {
  const std::size_t pos = table_.probe(k, slot_key());
  const std::uint32_t s = table_[pos];
  if (s == kNull) return;
  used_ -= slab_[s].size;
  table_.erase_at(pos, slot_key());
  lru_unlink(s);
  slab_[s].next = free_head_;
  free_head_ = s;
  --size_;
  D2_PARANOID_AUDIT(if (audit_gate_.due(slab_.size())) check_invariants());
}

void RetrievalCache::check_invariants() const {
  const std::size_t slots = slab_.size();

  // LRU list: a closed chain from head to tail whose prev/next links
  // mirror each other and which visits exactly size_ slots.
  std::vector<char> live(slots, 0);
  std::size_t lru_count = 0;
  Bytes used = 0;
  std::uint32_t prev = kNull;
  for (std::uint32_t s = lru_head_; s != kNull; s = slab_[s].next) {
    D2_ASSERT_MSG(s < slots, "retrieval cache: LRU link out of range");
    D2_ASSERT_MSG(live[s] == 0, "retrieval cache: LRU list cycle");
    D2_ASSERT_MSG(slab_[s].prev == prev,
                  "retrieval cache: LRU prev/next links disagree");
    live[s] = 1;
    ++lru_count;
    used += slab_[s].size;
    prev = s;
  }
  D2_ASSERT_MSG(prev == lru_tail_, "retrieval cache: LRU ring not closed");
  D2_ASSERT_MSG(lru_count == size_,
                "retrieval cache: LRU length disagrees with size_");
  D2_ASSERT_MSG(used == used_,
                "retrieval cache: byte accounting out of sync");
  D2_ASSERT_MSG(used_ <= capacity_, "retrieval cache: over capacity");

  // Free list: covers every slot the LRU does not.
  std::size_t free_count = 0;
  for (std::uint32_t s = free_head_; s != kNull; s = slab_[s].next) {
    D2_ASSERT_MSG(s < slots, "retrieval cache: free-list link out of range");
    D2_ASSERT_MSG(live[s] == 0,
                  "retrieval cache: slot both cached and free (or free-list "
                  "cycle)");
    live[s] = 2;
    ++free_count;
  }
  D2_ASSERT_MSG(lru_count + free_count == slots,
                "retrieval cache: orphaned slab slot");

  // Table: exactly the live slots appear, each reachable by probing its
  // own key (no break in its probe run).
  std::size_t table_count = 0;
  table_.for_each([&](std::uint32_t s) {
    ++table_count;
    D2_ASSERT_MSG(s < slots, "retrieval cache: table slot out of range");
    D2_ASSERT_MSG(live[s] == 1,
                  "retrieval cache: table references a non-cached slot");
  });
  D2_ASSERT_MSG(table_count == size_,
                "retrieval cache: table population disagrees with size_");
  table_.check_invariants(slot_key());
}

}  // namespace d2::store
