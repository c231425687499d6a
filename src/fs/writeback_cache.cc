#include "fs/writeback_cache.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"

namespace d2::fs {

WritebackCache::WritebackCache(SimTime ttl) : ttl_(ttl) { D2_REQUIRE(ttl > 0); }

void WritebackCache::bind_metrics(obs::Registry* registry) {
  if (registry == nullptr) {
    staged_counter_ = nullptr;
    coalesced_counter_ = nullptr;
    cancelled_counter_ = nullptr;
    flushed_counter_ = nullptr;
    return;
  }
  staged_counter_ = &registry->counter("fs.writeback_cache.staged_puts");
  coalesced_counter_ = &registry->counter("fs.writeback_cache.coalesced_puts");
  cancelled_counter_ = &registry->counter("fs.writeback_cache.cancelled_puts");
  flushed_counter_ = &registry->counter("fs.writeback_cache.flushed_puts");
}

std::uint32_t WritebackCache::find_or_add(const Key& key) {
  const std::size_t pos = index_.probe(key, slot_key());
  if (index_[pos] != SlotTable::kNull) return index_[pos];
  std::uint32_t s;
  if (free_slots_.empty()) {
    D2_REQUIRE_MSG(slots_.size() < SlotTable::kNull,
                   "write-back cache slab exhausted");
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    s = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[s].key = key;
  index_.insert_at(pos, s, slot_key());
  return s;
}

std::uint32_t WritebackCache::add_pred(const Key& key) {
  std::uint32_t p;
  if (free_preds_.empty()) {
    D2_REQUIRE_MSG(preds_.size() < kNoPred,
                   "write-back cache predecessor table exhausted");
    p = static_cast<std::uint32_t>(preds_.size());
    preds_.push_back(key);
  } else {
    p = free_preds_.back();
    free_preds_.pop_back();
    preds_[p] = key;
  }
  return p;
}

Key WritebackCache::release_pred(Slot& slot) {
  const std::uint32_t p = std::exchange(slot.pred, kNoPred);
  free_preds_.push_back(p);
  return preds_[p];
}

void WritebackCache::queue_expiry(SimTime expires, std::uint32_t s, bool dirty) {
  heap_.push(HeapEntry{expires, s, dirty});
  ++slots_[s].heap_refs;
}

void WritebackCache::release_if_unused(std::uint32_t s) {
  const Slot& slot = slots_[s];
  if (slot.dirty || slot.clean || slot.heap_refs > 0) return;
  index_.erase_at(index_.probe(slot.key, slot_key()), slot_key());
  free_slots_.push_back(s);
}

void WritebackCache::stage_put(const Key& key, Bytes size, SimTime now,
                               std::optional<Key> remove_on_flush) {
  const std::uint32_t s = find_or_add(key);
  Slot& slot = slots_[s];
  D2_REQUIRE_MSG(!slot.dirty, "put already staged; use touch_put");
  D2_DCHECK(slot.pred == kNoPred);  // released when the last put left
  slot.dirty = true;
  slot.size = size;
  slot.since = now;
  if (remove_on_flush) slot.pred = add_pred(*remove_on_flush);
  ++dirty_count_;
  queue_expiry(now + ttl_, s, true);
  if (staged_counter_ != nullptr) staged_counter_->add(1);
}

void WritebackCache::touch_put(const Key& key, Bytes size, SimTime now) {
  const std::uint32_t s = find(key);
  D2_REQUIRE_MSG(s != SlotTable::kNull && slots_[s].dirty,
                 "touch_put without staged put");
  slots_[s].size = size;
  slots_[s].since = now;
  queue_expiry(now + ttl_, s, true);
  if (coalesced_counter_ != nullptr) coalesced_counter_->add(1);
}

std::optional<Key> WritebackCache::cancel_put(const Key& key) {
  const std::uint32_t s = find(key);
  D2_REQUIRE_MSG(s != SlotTable::kNull && slots_[s].dirty,
                 "cancel_put without staged put");
  Slot& slot = slots_[s];
  std::optional<Key> remove_old;
  if (slot.pred != kNoPred) remove_old = release_pred(slot);
  slot.dirty = false;  // heap entries drop out lazily
  --dirty_count_;
  release_if_unused(s);
  if (cancelled_counter_ != nullptr) cancelled_counter_->add(1);
  return remove_old;
}

bool WritebackCache::is_fresh(const Key& key, SimTime now) const {
  const std::uint32_t s = find(key);
  if (s == SlotTable::kNull) return false;
  const Slot& slot = slots_[s];
  if (slot.dirty) return true;  // dirty data is in memory
  return slot.clean && now - slot.clean_at < ttl_;
}

void WritebackCache::mark_clean(const Key& key, SimTime now) {
  const std::uint32_t s = find_or_add(key);
  // Dirty data is in memory and fresh by definition; the read path only
  // reaches here after is_fresh() returned false, which rules dirty out.
  D2_DCHECK_MSG(!slots_[s].dirty, "marking a dirty key clean");
  slots_[s].clean = true;
  slots_[s].clean_at = now;
  queue_expiry(now + ttl_, s, false);
}

void WritebackCache::flush_slot(std::uint32_t s, SimTime committed_at,
                                std::vector<StoreOp>& out) {
  Slot& slot = slots_[s];
  out.push_back(StoreOp{StoreOp::Kind::kPut, slot.key, slot.size});
  if (slot.pred != kNoPred) {
    out.push_back(StoreOp{StoreOp::Kind::kRemove, release_pred(slot), 0});
  }
  if (flushed_counter_ != nullptr) flushed_counter_->add(1);
  slot.clean = true;
  slot.clean_at = committed_at;
  slot.dirty = false;
  --dirty_count_;
  queue_expiry(committed_at + ttl_, s, false);
}

void WritebackCache::collect_expired(SimTime now, std::vector<StoreOp>& out) {
  while (!heap_.empty() && heap_.top().expires <= now) {
    const HeapEntry top = heap_.top();
    heap_.pop();
    Slot& slot = slots_[top.slot];
    --slot.heap_refs;
    if (top.dirty) {
      // A cancelled or already-flushed put has no dirty state left; a
      // touched one has a newer heap entry.
      const SimTime real_expiry = slot.since + ttl_;
      if (slot.dirty && real_expiry <= now) {
        // Flushed blocks stay readable from the moment they actually
        // committed (staged time + TTL), not from this (possibly much
        // later) lazy collection point.
        flush_slot(top.slot, real_expiry, out);
      }
    } else if (slot.clean && slot.clean_at + ttl_ <= now) {
      slot.clean = false;  // not refreshed since this entry was pushed
    }
    release_if_unused(top.slot);
  }
}

void WritebackCache::flush_all(SimTime now, std::vector<StoreOp>& out) {
  std::vector<std::uint32_t> order;
  order.reserve(dirty_count_);
  for (std::uint32_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].dirty) order.push_back(s);
  }
  std::sort(order.begin(), order.end(), [this](std::uint32_t a, std::uint32_t b) {
    return slots_[a].key < slots_[b].key;
  });
  for (const std::uint32_t s : order) flush_slot(s, now, out);
}

std::size_t WritebackCache::allocated_bytes() const {
  return slots_.capacity() * sizeof(Slot) +
         free_slots_.capacity() * sizeof(std::uint32_t) +
         preds_.capacity() * sizeof(Key) +
         free_preds_.capacity() * sizeof(std::uint32_t) +
         index_.allocated_bytes() + heap_.capacity() * sizeof(HeapEntry);
}

}  // namespace d2::fs
