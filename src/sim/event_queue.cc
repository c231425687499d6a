#include "sim/event_queue.h"

#include <algorithm>

#include "common/assert.h"

namespace d2::sim {

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = static_cast<std::uint32_t>(meta_[slot] & kSlotMask);
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(fns_.size());
  D2_REQUIRE_MSG(slot < kLiveMark, "event queue slot space exhausted");
  fns_.emplace_back();
  meta_.emplace_back(0);
  order_.emplace_back(0);
  if (kind_ == SchedulerKind::kWheel) wheel_.ensure_capacity(fns_.size());
  return slot;
}

EventFn& EventQueue::overflow_fn(std::uint32_t slot) {
  std::uint32_t entry = overflow_free_;
  if (entry != kNoSlot) {
    overflow_free_ = overflow_[entry].next_free;
  } else {
    entry = static_cast<std::uint32_t>(overflow_.size());
    D2_REQUIRE_MSG(entry < kLiveMark, "event queue overflow space exhausted");
    overflow_.emplace_back();
  }
  overflow_[entry].next_free = kLiveMark;
  fns_[slot].rebind(OverflowRef{entry});
  return overflow_[entry].fn;
}

EventId EventQueue::commit(SimTime t, std::uint32_t slot,
                           std::uint64_t order) {
  const std::uint64_t seq = next_seq_++;
  order_[slot] = order;
  meta_[slot] = live_meta(make_tag(slot, seq));
  if (kind_ == SchedulerKind::kWheel) {
    wheel_.insert(slot, t);
  } else {
    heap_.push(Entry{t, make_tag(slot, seq)});
  }
  ++live_;
  D2_PARANOID_AUDIT(if (audit_gate_.due(meta_.size())) check_invariants());
  return make_id(slot, seq);
}

void EventQueue::release_slot(std::uint32_t slot, std::uint64_t meta) {
  // Keep the seq bits, swap the live mark for the free-list link: any
  // heap entry still pointing here no longer matches live_meta. The
  // closures are left as-is (captures are trivially destructible); a
  // freed slot's stale OverflowRef is never read again, because only a
  // live slot's closure is.
  meta_[slot] = (meta & ~kSlotMask) | free_head_;
  free_head_ = slot;
  --live_;
  if (const OverflowRef* ref = fns_[slot].target<OverflowRef>()) {
    overflow_[ref->entry].next_free = overflow_free_;
    overflow_free_ = ref->entry;
  }
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t slot = live_slot(id);
  if (slot == kNoSlot) return false;
  release_slot(slot, meta_[slot]);
  if (kind_ == SchedulerKind::kWheel) {
    wheel_.remove(slot);
  } else {
    drop_dead_top();
  }
  D2_PARANOID_AUDIT(if (audit_gate_.due(meta_.size())) check_invariants());
  return true;
}

bool EventQueue::discard(EventId id) {
  const std::uint32_t slot = live_slot(id);
  if (slot == kNoSlot || slot == next_slot()) return false;
  release_slot(slot, meta_[slot]);
  // Not the head, so the wheel unlinks without a head refresh, and the
  // heap's live top stays live (the dead entry drops when it surfaces).
  if (kind_ == SchedulerKind::kWheel) wheel_.remove(slot);
  D2_PARANOID_AUDIT(if (audit_gate_.due(meta_.size())) check_invariants());
  return true;
}

std::optional<SimTime> EventQueue::pending_time(EventId id) const {
  const std::uint32_t slot = live_slot(id);
  if (slot == kNoSlot) return std::nullopt;
  if (kind_ == SchedulerKind::kWheel) return wheel_.slot_time(slot);
  const std::uint64_t tag = make_tag(slot, id & kSeqMask);
  for (const Entry& e : heap_entries()) {
    if (e.tag == tag) return e.time;
  }
  D2_ASSERT_MSG(false, "event queue: live slot has no heap entry");
  return std::nullopt;
}

const std::vector<EventQueue::Entry>& EventQueue::heap_entries() const {
  // d2-lint: allow(priority-queue) — reading the reference scheduler
  using RefHeap = std::priority_queue<Entry, std::vector<Entry>, Later>;
  struct HeapAccess : RefHeap {
    static const std::vector<Entry>& container(const RefHeap& q) {
      return q.*(&HeapAccess::c);
    }
  };
  return HeapAccess::container(heap_);
}

void EventQueue::drop_dead_top() {
  while (!heap_.empty() && !entry_live(heap_.top())) heap_.pop();
}

SimTime EventQueue::next_time() const {
  D2_REQUIRE(live_ != 0);
  if (kind_ == SchedulerKind::kWheel) return wheel_.min_time();
  return heap_.top().time;  // invariant: top is live when live_ > 0
}

std::uint64_t EventQueue::next_order() const {
  D2_REQUIRE(live_ != 0);
  if (kind_ == SchedulerKind::kWheel) return order_[wheel_.min_slot()];
  return order_[tag_slot(heap_.top().tag)];
}

EventQueue::Event EventQueue::pop() {
  D2_REQUIRE(live_ != 0);
  if (kind_ == SchedulerKind::kWheel) {
    const std::uint32_t slot = wheel_.pop_min();
    const std::uint64_t seq = meta_[slot] >> kSlotBits;
    Event ev{wheel_.slot_time(slot), make_id(slot, seq), slot_fn(slot)};
    release_slot(slot, meta_[slot]);
    D2_PARANOID_AUDIT(if (audit_gate_.due(meta_.size())) check_invariants());
    return ev;
  }
  const Entry top = heap_.top();
  D2_ASSERT(entry_live(top));
  heap_.pop();
  const std::uint32_t slot = tag_slot(top.tag);
  const std::uint64_t seq = top.tag >> kSlotBits;
  Event ev{top.time, make_id(slot, seq), slot_fn(slot)};
  release_slot(slot, meta_[slot]);
  drop_dead_top();
  D2_PARANOID_AUDIT(if (audit_gate_.due(meta_.size())) check_invariants());
  return ev;
}

void EventQueue::check_invariants() const {
  const std::size_t slots = meta_.size();
  D2_ASSERT_MSG(fns_.size() == slots && order_.size() == slots,
                "event queue: slab arrays out of sync");

  // Free list: in-range links, no cycles.
  std::vector<char> on_free(slots, 0);
  std::size_t free_count = 0;
  for (std::uint32_t s = free_head_; s != kNoSlot;
       s = static_cast<std::uint32_t>(meta_[s] & kSlotMask)) {
    D2_ASSERT_MSG(s < slots, "event queue: free-list link out of range");
    D2_ASSERT_MSG(on_free[s] == 0, "event queue: free-list cycle");
    on_free[s] = 1;
    ++free_count;
  }

  // Live marks: every slot is either live or on the free list, and the
  // live-mark population matches the live counter.
  std::size_t live_count = 0;
  for (std::size_t s = 0; s < slots; ++s) {
    const std::uint64_t low = meta_[s] & kSlotMask;
    if (low == kLiveMark) {
      D2_ASSERT_MSG(on_free[s] == 0, "event queue: slot both live and free");
      ++live_count;
    } else {
      D2_ASSERT_MSG(on_free[s] == 1,
                    "event queue: orphaned slot (neither live nor free)");
    }
  }
  D2_ASSERT_MSG(live_count == live_,
                "event queue: live-mark count disagrees with live_");
  D2_ASSERT_MSG(free_count + live_count == slots,
                "event queue: slot accounting does not cover the slab");

  // Overflow tier: in-range free list without cycles, and each live
  // entry referred to by exactly one live slot.
  const std::size_t overflow_entries = overflow_.size();
  std::vector<char> entry_state(overflow_entries, 0);  // 1 free, 2 referred to
  std::size_t free_entries = 0;
  for (std::uint32_t e = overflow_free_; e != kNoSlot;
       e = overflow_[e].next_free) {
    D2_ASSERT_MSG(e < overflow_entries,
                  "event queue: overflow free-list link out of range");
    D2_ASSERT_MSG(entry_state[e] == 0, "event queue: overflow free-list cycle");
    entry_state[e] = 1;
    ++free_entries;
  }
  std::size_t referred = 0;
  for (std::size_t s = 0; s < slots; ++s) {
    if ((meta_[s] & kSlotMask) != kLiveMark) continue;
    D2_ASSERT_MSG(static_cast<bool>(fns_[s]),
                  "event queue: live slot without a closure");
    const OverflowRef* ref = fns_[s].target<OverflowRef>();
    if (ref == nullptr) continue;
    D2_ASSERT_MSG(ref->entry < overflow_entries,
                  "event queue: slot refers past the overflow tier");
    D2_ASSERT_MSG(entry_state[ref->entry] != 1,
                  "event queue: slot refers to a free overflow entry");
    D2_ASSERT_MSG(entry_state[ref->entry] != 2,
                  "event queue: two slots share an overflow entry");
    D2_ASSERT_MSG(overflow_[ref->entry].next_free == kLiveMark,
                  "event queue: referred overflow entry not marked live");
    entry_state[ref->entry] = 2;
    ++referred;
  }
  D2_ASSERT_MSG(free_entries + referred == overflow_entries,
                "event queue: orphaned overflow entry (neither referred to "
                "nor free)");

  if (kind_ == SchedulerKind::kWheel) {
    // Wheel: every live slot resident in exactly the bucket its time
    // places it in, link symmetry, occupancy bitmaps, head == minimum.
    D2_ASSERT_MSG(heap_.empty(), "event queue: heap populated in wheel mode");
    wheel_.check_invariants(live_, [this](std::uint32_t s) {
      D2_ASSERT_MSG((meta_[s] & kSlotMask) == kLiveMark,
                    "event queue: wheel-resident slot not live");
      return meta_[s] >> kSlotBits;
    });
    return;
  }

  // Heap: ordering property holds, exactly the live slots have a live
  // entry, and a dead entry never sits on top.
  const std::vector<Entry>& entries = heap_entries();
  D2_ASSERT_MSG(std::is_heap(entries.begin(), entries.end(), Later{}),
                "event queue: heap property violated");
  std::size_t live_entries = 0;
  for (const Entry& e : entries) {
    D2_ASSERT_MSG(tag_slot(e.tag) < slots,
                  "event queue: heap entry slot out of range");
    if (entry_live(e)) ++live_entries;
  }
  D2_ASSERT_MSG(live_entries == live_,
                "event queue: live heap entries disagree with live_");
  if (live_ != 0) {
    D2_ASSERT_MSG(entry_live(heap_.top()),
                  "event queue: dead entry on heap top");
  }
}

}  // namespace d2::sim
