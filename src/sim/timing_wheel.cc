#include "sim/timing_wheel.h"

namespace d2::sim {

void TimingWheel::link(int bucket, std::uint32_t slot) {
  Bucket& bk = buckets_[static_cast<std::size_t>(bucket)];
  SlotState& st = slots_[slot];
  st.prev = bk.tail;
  st.next = kNil;
  if (bk.tail == kNil) {
    bk.head = slot;
    if (bucket < kNumWheelBuckets) {
      occupied_[static_cast<std::size_t>(bucket) / kWheelSlots] |=
          std::uint64_t{1} << (static_cast<std::size_t>(bucket) % kWheelSlots);
    }
  } else {
    slots_[bk.tail].next = slot;
  }
  bk.tail = slot;
}

void TimingWheel::unlink(int bucket, std::uint32_t slot) {
  Bucket& bk = buckets_[static_cast<std::size_t>(bucket)];
  const SlotState& st = slots_[slot];
  if (st.prev != kNil) {
    slots_[st.prev].next = st.next;
  } else {
    bk.head = st.next;
  }
  if (st.next != kNil) {
    slots_[st.next].prev = st.prev;
  } else {
    bk.tail = st.prev;
  }
  if (bk.head == kNil && bucket < kNumWheelBuckets) {
    occupied_[static_cast<std::size_t>(bucket) / kWheelSlots] &=
        ~(std::uint64_t{1} << (static_cast<std::size_t>(bucket) % kWheelSlots));
  }
}

void TimingWheel::insert(std::uint32_t slot, SimTime t) {
  D2_REQUIRE_MSG(slot < slots_.size(),
                 "timing wheel: insert past capacity (ensure_capacity first)");
  slots_[slot].time = t;
  link(place(t), slot);
  ++live_;
  // Strict <: an equal-time incumbent was inserted earlier (smaller seq)
  // and keeps the head.
  if (head_ == kNil || t < slots_[head_].time) head_ = slot;
}

void TimingWheel::remove(std::uint32_t slot) {
  D2_REQUIRE_MSG(slot < slots_.size() && live_ > 0,
                 "timing wheel: remove of a non-resident slot");
  unlink(place(slots_[slot].time), slot);
  --live_;
  if (slot == head_) refresh_head();
}

std::uint32_t TimingWheel::pop_min() {
  D2_ASSERT(head_ != kNil);
  const std::uint32_t slot = head_;
  const SimTime t = slots_[slot].time;
  const int bucket = place(t);
  unlink(bucket, slot);
  --live_;
  if (t > cur_) {
    cur_ = t;
    // Only the popped minimum's own bucket can hold events whose
    // placement changed: anything that would now land on a lower level
    // was already earlier than the minimum — impossible. Level-0 buckets
    // pin one absolute time each, so they never redistribute.
    if (bucket >= kWheelSlots) cascade(bucket);
  }
  refresh_head();
  return slot;
}

void TimingWheel::cascade(int bucket) {
  Bucket& bk = buckets_[static_cast<std::size_t>(bucket)];
  std::uint32_t s = bk.head;
  bk.head = bk.tail = kNil;
  if (bucket < kNumWheelBuckets) {
    occupied_[static_cast<std::size_t>(bucket) / kWheelSlots] &=
        ~(std::uint64_t{1} << (static_cast<std::size_t>(bucket) % kWheelSlots));
  }
  // Re-linking in list order preserves seq order: every target bucket at
  // a lower level is empty (see pop_min), and overflow re-appends keep
  // their relative order.
  while (s != kNil) {
    const std::uint32_t nxt = slots_[s].next;
    link(place(slots_[s].time), s);
    s = nxt;
  }
}

void TimingWheel::refresh_head() {
  if (live_ == 0) {
    head_ = kNil;
    return;
  }
  // Overdue times sit below cur_ <= every wheel/overflow time.
  if (buckets_[kOverdueBucket].head != kNil) {
    head_ = scan_min(kOverdueBucket);
    return;
  }
  // The lowest non-empty level holds the minimum: a level-l resident
  // agrees with cur_ on all digits above l and exceeds it at digit l, so
  // lower levels are strictly earlier. Within a level the lowest
  // occupied bucket is earliest for the same reason, one digit down.
  for (int level = 0; level < kLevels; ++level) {
    const std::uint64_t occ = occupied_[static_cast<std::size_t>(level)];
    if (occ == 0) continue;
    const int bucket = level * kWheelSlots + std::countr_zero(occ);
    // Level 0: one absolute time per bucket, list head == minimum seq.
    head_ = level == 0 ? buckets_[static_cast<std::size_t>(bucket)].head
                       : scan_min(bucket);
    return;
  }
  head_ = scan_min(kOverflowBucket);
}

std::uint32_t TimingWheel::scan_min(int bucket) const {
  std::uint32_t best = buckets_[static_cast<std::size_t>(bucket)].head;
  SimTime best_time = slots_[best].time;
  // First occurrence of the minimum time wins: list order == seq order.
  for (std::uint32_t s = slots_[best].next; s != kNil;) {
    const SlotState& st = slots_[s];
    if (st.time < best_time) {
      best = s;
      best_time = st.time;
    }
    s = st.next;
  }
  return best;
}

}  // namespace d2::sim
