// Hierarchical timing wheel: the O(1)-amortized scheduler core behind
// sim::EventQueue (DESIGN.md §11).
//
// Eight levels of 64 buckets each cover 6 bits of the event time apiece
// (48 bits total ≈ 8.9 simulated years in microseconds). The wheel keeps
// a clock `cur_` equal to the last popped time, and places a pending
// event with time t by the *highest base-64 digit where t differs from
// cur_*: the differing digit picks the level, the digit's value picks
// the bucket. Placement is a pure function of (t, cur_), so a bucket
// never needs to store which events it holds beyond the intrusive list
// itself, and a slot's bucket can always be recomputed from its time.
//
// Buckets are intrusive doubly-linked lists threaded through per-slot
// entries indexed by the owner's slab slot ids — the wheel allocates
// nothing in steady state. A slot's time and both links share one
// 16-byte entry, so a bucket walk touches one cache line per slot; like
// the owner's slot arrays, the entries are paged (sim/paged_array.h):
// they grow a slot at a time and never move. Two out-of-band lists
// complete the domain: an *overflow* list for times differing from cur_
// above bit 47 (e.g. kSimTimeNever sentinels) and an *overdue* list for
// pushes below cur_ (legal for a standalone queue; the simulator never
// produces them because cur_ only advances to popped event times, which
// trail the simulation clock).
//
// FIFO tie order (equal times pop in push order) falls out of list
// order: pushes append in increasing seq; a cascade moves a bucket's
// remainder, in order, into buckets that are provably empty (any event
// already below the cascading level would have been earlier than the
// minimum being popped); and later pushes into those buckets carry later
// seqs. So within a bucket, list order == seq order, and the head of a
// level-0 bucket (one absolute time per bucket) is the exact (time, seq)
// minimum. See DESIGN.md §11 for the proof sketch.
//
// The minimum slot is cached (`head_`) so min_slot()/min_time() are
// const O(1) — the Simulator polls both queues' heads per
// pop. pop_min() advances cur_ to the popped time and cascades only the
// bucket the head came from; remove() never advances cur_ (cascading on
// cancel could push cur_ past the simulation clock and outlaw still-legal
// pushes), it just recomputes the head cache with a non-mutating scan.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/units.h"
#include "sim/paged_array.h"

namespace d2::sim {

struct EventQueueTestPeer;

/// Which scheduler backs an EventQueue: the timing wheel (production) or
/// the binary heap kept as the differential reference (`--scheduler heap`).
enum class SchedulerKind { kWheel, kHeap };

class TimingWheel {
 public:
  /// Null link / empty-bucket marker.
  static constexpr std::uint32_t kNil = 0xffffffffu;

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Slot id of the (time, insertion-order) minimum; kNil when empty.
  std::uint32_t min_slot() const { return head_; }
  /// Time of the minimum. Requires !empty().
  SimTime min_time() const {
    D2_ASSERT(head_ != kNil);
    return slots_[head_].time;
  }
  /// Time recorded for a resident slot.
  SimTime slot_time(std::uint32_t slot) const { return slots_[slot].time; }
  /// The wheel cursor: the last popped time (never decreases).
  SimTime cursor() const { return cur_; }

  /// Grows the per-slot arrays to cover slot ids < `slots`. Called by the
  /// owner when its slab grows; insert()/remove() never allocate.
  void ensure_capacity(std::size_t slots) {
    while (slots_.size() < slots) {
      slots_.emplace_back(SlotState{0, kNil, kNil});
    }
  }
  /// Bytes of the per-slot entries' allocated pages.
  std::size_t slab_bytes() const { return slots_.allocated_bytes(); }

  /// Links `slot` (< capacity, not currently resident) at time `t`.
  /// Successive inserts must carry increasing insertion order (the
  /// owner's seq); equal-time ties pop in insert order.
  void insert(std::uint32_t slot, SimTime t);

  /// Unlinks a resident slot without advancing the clock.
  void remove(std::uint32_t slot);

  /// Unlinks and returns the minimum slot, advancing the clock to its
  /// time and redistributing its bucket. Requires !empty().
  std::uint32_t pop_min();

  /// Structural audit (bucket membership vs place(), link symmetry,
  /// occupancy bitmaps, head cache, resident count); throws
  /// InvariantError on violation. `seq_of(slot)` supplies the owner's
  /// insertion order for the head-is-minimum check.
  template <class SeqOf>
  void check_invariants(std::size_t expect_live, SeqOf&& seq_of) const;

 private:
  friend struct EventQueueTestPeer;

  static constexpr int kBitsPerLevel = 6;
  static constexpr int kWheelSlots = 1 << kBitsPerLevel;  // 64
  static constexpr int kLevels = 8;
  static constexpr int kNumWheelBuckets = kLevels * kWheelSlots;  // 512
  static constexpr int kOverflowBucket = kNumWheelBuckets;        // 512
  static constexpr int kOverdueBucket = kNumWheelBuckets + 1;     // 513
  static constexpr int kNumBuckets = kNumWheelBuckets + 2;

  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  /// A slot's due time and its links in its bucket's list.
  struct SlotState {
    SimTime time;
    std::uint32_t next;
    std::uint32_t prev;
  };

  /// Bucket index for time `t` under the current clock: overdue below
  /// cur_, overflow when the top 16 bits differ, otherwise the level of
  /// the highest differing base-64 digit and that digit's value in t.
  int place(SimTime t) const {
    if (t < cur_) return kOverdueBucket;
    const std::uint64_t diff =
        static_cast<std::uint64_t>(t) ^ static_cast<std::uint64_t>(cur_);
    if ((diff >> (kLevels * kBitsPerLevel)) != 0) return kOverflowBucket;
    const int level =
        diff == 0 ? 0 : (63 - std::countl_zero(diff)) / kBitsPerLevel;
    return level * kWheelSlots +
           static_cast<int>((static_cast<std::uint64_t>(t) >>
                             (level * kBitsPerLevel)) &
                            (kWheelSlots - 1));
  }

  void link(int bucket, std::uint32_t slot);
  void unlink(int bucket, std::uint32_t slot);
  /// Re-places every element of `bucket` under the (just-advanced)
  /// clock, preserving list order. Only level >= 1 and overflow buckets
  /// ever need this.
  void cascade(int bucket);
  /// Recomputes the head cache by non-mutating search: overdue first
  /// (all below cur_), then the lowest occupied bucket of the lowest
  /// non-empty level, then overflow.
  void refresh_head();
  /// First slot in `bucket`'s list with the minimum time (== minimum
  /// insertion order among minimum times, since list order == seq order).
  std::uint32_t scan_min(int bucket) const;

  std::array<Bucket, kNumBuckets> buckets_{};
  std::array<std::uint64_t, kLevels> occupied_{};  // bit = bucket non-empty
  PagedArray<SlotState> slots_;
  SimTime cur_ = 0;
  std::uint32_t head_ = kNil;
  std::size_t live_ = 0;
};

template <class SeqOf>
void TimingWheel::check_invariants(std::size_t expect_live,
                                   SeqOf&& seq_of) const {
  D2_ASSERT_MSG(live_ == expect_live,
                "timing wheel: resident count disagrees with owner");
  std::vector<char> seen(slots_.size(), 0);
  std::size_t walked = 0;
  std::uint32_t best = kNil;
  for (int b = 0; b < kNumBuckets; ++b) {
    std::uint32_t prev = kNil;
    for (std::uint32_t s = buckets_[b].head; s != kNil; s = slots_[s].next) {
      D2_ASSERT_MSG(s < slots_.size(), "timing wheel: link out of range");
      D2_ASSERT_MSG(seen[s] == 0, "timing wheel: slot linked twice");
      seen[s] = 1;
      const SlotState& st = slots_[s];
      D2_ASSERT_MSG(st.prev == prev, "timing wheel: prev link broken");
      D2_ASSERT_MSG(place(st.time) == b,
                    "timing wheel: slot in wrong bucket for its time");
      if (b == kOverdueBucket) {
        D2_ASSERT_MSG(st.time < cur_, "timing wheel: future slot overdue");
      }
      if (best == kNil || st.time < slots_[best].time ||
          (st.time == slots_[best].time && seq_of(s) < seq_of(best))) {
        best = s;
      }
      prev = s;
      ++walked;
    }
    D2_ASSERT_MSG(buckets_[b].tail == prev, "timing wheel: tail link broken");
    if (b < kNumWheelBuckets) {
      const bool bit = (occupied_[static_cast<std::size_t>(b) / kWheelSlots] >>
                        (static_cast<std::size_t>(b) % kWheelSlots)) &
                       1;
      D2_ASSERT_MSG(bit == (buckets_[b].head != kNil),
                    "timing wheel: occupancy bit disagrees with bucket");
    }
  }
  D2_ASSERT_MSG(walked == live_,
                "timing wheel: linked slots disagree with resident count");
  D2_ASSERT_MSG(head_ == best,
                "timing wheel: head cache is not the (time, seq) minimum");
}

}  // namespace d2::sim
