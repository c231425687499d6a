// Priority queue of timestamped events with stable FIFO ordering for ties,
// exact cancellation and O(1) best-effort discard.
//
// Layout: an ordering structure of lightweight per-slot entries over
// parallel slot arrays — a hot 8-byte metadata word per slot (sequence
// tag, free-list link, liveness mark packed together, so a liveness
// check is one load and one compare), the slot's cross-queue merge key,
// and a closure slab the ordering machinery never touches.
// Callbacks are InlineFunctions — closures live inside the slab, not
// behind a std::function heap cell — and push() constructs the closure
// directly in place (writing only the capture's footprint), so
// push/cancel/pop perform no heap allocation at all in steady state
// (tests/test_alloc_guard.cc enforces this).
//
// Closures come in two tiers. One whose captures fit kEventInlineBytes
// (24: a pointer plus two words, e.g. System's fetch timer {this,
// BlockHandle, node}) is built in its slot's 32-byte InlineEventFn. A
// larger one, up to kEventCaptureBytes, is built in an entry of the
// queue's overflow slab (its own paged array and free list) and the slot
// holds a reference to it; pop, cancel and discard free that entry with
// the slot. So a slot costs 64 bytes (closure 32, metadata 8, merge key
// 8, wheel entry 16), and the overflow tier grows only to the most large
// closures ever pending at once.
//
// The slot arrays, and the wheel's per-slot entries, are PagedArrays
// (sim/paged_array.h): pages of 1024 slots, allocated when the slot
// high-water first reaches them and never moved, so a queue's memory is
// its high-water mark rounded up to a page, with no doubling copy at
// growth (slab_bytes() reports it). Slots are recycled through a free
// list, never released.
//
// Two interchangeable scheduler backends order the slots
// (SchedulerKind, DESIGN.md §11):
//   - kWheel (default): a hierarchical timing wheel
//     (sim/timing_wheel.h) with O(1) amortized push/pop; cancellation
//     unlinks the slot from its intrusive bucket list, and cancelling
//     the queue's next event also rescans a bucket for the new minimum.
//   - kHeap: the original binary heap of {time, seq} entries, retained
//     as the differential reference (`--scheduler heap`). Cancellation
//     flips the metadata word — it never touches the heap — and dead
//     entries are dropped when they surface at the top.
// Both produce the exact same (time, seq) pop order, so every seeded
// experiment output is byte-identical across `--scheduler heap|wheel`
// (tests/test_event_queue.cc proves it property-by-property).
// `empty()`/`next_time()`/`pending()` are genuinely const O(1) reads
// under either backend.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/inline_function.h"
#include "common/units.h"
#include "sim/paged_array.h"
#include "sim/timing_wheel.h"

namespace d2::sim {

struct EventQueueTestPeer;

/// Opaque handle: slot index in the high 28 bits, a sequence tag in the
/// low 36 (distinguishes generations of a recycled slot).
using EventId = std::uint64_t;

/// Capture budget of an event slot's own closure (the inline tier).
/// Audit of the schedule sites (DESIGN.md §5c): System's fetch timer and
/// fetch completion, and RepairEngine's retry, repair completion and
/// detect pass, capture at most {this, BlockHandle, int} (20 bytes, 24
/// padded); a `static_assert(kFitsInlineEvent<...>)` at each site keeps
/// them here, hundreds of thousands of pending fetch timers among them.
/// A fetch timer recognises itself by its due time (the clock when it
/// fires), so it carries no tag. The probe tick {this, epoch}, the
/// failure transitions {this, node} and every other pointer-plus-scalars
/// closure fit too. Raising it widens every slot.
inline constexpr std::size_t kEventInlineBytes = 24;

/// Capture budget of the overflow tier, the largest closure any site may
/// schedule. Its users capture a 64-byte Key: System's TTL expiry {this,
/// Key, SimTime} at 80 bytes and delayed remove {this, Key} at 72.
inline constexpr std::size_t kEventCaptureBytes = 80;

/// A callback at the overflow budget: what pop() returns. Non-allocating,
/// captures stored inline.
using EventFn = common::InlineFunction<void(), kEventCaptureBytes>;
/// A slot-resident callback (the inline tier).
using InlineEventFn = common::InlineFunction<void(), kEventInlineBytes>;
static_assert(sizeof(InlineEventFn) == 32, "an event slot's closure is 32 B");

/// True when closure type F is built in its event slot rather than in
/// the overflow tier.
template <class F>
inline constexpr bool kFitsInlineEvent =
    sizeof(std::decay_t<F>) <= kEventInlineBytes &&
    alignof(std::decay_t<F>) <= alignof(std::uint64_t);

class EventQueue {
 public:
  EventQueue() : EventQueue(SchedulerKind::kWheel) {}
  explicit EventQueue(SchedulerKind kind) : kind_(kind) {}

  SchedulerKind scheduler() const { return kind_; }

  /// Schedules callable `f` at time `t`. Events at equal times fire in
  /// insertion order. Returns an id usable with cancel(). The closure is
  /// built in place, in its slot or in the overflow tier (no intermediate
  /// EventFn copy); its captures must satisfy EventFn's budget and
  /// triviality static_asserts.
  template <class F>
  EventId push(SimTime t, F&& f) {
    return push_ordered(t, next_seq_, std::forward<F>(f));
  }

  /// push() with an explicit cross-queue merge key. The Simulator owns a
  /// key-local and a global queue and merges them into one deterministic
  /// total order (time, order); `order` is drawn from the simulator's
  /// counter. Standalone queues use plain push(), where order == the
  /// queue-local seq, so the merge key is invisible. Pushes into one
  /// queue must carry non-decreasing orders so the intra-queue FIFO
  /// tie-break (by seq) agrees with the merge order.
  template <class F>
  EventId push_ordered(SimTime t, std::uint64_t order, F&& f) {
    const std::uint32_t slot = acquire_slot();
    if constexpr (kFitsInlineEvent<F>) {
      fns_[slot].rebind(std::forward<F>(f));
    } else {
      overflow_fn(slot).rebind(std::forward<F>(f));
    }
    return commit(t, slot, order);
  }

  /// Cancels a pending event. Cancelling an already-fired or unknown id is
  /// a no-op (returns false).
  bool cancel(EventId id);

  /// Best-effort cancel, always O(1): removes a pending event and frees
  /// its slot for the next push, unless it is the queue's next event
  /// (the one next_time() reports). That one stays and fires; removing
  /// it would make the wheel rescan a bucket for the new minimum. So the
  /// owner of a discarded event must still let it run as a no-op.
  /// Returns whether the event was removed; fired, unknown and declined
  /// ids return false.
  bool discard(EventId id);

  /// Due time of pending event `id`, or nullopt when `id` is not pending.
  /// O(1) on the wheel; the heap reference scans its entries. For audits.
  std::optional<SimTime> pending_time(EventId id) const;

  bool empty() const { return live_ == 0; }
  SimTime next_time() const;
  /// Merge key of the earliest event. Requires !empty().
  std::uint64_t next_order() const;

  /// Pops and returns the earliest event. Requires !empty().
  struct Event {
    SimTime time;
    EventId id;
    EventFn fn;
  };
  Event pop();

  std::size_t pending() const { return live_; }
  /// Slab size: the most events ever pending at once (slots are recycled,
  /// never freed), so it — not pending() — sets the queue's memory.
  std::size_t slots() const { return meta_.size(); }
  /// Overflow-tier size: the most large-closure events ever pending at
  /// once (entries are recycled, never freed).
  std::size_t overflow_slots() const { return overflow_.size(); }
  /// Bytes of the slab pages allocated so far: the slot arrays, the
  /// wheel's per-slot entries and the overflow tier (the heap
  /// reference's entries not included).
  std::size_t slab_bytes() const {
    return fns_.allocated_bytes() + meta_.allocated_bytes() +
           order_.allocated_bytes() + wheel_.slab_bytes() +
           overflow_.allocated_bytes();
  }

  /// Full-structure audit; throws InvariantError naming the violated
  /// invariant. Checks the heap property, the slab free list (no cycles,
  /// in-range links, no orphaned slots), live-mark consistency (live
  /// slot count == live_ == live heap entries), the live-top invariant
  /// and the overflow tier (its free list, and exactly one live slot
  /// referring to each live entry). O(n); wired into push/cancel/pop in
  /// paranoid builds and callable from tests in any build.
  void check_invariants() const;

 private:
  /// Corruption-injection hook for tests (tests/test_invariants.cc).
  friend struct EventQueueTestPeer;
  // 2^28 slots bound *live* events per queue. The old 24-bit space
  // overflowed near 6k nodes, when every readjustment armed another
  // fetch timer per pointer member; core::System now keeps at most one
  // per member. 36 seq bits still allow ~7e10 pushes per queue before
  // generation tags could collide.
  static constexpr std::uint32_t kNoSlot = 0xfffffffu;    // free-list end
  static constexpr std::uint32_t kLiveMark = 0xffffffeu;  // occupied slot
  static constexpr int kSeqBits = 36;
  static constexpr int kSlotBits = 28;
  static constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kSeqBits) - 1;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;

  /// 16-byte heap entry: the seq tag (insertion order, for the FIFO
  /// tie-break) in the high 36 bits and the slab slot in the low 28, so
  /// comparing `tag` compares seq first and sift steps move one cache
  /// line's worth of entries.
  struct Entry {
    SimTime time;
    std::uint64_t tag;  // (seq & kSeqMask) << kSlotBits | slot
  };
  static std::uint64_t make_tag(std::uint32_t slot, std::uint64_t seq) {
    return ((seq & kSeqMask) << kSlotBits) | slot;
  }
  static std::uint32_t tag_slot(std::uint64_t tag) {
    return static_cast<std::uint32_t>(tag & kSlotMask);
  }
  /// Orders the priority queue: earliest time first, then insertion
  /// order (seq occupies the tag's high bits, so comparing tags compares
  /// seq first).
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.tag > b.tag;
    }
  };

  /// Slot metadata word: current occupant's seq in the high 36 bits, and
  /// in the low 28 either kLiveMark (occupied) or the free-list link.
  /// A heap entry is live iff its slot's word is exactly
  /// `seq << kSlotBits | kLiveMark` — seq and tag share the same shift,
  /// so the whole check is one load and one 64-bit compare against a
  /// value derived from the entry's tag by masking.
  static std::uint64_t live_meta(std::uint64_t tag) {
    return (tag & ~kSlotMask) | kLiveMark;
  }

  static EventId make_id(std::uint32_t slot, std::uint64_t seq) {
    return (static_cast<std::uint64_t>(slot) << kSeqBits) | (seq & kSeqMask);
  }
  bool entry_live(const Entry& e) const {
    return meta_[tag_slot(e.tag)] == live_meta(e.tag);
  }
  /// Slot of pending event `id`, or kNoSlot when `id` is not pending.
  std::uint32_t live_slot(EventId id) const {
    const auto slot = static_cast<std::uint32_t>(id >> kSeqBits);
    if (slot >= meta_.size() ||
        meta_[slot] != live_meta(make_tag(slot, id & kSeqMask))) {
      return kNoSlot;
    }
    return slot;
  }
  /// Slot of the queue's next event. Requires !empty().
  std::uint32_t next_slot() const {
    return kind_ == SchedulerKind::kWheel ? wheel_.min_slot()
                                          : tag_slot(heap_.top().tag);
  }

  /// A slot's closure when it lives in the overflow tier: the entry
  /// holding it.
  struct OverflowRef {
    std::uint32_t entry;
    void operator()() const {}  // never invoked: pop() calls the entry
  };
  /// An overflow-tier entry: a closure at the full budget, or a free-list
  /// link.
  struct OverflowEntry {
    EventFn fn;
    std::uint32_t next_free = kLiveMark;  // free-list link, or kLiveMark
  };

  /// Pops a free-list slot (or appends one to every slot array); the
  /// caller fills its fn.
  std::uint32_t acquire_slot();
  /// Takes an overflow entry (free list first) for `slot`, points the
  /// slot's closure at it and returns the entry's closure to fill.
  EventFn& overflow_fn(std::uint32_t slot);
  /// `slot`'s closure at the full budget, wherever it lives.
  EventFn slot_fn(std::uint32_t slot) const {
    if (const OverflowRef* ref = fns_[slot].target<OverflowRef>()) {
      return overflow_[ref->entry].fn;
    }
    return EventFn(fns_[slot]);
  }
  /// Marks `slot` live at time `t`, inserts its heap entry, returns the id.
  EventId commit(SimTime t, std::uint32_t slot, std::uint64_t order);
  /// Returns `slot` (whose current meta word is `meta`) to the free list,
  /// and its overflow entry, if any, to the overflow free list.
  void release_slot(std::uint32_t slot, std::uint64_t meta);

  /// The heap's entries in container order, live and dead (heap backend).
  const std::vector<Entry>& heap_entries() const;

  /// Restores the invariant after cancel/pop (heap backend only):
  /// discard heap entries whose slot was already freed until a live one
  /// (or nothing) is on top.
  void drop_dead_top();

  SchedulerKind kind_;
  TimingWheel wheel_;  // ordering structure for kWheel (empty for kHeap)
  // Ordering structure for kHeap (empty for kWheel).
  // d2-lint: allow(priority-queue) — this IS the reference scheduler
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  PagedArray<InlineEventFn> fns_;    // closure slab: only push/pop touch it
  PagedArray<std::uint64_t> meta_;   // hot: seq | live-or-free-link
  PagedArray<std::uint64_t> order_;  // cross-queue merge key per slot
  PagedArray<OverflowEntry> overflow_;  // large closures, by OverflowRef
  std::uint32_t free_head_ = kNoSlot;
  std::uint32_t overflow_free_ = kNoSlot;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  ParanoidGate audit_gate_;  // paces paranoid-build audits
};

}  // namespace d2::sim
