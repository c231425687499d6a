// Priority queue of timestamped events with stable FIFO ordering for ties
// and O(1) cancellation.
//
// Layout: an ordering structure of lightweight per-slot entries over two
// parallel slot arrays — a hot 8-byte metadata word per slot (sequence
// tag, free-list link, liveness mark packed together, so a liveness
// check is one load and one compare) and a wide closure slab the
// ordering machinery never touches. Callbacks are InlineFunctions —
// closures live inside their slab slot, not behind a std::function heap
// cell — and push() constructs the closure directly in the slot (writing
// only the capture's footprint), so push/cancel/pop perform no heap
// allocation at all in steady state (all arrays grow to the high-water
// mark and stay there; tests/test_alloc_guard.cc enforces this).
//
// Two interchangeable scheduler backends order the slots
// (SchedulerKind, DESIGN.md §11):
//   - kWheel (default): a hierarchical timing wheel
//     (sim/timing_wheel.h) with O(1) amortized push/cancel/pop;
//     cancellation unlinks the slot from its intrusive bucket list.
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
#include <queue>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/inline_function.h"
#include "common/units.h"
#include "sim/timing_wheel.h"

namespace d2::sim {

struct EventQueueTestPeer;

/// Opaque handle: slot index in the high 28 bits, a sequence tag in the
/// low 36 (distinguishes generations of a recycled slot).
using EventId = std::uint64_t;

/// Inline capture budget for event callbacks. Audit of the schedule
/// sites (DESIGN.md §5c): the largest closures are System's TTL expiry
/// {this, Key, SimTime} at 80 bytes, then {this, Key, int} at 76 (80
/// padded) — System's fetch timer and completion, RepairEngine's retry
/// and repair completion. A fetch timer recognises itself by its due
/// time (the clock when it fires), so it carries no tag. A 512-bit Key
/// capture alone is 64 bytes. Raising this widens every slot in the
/// slab; shrink closures before shrinking budgets.
inline constexpr std::size_t kEventCaptureBytes = 80;

/// A scheduled callback: non-allocating, captures stored inline.
using EventFn = common::InlineFunction<void(), kEventCaptureBytes>;

class EventQueue {
 public:
  EventQueue() : EventQueue(SchedulerKind::kWheel) {}
  explicit EventQueue(SchedulerKind kind) : kind_(kind) {}

  SchedulerKind scheduler() const { return kind_; }

  /// Schedules callable `f` at time `t`. Events at equal times fire in
  /// insertion order. Returns an id usable with cancel(). The closure is
  /// built in place in its slab slot (no intermediate EventFn copy); its
  /// captures must satisfy EventFn's budget and triviality static_asserts.
  template <class F>
  EventId push(SimTime t, F&& f) {
    return push_ordered(t, next_seq_, std::forward<F>(f));
  }

  /// Overload for a prebuilt EventFn (copied whole into the slot).
  EventId push(SimTime t, const EventFn& fn) {
    return push_ordered(t, next_seq_, fn);
  }

  /// push() with an explicit cross-queue merge key. The partitioned
  /// Simulator owns one queue per arc plus a global queue and merges them
  /// into a single deterministic total order (time, order); `order` is
  /// drawn from the simulator's global counter. Standalone queues use the
  /// plain push() overloads, where order == the queue-local seq, so the
  /// merge key is invisible. Pushes into one queue must carry
  /// non-decreasing orders so the intra-queue FIFO tie-break (by seq)
  /// agrees with the merge order.
  template <class F>
  EventId push_ordered(SimTime t, std::uint64_t order, F&& f) {
    const std::uint32_t slot = acquire_slot();
    fns_[slot].rebind(std::forward<F>(f));
    return commit(t, slot, order);
  }

  EventId push_ordered(SimTime t, std::uint64_t order, const EventFn& fn) {
    const std::uint32_t slot = acquire_slot();
    fns_[slot] = fn;  // trivially copyable: a straight memcpy
    return commit(t, slot, order);
  }

  /// Cancels a pending event. Cancelling an already-fired or unknown id is
  /// a no-op (returns false).
  bool cancel(EventId id);

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

  /// Full-structure audit; throws InvariantError naming the violated
  /// invariant. Checks the heap property, the slab free list (no cycles,
  /// in-range links, no orphaned slots), live-mark consistency (live
  /// slot count == live_ == live heap entries) and the live-top
  /// invariant. O(n); wired into push/cancel/pop in paranoid builds and
  /// callable from tests in any build.
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

  /// Pops a free-list slot (or grows the arrays); the caller fills its fn.
  std::uint32_t acquire_slot();
  /// Marks `slot` live at time `t`, inserts its heap entry, returns the id.
  EventId commit(SimTime t, std::uint32_t slot, std::uint64_t order);
  /// Returns `slot` (whose current meta word is `meta`) to the free list.
  void release_slot(std::uint32_t slot, std::uint64_t meta);

  /// Restores the invariant after cancel/pop (heap backend only):
  /// discard heap entries whose slot was already freed until a live one
  /// (or nothing) is on top.
  void drop_dead_top();

  SchedulerKind kind_;
  TimingWheel wheel_;  // ordering structure for kWheel (empty for kHeap)
  // Ordering structure for kHeap (empty for kWheel).
  // d2-lint: allow(priority-queue) — this IS the reference scheduler
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::vector<EventFn> fns_;          // wide slab: only push/pop touch it
  std::vector<std::uint64_t> meta_;   // hot: seq | live-or-free-link
  std::vector<std::uint64_t> order_;  // cross-queue merge key per slot
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  ParanoidGate audit_gate_;  // paces paranoid-build audits
};

}  // namespace d2::sim
