// Open-addressed Key -> slot table shared by the flat client caches.
//
// The table holds 32-bit indices into a slab its owner keeps; the key of
// a stored index is read back through a `key_of(slot) -> const Key&`
// callable, so no key is stored twice. Linear probing over a
// power-of-two bucket array, load factor at most 1/2, and backward-shift
// deletion (Knuth 6.4 R) instead of tombstones: occupancy always equals
// the live count, so steady-state insert/erase churn never lengthens
// probe runs or forces a cleanup rehash. Once the table has grown to its
// owner's high-water mark, probe/insert/erase never allocate.
//
// Only keyed operations are offered; bucket order is never observable
// beyond the audit walk (for_each), so KeyHash values cannot leak into
// any output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/key.h"

namespace d2 {

struct SlotTableTestPeer;

class SlotTable {
 public:
  static constexpr std::uint32_t kNull = 0xffffffffu;

  SlotTable() : table_(kMinBuckets, kNull), mask_(kMinBuckets - 1) {}

  /// Bucket holding `k`'s slot, or the empty bucket it would occupy.
  template <class KeyOf>
  std::size_t probe(const Key& k, const KeyOf& key_of) const {
    std::size_t pos = KeyHash{}(k) & mask_;
    while (table_[pos] != kNull && !(key_of(table_[pos]) == k)) {
      pos = (pos + 1) & mask_;
    }
    return pos;
  }

  /// Slot stored in bucket `pos`, or kNull.
  std::uint32_t operator[](std::size_t pos) const { return table_[pos]; }

  /// Slot of `k`, or kNull.
  template <class KeyOf>
  std::uint32_t find(const Key& k, const KeyOf& key_of) const {
    return table_[probe(k, key_of)];
  }

  /// Stores slot `s` in bucket `pos`, the empty bucket probe(key_of(s))
  /// returned. Doubles the table first if the entry would take it past
  /// half full.
  template <class KeyOf>
  void insert_at(std::size_t pos, std::uint32_t s, const KeyOf& key_of) {
    D2_DCHECK(table_[pos] == kNull);
    if ((size_ + 1) * 2 > table_.size()) {
      grow(key_of);
      pos = probe(key_of(s), key_of);
    }
    table_[pos] = s;
    ++size_;
  }

  /// Empties bucket `pos`, pulling every displaced entry of its probe run
  /// back over the hole, so lookups never need tombstones.
  template <class KeyOf>
  void erase_at(std::size_t pos, const KeyOf& key_of) {
    D2_DCHECK(table_[pos] != kNull);
    std::size_t hole = pos;
    std::size_t j = pos;
    while (true) {
      table_[hole] = kNull;
      while (true) {
        j = (j + 1) & mask_;
        if (table_[j] == kNull) {
          --size_;
          return;
        }
        const std::size_t home = KeyHash{}(key_of(table_[j])) & mask_;
        // The entry at j may fill the hole unless its home lies cyclically
        // in (hole, j]: moving it would put it before its probe start.
        const bool skip = hole <= j ? (hole < home && home <= j)
                                    : (hole < home || home <= j);
        if (!skip) break;
      }
      table_[hole] = table_[j];
      hole = j;
    }
  }

  /// Bytes held by the bucket array.
  std::size_t allocated_bytes() const {
    return table_.capacity() * sizeof(std::uint32_t);
  }

  /// Calls f(slot) for every occupied bucket, in bucket order. For
  /// audits only: bucket order is hash order.
  template <class F>
  void for_each(const F& f) const {
    for (const std::uint32_t s : table_) {
      if (s != kNull) f(s);
    }
  }

  /// Audit: power-of-two bucket count, load at most 1/2, occupancy equal
  /// to the entry count, and every entry reachable by probing its own key.
  /// Throws InvariantError naming the violated invariant.
  template <class KeyOf>
  void check_invariants(const KeyOf& key_of) const {
    D2_ASSERT_MSG(mask_ == table_.size() - 1 && (table_.size() & mask_) == 0,
                  "slot table: bucket count not a power of two");
    std::size_t occupied = 0;
    for (std::size_t pos = 0; pos < table_.size(); ++pos) {
      if (table_[pos] == kNull) continue;
      ++occupied;
      D2_ASSERT_MSG(probe(key_of(table_[pos]), key_of) == pos,
                    "slot table: entry unreachable from its probe run");
    }
    D2_ASSERT_MSG(occupied == size_,
                  "slot table: occupancy disagrees with entry count");
    D2_ASSERT_MSG(size_ * 2 <= table_.size(),
                  "slot table: load factor above 1/2");
  }

 private:
  /// Corruption-injection hook for tests (tests/test_invariants.cc).
  friend struct SlotTableTestPeer;

  static constexpr std::size_t kMinBuckets = 16;

  template <class KeyOf>
  void grow(const KeyOf& key_of) {
    std::vector<std::uint32_t> old(table_.size() * 2, kNull);
    old.swap(table_);
    mask_ = table_.size() - 1;
    for (const std::uint32_t s : old) {
      if (s == kNull) continue;
      std::size_t pos = KeyHash{}(key_of(s)) & mask_;
      while (table_[pos] != kNull) pos = (pos + 1) & mask_;
      table_[pos] = s;
    }
  }

  std::vector<std::uint32_t> table_;
  std::size_t mask_;
  std::size_t size_ = 0;  // occupied buckets
};

}  // namespace d2
