// Sorted contiguous index of Key -> Value (block-state slots, cache entries).
//
// The load balancer's probe/readjust cycle is dominated by ordered range
// scans over block keys (owned-arc walks, median splits), and the client
// lookup cache's range probe is an ordered lower_bound per find. A
// red-black tree walks one heap node per step — a cache miss each. This
// index keeps keys in sorted chunks of contiguous memory (a two-level
// B+-tree: a flat directory of per-chunk max keys over leaf chunks of up
// to kMaxChunk entries), so point lookups are two binary searches over
// contiguous arrays and range scans stream cache lines.
//
// Chunks are kept dense, because D2's keys sort in preorder (§4.2) and
// so reach the block map as long ascending runs per volume. A chunk's
// key and value arrays grow geometrically but never past kMaxChunk + 1
// entries, the transient size of a chunk that just overflowed. An
// overflowing chunk first spills into its next, then its previous
// neighbour when that one is under 7/8 full (kSpillBelow), evening the
// two out; only when neither has room does it split in half. A key
// that falls between two chunks is appended to the lower one. A run
// inserted between existing keys then leaves chunks about 7/8 full where
// 50/50 splits alone left them half full: after perf-1k's warm-up, the
// allocated slots per block fell from 2.01 to 1.16 (capacity() reads
// them; DESIGN.md §5b).
//
// Iteration order is exactly key order — identical to the std::map this
// replaced — so every seeded experiment output is unchanged: chunk
// boundaries decide where entries are stored, never their order.
//
// A walk (for_each, walk_in_arc, for_each_in_arc) may change the values
// it visits but must not insert or erase keys. Pointers returned by
// find() are invalidated by insert/erase, like any vector-backed
// container.
#pragma once

#include <algorithm>
#include <iterator>
#include <memory>
#include <vector>

#include "common/assert.h"
#include "common/key.h"

// Best-effort cache-line prefetch (no-op off GCC/Clang).
#if defined(__GNUC__) || defined(__clang__)
#define D2_PREFETCH(addr) __builtin_prefetch(addr)
#else
#define D2_PREFETCH(addr) ((void)0)
#endif

namespace d2::store {

struct SortedKeyIndexTestPeer;

template <class Value>
class SortedKeyIndex {
 public:
  /// Chunks hold at most this many entries. 128 keys = two 4 KB pages of
  /// contiguous key data per chunk.
  static constexpr std::size_t kMaxChunk = 128;
  /// An overflowing chunk spills into a neighbour holding fewer entries
  /// than this (7/8 of kMaxChunk), and splits only when neither does.
  static constexpr std::size_t kSpillBelow = kMaxChunk / 8 * 7;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Entry slots allocated across all chunks (size() / capacity() is the
  /// index's fill).
  std::size_t capacity() const {
    std::size_t n = 0;
    for (const auto& c : chunks_) n += c->keys.capacity();
    return n;
  }

  /// Bytes allocated for the chunk arrays and the directory.
  std::size_t allocated_bytes() const {
    std::size_t n = last_.capacity() * sizeof(Key) +
                    chunks_.capacity() * sizeof(std::unique_ptr<Chunk>);
    for (const auto& c : chunks_) {
      n += sizeof(Chunk) + c->keys.capacity() * sizeof(Key) +
           c->vals.capacity() * sizeof(Value);
    }
    return n;
  }

  void clear() {
    chunks_.clear();
    last_.clear();
    size_ = 0;
    hint_ = 0;
  }

  bool contains(const Key& k) const { return find(k) != nullptr; }

  /// The entry with the smallest key >= k (lower_bound), or {nullptr,
  /// nullptr} when every stored key is < k. One binary search over the
  /// chunk directory plus one in-chunk binary search; no allocation.
  /// Pointers are invalidated by insert/erase like find()'s.
  struct Entry {
    const Key* key;
    Value* value;
  };
  Entry first_ge(const Key& k) {
    const std::size_t ci = chunk_for(k);
    if (ci == chunks_.size()) return {nullptr, nullptr};
    Chunk& c = *chunks_[ci];
    const std::size_t pos = lower_bound_in(c, k);
    // chunk_for guarantees this chunk's max key is >= k.
    D2_ASSERT(pos < c.keys.size());
    return {&c.keys[pos], &c.vals[pos]};
  }

  const Value* find(const Key& k) const {
    return const_cast<SortedKeyIndex*>(this)->find(k);
  }

  Value* find(const Key& k) {
    const std::size_t ci = chunk_for(k);
    if (ci == chunks_.size()) return nullptr;
    Chunk& c = *chunks_[ci];
    const std::size_t pos = lower_bound_in(c, k);
    if (pos == c.keys.size() || !(c.keys[pos] == k)) return nullptr;
    return &c.vals[pos];
  }

  /// Inserts a new key (REQUIREs it is absent) and returns its value slot.
  Value& insert(const Key& k, Value&& v) {
    if (chunks_.empty()) {
      chunks_.push_back(std::make_unique<Chunk>());
      last_.push_back(k);
      Chunk& c = *chunks_.back();
      c.keys.push_back(k);
      c.vals.push_back(std::move(v));
      ++size_;
      return c.vals.back();
    }
    std::size_t ci = chunk_for(k);
    if (ci == chunks_.size()) ci = chunks_.size() - 1;  // append past max
    std::size_t pos = lower_bound_in(*chunks_[ci], k);
    D2_REQUIRE_MSG(pos == chunks_[ci]->keys.size() ||
                       !(chunks_[ci]->keys[pos] == k),
                   "duplicate block key");
    if (pos == 0 && ci > 0) {
      // k falls between two chunks: append it to the lower one instead
      // of shifting the whole upper one, so an ascending run keeps
      // extending a chunk's tail.
      --ci;
      pos = chunks_[ci]->keys.size();
    }
    Chunk& c = *chunks_[ci];
    grow(c, c.keys.size() + 1);
    c.keys.insert(c.keys.begin() + static_cast<std::ptrdiff_t>(pos), k);
    c.vals.insert(c.vals.begin() + static_cast<std::ptrdiff_t>(pos),
                  std::move(v));
    if (pos == c.keys.size() - 1) last_[ci] = k;  // new chunk maximum
    ++size_;
    if (c.keys.size() > kMaxChunk) {
      relieve(ci);
      D2_PARANOID_AUDIT(if (audit_gate_.due(size_)) check_invariants());
      return *find(k);  // the entry may have moved to a neighbour
    }
    D2_PARANOID_AUDIT(if (audit_gate_.due(size_)) check_invariants());
    return c.vals[pos];
  }

  /// Removes a key (REQUIREs it is present).
  void erase(const Key& k) {
    const std::size_t ci = chunk_for(k);
    D2_REQUIRE_MSG(ci != chunks_.size(), "erasing unknown block");
    Chunk& c = *chunks_[ci];
    const std::size_t pos = lower_bound_in(c, k);
    D2_REQUIRE_MSG(pos != c.keys.size() && c.keys[pos] == k,
                   "erasing unknown block");
    c.keys.erase(c.keys.begin() + static_cast<std::ptrdiff_t>(pos));
    c.vals.erase(c.vals.begin() + static_cast<std::ptrdiff_t>(pos));
    --size_;
    if (c.keys.empty()) {
      chunks_.erase(chunks_.begin() + static_cast<std::ptrdiff_t>(ci));
      last_.erase(last_.begin() + static_cast<std::ptrdiff_t>(ci));
      if (hint_ > last_.size()) hint_ = 0;  // memo past the shrunk directory
    } else if (pos == c.keys.size()) {
      last_[ci] = c.keys.back();
    }
    D2_PARANOID_AUDIT(if (audit_gate_.due(size_)) check_invariants());
  }

  /// Removes every entry for which `pred(const Key&, Value&)` is true;
  /// returns how many were removed. One in-place compaction pass per
  /// chunk (no per-entry binary searches, no allocation), so bulk drops —
  /// the lookup cache's TTL sweep — are O(n) regardless of how many
  /// entries go.
  template <class Pred>
  std::size_t erase_if(Pred&& pred) {
    std::size_t dropped = 0;
    std::size_t ci = 0;
    while (ci < chunks_.size()) {
      Chunk& c = *chunks_[ci];
      std::size_t kept = 0;
      for (std::size_t i = 0; i < c.keys.size(); ++i) {
        if (pred(c.keys[i], c.vals[i])) {
          ++dropped;
          continue;
        }
        if (kept != i) {
          c.keys[kept] = c.keys[i];
          c.vals[kept] = std::move(c.vals[i]);
        }
        ++kept;
      }
      if (kept == 0) {
        chunks_.erase(chunks_.begin() + static_cast<std::ptrdiff_t>(ci));
        last_.erase(last_.begin() + static_cast<std::ptrdiff_t>(ci));
        continue;  // the next chunk slid into position ci
      }
      c.keys.resize(kept);
      c.vals.resize(kept);
      last_[ci] = c.keys.back();
      ++ci;
    }
    size_ -= dropped;
    if (hint_ > last_.size()) hint_ = 0;  // memo past the shrunk directory
    D2_PARANOID_AUDIT(check_invariants());
    return dropped;
  }

  /// Visits every entry in key order. `fn(const Key&, Value&)`.
  template <class Fn>
  void for_each(Fn&& fn) {
    for (const auto& c : chunks_) {
      for (std::size_t i = 0; i < c->keys.size(); ++i) fn(c->keys[i], c->vals[i]);
    }
  }

  /// Early-exit walk over the clockwise arc (from, to] (whole index when
  /// from == to, wrapping when from > to). `fn(const Key&, Value&)` returns
  /// false to stop; walk_in_arc returns false iff it was stopped.
  template <class Fn>
  bool walk_in_arc(const Key& from, const Key& to, Fn&& fn) {
    if (empty()) return true;
    if (from == to) return walk_all(fn);  // whole ring
    if (from < to) return walk_range(from, to, fn);
    // Wrapped arc: (from, MAX] then [MIN, to].
    if (!walk_range(from, Key::max(), fn)) return false;
    return walk_from_start(to, fn);
  }

  /// Visits every entry in the arc (no early exit).
  template <class Fn>
  void for_each_in_arc(const Key& from, const Key& to, Fn&& fn) {
    walk_in_arc(from, to, [&fn](const Key& k, Value& v) {
      fn(k, v);
      return true;
    });
  }

  /// Full-structure audit; throws InvariantError naming the violated
  /// invariant. Checks per-chunk strict sortedness, chunk occupancy and
  /// capacity bounds, directory consistency (last_[i] ==
  /// chunks_[i]->keys.back(), strictly increasing across chunks),
  /// parallel-array sync, the size counter and the locality memo's range.
  /// O(n); wired into insert/erase/erase_if in paranoid builds and
  /// callable from tests in any build.
  void check_invariants() const {
    D2_ASSERT_MSG(last_.size() == chunks_.size(),
                  "sorted index: directory size disagrees with chunk count");
    D2_ASSERT_MSG(hint_ <= last_.size(),
                  "sorted index: locality memo hint out of range");
    std::size_t total = 0;
    for (std::size_t ci = 0; ci < chunks_.size(); ++ci) {
      const Chunk& c = *chunks_[ci];
      D2_ASSERT_MSG(!c.keys.empty(), "sorted index: empty chunk");
      D2_ASSERT_MSG(c.keys.size() <= kMaxChunk, "sorted index: oversize chunk");
      D2_ASSERT_MSG(c.keys.capacity() <= kMaxChunk + 1 &&
                        c.vals.capacity() <= kMaxChunk + 1,
                    "sorted index: chunk capacity past kMaxChunk + 1");
      D2_ASSERT_MSG(c.keys.size() == c.vals.size(),
                    "sorted index: keys/vals arrays out of sync");
      for (std::size_t i = 1; i < c.keys.size(); ++i) {
        D2_ASSERT_MSG(c.keys[i - 1] < c.keys[i],
                      "sorted index: chunk not strictly sorted");
      }
      D2_ASSERT_MSG(last_[ci] == c.keys.back(),
                    "sorted index: directory max out of date");
      if (ci > 0) {
        D2_ASSERT_MSG(last_[ci - 1] < c.keys.front(),
                      "sorted index: chunk bounds not monotone");
      }
      total += c.keys.size();
    }
    D2_ASSERT_MSG(total == size_,
                  "sorted index: size counter disagrees with contents");
  }

 private:
  /// Corruption-injection hook for tests (tests/test_invariants.cc).
  friend struct SortedKeyIndexTestPeer;
  struct Chunk {
    std::vector<Key> keys;  // sorted
    std::vector<Value> vals;  // parallel to keys
  };

  /// Index of the first chunk whose max key is >= k (chunks_.size() when
  /// k is greater than every stored key). Binary search over the
  /// contiguous per-chunk maxima, short-circuited by a locality memo:
  /// consecutive operations usually target the same chunk (D2 keys are
  /// locality-preserving, so a client's next key tends to land beside
  /// the last one), and verifying the memoized chunk still covers `k`
  /// costs two key compares against the live directory — always correct,
  /// even right after an insert/erase reshaped the chunks.
  std::size_t chunk_for(const Key& k) const {
    if (hint_ < last_.size() && !(last_[hint_] < k) &&
        (hint_ == 0 || last_[hint_ - 1] < k)) {
      return hint_;
    }
    hint_ = static_cast<std::size_t>(
        std::lower_bound(last_.begin(), last_.end(), k) - last_.begin());
    return hint_;
  }

  static std::size_t lower_bound_in(const Chunk& c, const Key& k) {
    return static_cast<std::size_t>(
        std::lower_bound(c.keys.begin(), c.keys.end(), k) - c.keys.begin());
  }

  /// Makes room for `n` entries in `c`'s arrays, growing them
  /// geometrically but never past kMaxChunk + 1 (n never exceeds it).
  static void grow(Chunk& c, std::size_t n) {
    if (n <= c.keys.capacity()) return;
    const std::size_t cap =
        std::min(std::max(n, 2 * c.keys.capacity()), kMaxChunk + 1);
    c.keys.reserve(cap);
    c.vals.reserve(cap);
  }

  /// Brings chunk `ci`, just overflowed to kMaxChunk + 1 entries, back
  /// within kMaxChunk: evens it out with the next chunk, else the
  /// previous one, when that neighbour is under kSpillBelow entries;
  /// splits it in half when neither is. The overflowing chunk keeps the
  /// larger half of an odd total.
  void relieve(std::size_t ci) {
    const std::size_t n = chunks_[ci]->keys.size();
    if (ci + 1 < chunks_.size() &&
        chunks_[ci + 1]->keys.size() < kSpillBelow) {
      const std::size_t total = n + chunks_[ci + 1]->keys.size();
      spill_to_next(ci, n - (total + 1) / 2);
    } else if (ci > 0 && chunks_[ci - 1]->keys.size() < kSpillBelow) {
      const std::size_t prev = chunks_[ci - 1]->keys.size();
      spill_to_prev(ci, (n + prev) / 2 - prev);
    } else {
      split(ci);
    }
  }

  /// Moves chunk `ci`'s last `m` entries to the front of chunk ci + 1.
  void spill_to_next(std::size_t ci, std::size_t m) {
    Chunk& c = *chunks_[ci];
    Chunk& next = *chunks_[ci + 1];
    const auto from = static_cast<std::ptrdiff_t>(c.keys.size() - m);
    grow(next, next.keys.size() + m);
    next.keys.insert(next.keys.begin(), c.keys.begin() + from, c.keys.end());
    next.vals.insert(next.vals.begin(),
                     std::make_move_iterator(c.vals.begin() + from),
                     std::make_move_iterator(c.vals.end()));
    c.keys.erase(c.keys.begin() + from, c.keys.end());
    c.vals.erase(c.vals.begin() + from, c.vals.end());
    last_[ci] = c.keys.back();
  }

  /// Moves chunk `ci`'s first `m` entries to the back of chunk ci - 1.
  void spill_to_prev(std::size_t ci, std::size_t m) {
    Chunk& prev = *chunks_[ci - 1];
    Chunk& c = *chunks_[ci];
    const auto to = static_cast<std::ptrdiff_t>(m);
    grow(prev, prev.keys.size() + m);
    prev.keys.insert(prev.keys.end(), c.keys.begin(), c.keys.begin() + to);
    prev.vals.insert(prev.vals.end(), std::make_move_iterator(c.vals.begin()),
                     std::make_move_iterator(c.vals.begin() + to));
    c.keys.erase(c.keys.begin(), c.keys.begin() + to);
    c.vals.erase(c.vals.begin(), c.vals.begin() + to);
    last_[ci - 1] = prev.keys.back();
  }

  /// Splits chunk `ci` in half; the lower half stays in place.
  void split(std::size_t ci) {
    Chunk& c = *chunks_[ci];
    const std::size_t half = c.keys.size() / 2;
    auto upper = std::make_unique<Chunk>();
    upper->keys.assign(c.keys.begin() + static_cast<std::ptrdiff_t>(half),
                       c.keys.end());
    upper->vals.reserve(c.vals.size() - half);
    for (std::size_t i = half; i < c.vals.size(); ++i) {
      upper->vals.push_back(std::move(c.vals[i]));
    }
    c.keys.resize(half);
    c.vals.resize(half);
    last_.insert(last_.begin() + static_cast<std::ptrdiff_t>(ci) + 1,
                 upper->keys.back());
    last_[ci] = c.keys.back();
    chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(ci) + 1,
                   std::move(upper));
  }

  template <class Fn>
  bool walk_all(Fn&& fn) {
    for (std::size_t ci = 0; ci < chunks_.size(); ++ci) {
      Chunk& c = *chunks_[ci];
      if (ci + 1 < chunks_.size()) D2_PREFETCH(chunks_[ci + 1]->keys.data());
      for (std::size_t i = 0; i < c.keys.size(); ++i) {
        if (!fn(c.keys[i], c.vals[i])) return false;
      }
    }
    return true;
  }

  /// Walks keys in (from, to], from < to.
  template <class Fn>
  bool walk_range(const Key& from, const Key& to, Fn&& fn) {
    for (std::size_t ci = chunk_for(from); ci < chunks_.size(); ++ci) {
      Chunk& c = *chunks_[ci];
      // Pull the next chunk's key array while this one streams.
      if (ci + 1 < chunks_.size()) D2_PREFETCH(chunks_[ci + 1]->keys.data());
      // First key strictly greater than `from` (only relevant in the
      // first candidate chunk; later chunks start past it).
      std::size_t i = upper_bound_in(c, from);
      for (; i < c.keys.size(); ++i) {
        if (to < c.keys[i]) return true;
        if (!fn(c.keys[i], c.vals[i])) return false;
      }
    }
    return true;
  }

  /// Walks keys in [MIN, to].
  template <class Fn>
  bool walk_from_start(const Key& to, Fn&& fn) {
    for (const auto& cp : chunks_) {
      Chunk& c = *cp;
      for (std::size_t i = 0; i < c.keys.size(); ++i) {
        if (to < c.keys[i]) return true;
        if (!fn(c.keys[i], c.vals[i])) return false;
      }
    }
    return true;
  }

  static std::size_t upper_bound_in(const Chunk& c, const Key& k) {
    return static_cast<std::size_t>(
        std::upper_bound(c.keys.begin(), c.keys.end(), k) - c.keys.begin());
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;  // ordered by key range
  std::vector<Key> last_;  // last_[i] == chunks_[i]->keys.back()
  std::size_t size_ = 0;
  /// chunk_for's locality memo — a guess, revalidated on every use, so
  /// it never needs invalidating beyond clamping when the directory
  /// shrinks. Mutable: updating it from const point lookups is what makes
  /// read-heavy scans benefit. (Instances are not shared across threads;
  /// each trial owns its maps.)
  mutable std::size_t hint_ = 0;
  ParanoidGate audit_gate_;  // paces paranoid-build audits
};

}  // namespace d2::store
