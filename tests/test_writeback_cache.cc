#include "fs/writeback_cache.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"

namespace d2::fs {
namespace {

Key K(std::uint64_t v) { return Key::from_uint64(v); }

/// Reference write-back cache: the ordered-map / hash-map / fat-heap
/// layout that preceded the slot table, kept as the executable spec the
/// production cache must match answer for answer and op for op. Dirty
/// puts sit in a std::map (so flush_all walks key order), clean entries
/// in an unordered_map, and every heap entry carries its whole key.
class ReferenceWritebackCache {
 public:
  explicit ReferenceWritebackCache(SimTime ttl) : ttl_(ttl) {}

  void stage_put(const Key& key, Bytes size, SimTime now,
                 std::optional<Key> remove_on_flush) {
    D2_REQUIRE(dirty_.count(key) == 0);
    dirty_.emplace(key, Pending{size, now, remove_on_flush});
    heap_.push(HeapEntry{now + ttl_, key, true});
  }

  bool has_pending(const Key& key) const { return dirty_.count(key) > 0; }

  void touch_put(const Key& key, Bytes size, SimTime now) {
    auto it = dirty_.find(key);
    D2_REQUIRE(it != dirty_.end());
    it->second.size = size;
    it->second.since = now;
    heap_.push(HeapEntry{now + ttl_, key, true});
  }

  std::optional<Key> cancel_put(const Key& key) {
    auto it = dirty_.find(key);
    D2_REQUIRE(it != dirty_.end());
    std::optional<Key> remove_old = it->second.remove_on_flush;
    dirty_.erase(it);
    return remove_old;
  }

  bool is_fresh(const Key& key, SimTime now) const {
    if (dirty_.count(key) > 0) return true;
    auto it = clean_.find(key);
    return it != clean_.end() && now - it->second < ttl_;
  }

  void mark_clean(const Key& key, SimTime now) {
    clean_[key] = now;
    heap_.push(HeapEntry{now + ttl_, key, false});
  }

  void collect_expired(SimTime now, std::vector<StoreOp>& out) {
    while (!heap_.empty() && heap_.top().expires <= now) {
      const HeapEntry top = heap_.top();
      heap_.pop();
      if (top.dirty_heap) {
        auto it = dirty_.find(top.key);
        if (it == dirty_.end()) continue;
        const SimTime real_expiry = it->second.since + ttl_;
        if (real_expiry > now) continue;
        flush_entry(top.key, it->second, out);
        clean_[top.key] = real_expiry;
        heap_.push(HeapEntry{real_expiry + ttl_, top.key, false});
        dirty_.erase(it);
      } else {
        auto it = clean_.find(top.key);
        if (it == clean_.end()) continue;
        if (it->second + ttl_ > now) continue;
        clean_.erase(it);
      }
    }
  }

  void flush_all(SimTime now, std::vector<StoreOp>& out) {
    for (const auto& [key, pending] : dirty_) {
      flush_entry(key, pending, out);
      clean_[key] = now;
      heap_.push(HeapEntry{now + ttl_, key, false});
    }
    dirty_.clear();
  }

  std::size_t pending_puts() const { return dirty_.size(); }

 private:
  struct Pending {
    Bytes size;
    SimTime since;
    std::optional<Key> remove_on_flush;
  };
  struct HeapEntry {
    SimTime expires;
    Key key;
    bool dirty_heap;
    bool operator>(const HeapEntry& o) const { return expires > o.expires; }
  };
  static_assert(sizeof(HeapEntry) == 80);

  static void flush_entry(const Key& key, const Pending& p,
                          std::vector<StoreOp>& out) {
    out.push_back(StoreOp{StoreOp::Kind::kPut, key, p.size});
    if (p.remove_on_flush) {
      out.push_back(StoreOp{StoreOp::Kind::kRemove, *p.remove_on_flush, 0});
    }
  }

  SimTime ttl_;
  std::map<Key, Pending> dirty_;
  std::unordered_map<Key, SimTime, KeyHash> clean_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap_;
};

/// The production cache and the reference, driven in lockstep. Every
/// mutation goes to both; check() compares the emitted op streams and
/// every observable answer for the given keys.
class Lockstep {
 public:
  explicit Lockstep(SimTime ttl) : ref_(ttl), cache_(ttl) {}

  void stage(const Key& k, Bytes size, SimTime now, std::optional<Key> rm) {
    ref_.stage_put(k, size, now, rm);
    cache_.stage_put(k, size, now, rm);
  }
  void touch(const Key& k, Bytes size, SimTime now) {
    ref_.touch_put(k, size, now);
    cache_.touch_put(k, size, now);
  }
  void cancel(const Key& k) {
    EXPECT_EQ(ref_.cancel_put(k), cache_.cancel_put(k));
  }
  /// The read path: fetch (mark clean) unless the block is fresh.
  void read(const Key& k, SimTime now) {
    const bool fresh = ref_.is_fresh(k, now);
    ASSERT_EQ(fresh, cache_.is_fresh(k, now));
    if (fresh) return;
    ref_.mark_clean(k, now);
    cache_.mark_clean(k, now);
  }
  void mark_clean(const Key& k, SimTime now) {
    ref_.mark_clean(k, now);
    cache_.mark_clean(k, now);
  }
  void collect(SimTime now) {
    ref_.collect_expired(now, ref_out_);
    cache_.collect_expired(now, out_);
  }
  void flush_all(SimTime now) {
    ref_.flush_all(now, ref_out_);
    cache_.flush_all(now, out_);
  }
  bool has_pending(const Key& k) const {
    const bool pending = ref_.has_pending(k);
    EXPECT_EQ(pending, cache_.has_pending(k));
    return pending;
  }

  void check(const std::vector<Key>& keys, SimTime now) const {
    ASSERT_EQ(ref_out_, out_);
    ASSERT_EQ(ref_.pending_puts(), cache_.pending_puts());
    for (const Key& k : keys) {
      ASSERT_EQ(ref_.is_fresh(k, now), cache_.is_fresh(k, now))
          << "key " << k.low64() << " at t=" << now;
      ASSERT_EQ(ref_.has_pending(k), cache_.has_pending(k));
    }
  }

  const std::vector<StoreOp>& ops() const { return out_; }

 private:
  ReferenceWritebackCache ref_;
  WritebackCache cache_;
  std::vector<StoreOp> ref_out_;
  std::vector<StoreOp> out_;
};

TEST(WritebackCache, FlushesAfterTtl) {
  WritebackCache c(seconds(30));
  c.stage_put(K(1), 100, 0, std::nullopt);
  std::vector<StoreOp> out;
  c.collect_expired(seconds(29), out);
  EXPECT_TRUE(out.empty());
  c.collect_expired(seconds(30), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, StoreOp::Kind::kPut);
  EXPECT_EQ(out[0].key, K(1));
  EXPECT_EQ(out[0].size, 100);
  EXPECT_EQ(c.pending_puts(), 0u);
}

TEST(WritebackCache, TouchDelaysFlush) {
  WritebackCache c(seconds(30));
  c.stage_put(K(1), 100, 0, std::nullopt);
  c.touch_put(K(1), 150, seconds(20));
  std::vector<StoreOp> out;
  c.collect_expired(seconds(35), out);
  EXPECT_TRUE(out.empty());  // refreshed at t=20; flushes at t=50
  c.collect_expired(seconds(50), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].size, 150);  // latest size wins
}

TEST(WritebackCache, FlushEmitsRemoveOfOldVersion) {
  WritebackCache c(seconds(30));
  c.stage_put(K(2), 100, 0, K(1));
  std::vector<StoreOp> out;
  c.collect_expired(seconds(30), out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].kind, StoreOp::Kind::kPut);
  EXPECT_EQ(out[0].key, K(2));
  EXPECT_EQ(out[1].kind, StoreOp::Kind::kRemove);
  EXPECT_EQ(out[1].key, K(1));
}

TEST(WritebackCache, CancelAbsorbsTemporaryFile) {
  // A file created and deleted within the window never touches the store.
  WritebackCache c(seconds(30));
  c.stage_put(K(1), 100, 0, std::nullopt);
  const auto old = c.cancel_put(K(1));
  EXPECT_FALSE(old.has_value());
  std::vector<StoreOp> out;
  c.collect_expired(seconds(60), out);
  EXPECT_TRUE(out.empty());
}

TEST(WritebackCache, CancelReturnsCommittedPredecessor) {
  WritebackCache c(seconds(30));
  c.stage_put(K(2), 100, 0, K(1));
  const auto old = c.cancel_put(K(2));
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(*old, K(1));
}

TEST(WritebackCache, FreshnessForDirtyAndClean) {
  WritebackCache c(seconds(30));
  c.stage_put(K(1), 100, 0, std::nullopt);
  EXPECT_TRUE(c.is_fresh(K(1), seconds(5)));  // dirty data is in memory
  c.mark_clean(K(2), 0);
  EXPECT_TRUE(c.is_fresh(K(2), seconds(29)));
  EXPECT_FALSE(c.is_fresh(K(2), seconds(30)));
  EXPECT_FALSE(c.is_fresh(K(3), 0));
}

TEST(WritebackCache, FlushedBlockStaysReadable) {
  WritebackCache c(seconds(30));
  c.stage_put(K(1), 100, 0, std::nullopt);
  std::vector<StoreOp> out;
  c.collect_expired(seconds(30), out);
  // Just-written data is still in the buffer cache.
  EXPECT_TRUE(c.is_fresh(K(1), seconds(31)));
}

TEST(WritebackCache, FlushAllIgnoresAge) {
  WritebackCache c(seconds(30));
  c.stage_put(K(1), 100, 0, std::nullopt);
  c.stage_put(K(2), 200, seconds(1), K(9));
  std::vector<StoreOp> out;
  c.flush_all(seconds(2), out);
  EXPECT_EQ(out.size(), 3u);  // two puts + one remove
  EXPECT_EQ(c.pending_puts(), 0u);
}

TEST(WritebackCache, DoubleStageThrows) {
  WritebackCache c(seconds(30));
  c.stage_put(K(1), 100, 0, std::nullopt);
  EXPECT_THROW(c.stage_put(K(1), 100, 0, std::nullopt), PreconditionError);
}

TEST(WritebackCache, TouchWithoutStageThrows) {
  WritebackCache c(seconds(30));
  EXPECT_THROW(c.touch_put(K(1), 100, 0), PreconditionError);
  EXPECT_THROW(c.cancel_put(K(1)), PreconditionError);
}

TEST(WritebackCache, ManyBlocksFlushInExpiryOrder) {
  WritebackCache c(seconds(30));
  for (std::uint64_t i = 0; i < 10; ++i) {
    c.stage_put(K(i), 8, static_cast<SimTime>(i) * seconds(1), std::nullopt);
  }
  std::vector<StoreOp> out;
  c.collect_expired(seconds(34), out);  // entries staged at t=0..4 expire
  EXPECT_EQ(out.size(), 5u);
  EXPECT_EQ(c.pending_puts(), 5u);
}

TEST(WritebackCache, CleanEntriesExpireFromHeap) {
  WritebackCache c(seconds(30));
  c.mark_clean(K(1), 0);
  std::vector<StoreOp> out;
  c.collect_expired(seconds(31), out);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(c.is_fresh(K(1), seconds(31)));
}

// ----------------------------------------------- reference differential --

TEST(WritebackCacheReference, CancelledAndRestagedKeyWithStaleHeapEntries) {
  // K(1) is staged and touched (two queued entries), cancelled, and
  // re-staged before either entry pops: the stale entries must see the
  // new staging, exactly as the key-addressed reference does, and other
  // keys expiring in between must keep their place in the op stream.
  const SimTime ttl = seconds(30);
  Lockstep c(ttl);
  const std::vector<Key> keys = {K(1), K(2), K(3), K(9)};
  c.stage(K(1), 100, 0, K(9));
  c.touch(K(1), 110, seconds(1));
  c.stage(K(2), 200, seconds(2), std::nullopt);
  c.cancel(K(1));
  c.stage(K(1), 120, seconds(3), std::nullopt);
  c.stage(K(3), 300, seconds(3), std::nullopt);
  for (SimTime t = 0; t <= seconds(70); t += seconds(1)) {
    c.collect(t);
    c.check(keys, t);
  }
  // Same situation, but the re-staged put has already expired when the
  // stale entries pop: the first stale entry flushes it.
  c.stage(K(1), 130, seconds(100), std::nullopt);
  c.touch(K(1), 140, seconds(101));
  c.cancel(K(1));
  c.stage(K(2), 210, seconds(102), std::nullopt);
  c.stage(K(1), 150, seconds(102), K(3));
  c.collect(seconds(200));
  c.check(keys, seconds(200));
  const std::vector<StoreOp>& ops = c.ops();
  ASSERT_GE(ops.size(), 3u);
  // Both puts are due at t=132, but K(1)'s stale entry (t=130) pops
  // first and flushes it ahead of K(2).
  EXPECT_EQ(ops[ops.size() - 3].key, K(1));
  EXPECT_EQ(ops[ops.size() - 2].key, K(3));  // its predecessor's remove
  EXPECT_EQ(ops[ops.size() - 1].key, K(2));
}

TEST(WritebackCacheReference, ExpiredCleanKeyReadAgainWithStaleHeapEntries) {
  const SimTime ttl = seconds(30);
  Lockstep c(ttl);
  const std::vector<Key> keys = {K(1), K(2), K(5)};
  // A read block expires, is read again before its entry pops, then read
  // once more while both entries are still queued.
  c.read(K(1), 0);
  c.read(K(2), seconds(5));
  c.read(K(1), seconds(31));
  c.read(K(1), seconds(40));
  c.check(keys, seconds(40));
  for (SimTime t = seconds(40); t <= seconds(120); t += seconds(1)) {
    c.collect(t);
    c.check(keys, t);
    if (t == seconds(75)) c.read(K(1), t);
  }
  // A flushed block (clean as of its commit) expires and is read again
  // while its clean entry is still queued, then re-staged.
  c.stage(K(5), 500, seconds(200), std::nullopt);
  c.collect(seconds(230));
  c.check(keys, seconds(230));
  c.read(K(5), seconds(265));
  c.stage(K(5), 510, seconds(266), std::nullopt);
  for (SimTime t = seconds(266); t <= seconds(400); t += seconds(7)) {
    c.collect(t);
    c.check(keys, t);
  }
}

TEST(WritebackCacheReference, SeededRandomSequencesMatchReference) {
  // Few keys and a short TTL, with most steps at an unchanged clock, so
  // expiries collide and keys cycle through dirty, clean, cancelled and
  // re-staged while stale heap entries are queued.
  constexpr SimTime kTtl = 5;
  std::vector<Key> keys;
  for (std::uint64_t i = 0; i < 12; ++i) keys.push_back(K(i * 7919));
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Lockstep c(kTtl);
    SimTime now = 0;
    for (int step = 0; step < 3000; ++step) {
      static constexpr SimTime kAdvance[] = {0, 0, 0, 0, 1, 1, 2, 4, 5, 9};
      now += kAdvance[rng.next_below(10)];
      const Key& k = keys[rng.next_below(keys.size())];
      const auto size = static_cast<Bytes>(rng.next_below(1000));
      switch (rng.next_below(12)) {
        case 0:
        case 1:
        case 2:
          if (c.has_pending(k)) {
            c.touch(k, size, now);
          } else {
            std::optional<Key> rm;
            if (rng.bernoulli(0.5)) rm = keys[rng.next_below(keys.size())];
            c.stage(k, size, now, rm);
          }
          break;
        case 3:
          if (c.has_pending(k)) c.cancel(k);
          break;
        case 4:
        case 5:
        case 6:
          c.read(k, now);
          break;
        case 7:
          if (!c.has_pending(k)) c.mark_clean(k, now);
          break;
        case 8:
          if (rng.bernoulli(0.1)) c.flush_all(now);
          break;
        default:
          c.collect(now);
          break;
      }
      c.check(keys, now);
      if (::testing::Test::HasFatalFailure()) return;
    }
    c.collect(now + 10 * kTtl);
    c.check(keys, now + 10 * kTtl);
  }
}

TEST(WritebackCacheReference, PredecessorChurnMatchesReference) {
  // Most puts are staged with a predecessor (a fresh key, or one of the
  // cached keys), and some without, so a key whose last put had one is
  // staged again without it. Stages, touches, cancels, age flushes and
  // flush_all churn over few keys with a short TTL, so predecessor
  // entries are freed by cancels and by both kinds of flush and taken
  // again by later stages in every order. The reference keeps each
  // predecessor with its put; the two must emit the same removes and
  // return the same keys from cancel_put.
  constexpr SimTime kTtl = 5;
  std::vector<Key> keys;
  for (std::uint64_t i = 0; i < 16; ++i) keys.push_back(K(i * 104729));
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Lockstep c(kTtl);
    SimTime now = 0;
    std::uint64_t next_pred = 1'000'000;
    for (int step = 0; step < 4000; ++step) {
      static constexpr SimTime kAdvance[] = {0, 0, 0, 1, 1, 2, 3, 6};
      now += kAdvance[rng.next_below(8)];
      const Key& k = keys[rng.next_below(keys.size())];
      const auto size = static_cast<Bytes>(rng.next_below(1000));
      switch (rng.next_below(10)) {
        case 0:
        case 1:
        case 2:
          if (c.has_pending(k)) {
            c.touch(k, size, now);
          } else {
            std::optional<Key> pred;
            const std::uint64_t kind = rng.next_below(10);
            if (kind < 7) {
              pred = K(next_pred++);
            } else if (kind < 9) {
              pred = keys[rng.next_below(keys.size())];
            }
            c.stage(k, size, now, pred);
          }
          break;
        case 3:
        case 4:
          if (c.has_pending(k)) c.cancel(k);
          break;
        case 5:
          c.read(k, now);
          break;
        case 6:
          if (rng.bernoulli(0.05)) c.flush_all(now);
          break;
        default:
          c.collect(now);
          break;
      }
      c.check(keys, now);
      if (::testing::Test::HasFatalFailure()) return;
    }
    c.flush_all(now);
    c.collect(now + 10 * kTtl);
    c.check(keys, now + 10 * kTtl);
  }
}

}  // namespace
}  // namespace d2::fs
