// 512-bit DHT keys and ring arithmetic.
//
// D2 keys are 64 bytes (paper §4.2, Fig 4). Keys form a circular ID space
// of size 2^512; the node responsible for a key is the successor of the key
// on the ring. This class provides the lexicographic ordering that makes
// the locality-preserving encoding work (byte-wise big-endian comparison)
// plus the modular arithmetic the load balancer needs (distance, midpoint).
//
// Storage is eight native-endian uint64 limbs in big-endian *word order*
// (limbs_[0] is the most significant 64 bits), so comparison is at most 8
// word compares and +/-/half are carry-propagating word loops — the
// byte-oriented view of the Fig-4 encoding is preserved exactly through
// the bytes()/from_bytes() conversion shims. The hot operations are
// defined inline here because every ring lookup, replica placement and
// load-balance scan bottoms out in them.
#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>

namespace d2 {

class Rng;

class Key {
 public:
  static constexpr std::size_t kBytes = 64;
  static constexpr std::size_t kBits = kBytes * 8;
  static constexpr std::size_t kLimbs = 8;  // 64-bit words, big-endian order

  /// Zero key.
  constexpr Key() : limbs_{} {}

  /// Key from raw big-endian bytes (64 of them).
  static Key from_bytes(const std::array<std::uint8_t, kBytes>& b) {
    Key k;
    for (std::size_t i = 0; i < kLimbs; ++i) {
      k.limbs_[i] = load_be64(b.data() + 8 * i);
    }
    return k;
  }

  /// Key whose low 8 bytes are `v` (useful in tests).
  static Key from_uint64(std::uint64_t v) {
    Key k;
    k.limbs_[kLimbs - 1] = v;
    return k;
  }

  /// Key whose high 8 bytes are `v`, remaining limbs zero: the inverse of
  /// limb(0) for such keys.
  static Key from_high64(std::uint64_t v) {
    Key k;
    k.limbs_[0] = v;
    return k;
  }

  /// Uniformly random key.
  static Key random(Rng& rng);

  /// Smallest / largest keys.
  static Key min() { return Key{}; }
  static Key max() {
    Key k;
    k.limbs_.fill(~std::uint64_t{0});
    return k;
  }

  /// Big-endian byte view (conversion shim for the Fig-4 codec and trace
  /// I/O; returns by value — bind it to a local before taking iterators).
  std::array<std::uint8_t, kBytes> bytes() const {
    std::array<std::uint8_t, kBytes> b;
    for (std::size_t i = 0; i < kLimbs; ++i) {
      store_be64(b.data() + 8 * i, limbs_[i]);
    }
    return b;
  }

  /// The i-th most significant byte.
  std::uint8_t byte(std::size_t i) const {
    return static_cast<std::uint8_t>(limbs_[i >> 3] >> (8 * (7 - (i & 7))));
  }

  /// The i-th most significant 64-bit limb.
  std::uint64_t limb(std::size_t i) const { return limbs_[i]; }

  /// Low 8 bytes as an integer (inverse of from_uint64 for small keys).
  std::uint64_t low64() const { return limbs_[kLimbs - 1]; }

  /// Big-endian lexicographic comparison == numeric comparison. The
  /// relational operators are spelled out (rather than synthesized from
  /// <=>) so the hot `a < b` compiles to a bare limb-compare loop with no
  /// intermediate ordering value.
  std::strong_ordering operator<=>(const Key& o) const {
    for (std::size_t i = 0; i < kLimbs; ++i) {
      if (limbs_[i] != o.limbs_[i]) {
        return limbs_[i] < o.limbs_[i] ? std::strong_ordering::less
                                       : std::strong_ordering::greater;
      }
    }
    return std::strong_ordering::equal;
  }
  bool operator<(const Key& o) const {
    for (std::size_t i = 0; i < kLimbs; ++i) {
      if (limbs_[i] != o.limbs_[i]) return limbs_[i] < o.limbs_[i];
    }
    return false;
  }
  bool operator>(const Key& o) const { return o < *this; }
  bool operator<=(const Key& o) const { return !(o < *this); }
  bool operator>=(const Key& o) const { return !(*this < o); }
  bool operator==(const Key& o) const { return limbs_ == o.limbs_; }

  /// this + o (mod 2^512).
  Key operator+(const Key& o) const {
    Key r;
#if defined(__SIZEOF_INT128__)
    unsigned __int128 acc = 0;
    for (int i = static_cast<int>(kLimbs) - 1; i >= 0; --i) {
      acc += limbs_[i];
      acc += o.limbs_[i];
      r.limbs_[i] = static_cast<std::uint64_t>(acc);
      acc >>= 64;
    }
#else
    std::uint64_t carry = 0;
    for (int i = static_cast<int>(kLimbs) - 1; i >= 0; --i) {
      const std::uint64_t s = limbs_[i] + o.limbs_[i];
      const std::uint64_t c1 = static_cast<std::uint64_t>(s < limbs_[i]);
      r.limbs_[i] = s + carry;
      carry = c1 | static_cast<std::uint64_t>(r.limbs_[i] < s);
    }
#endif
    return r;
  }

  /// this - o (mod 2^512).
  Key operator-(const Key& o) const {
    Key r;
#if defined(__SIZEOF_INT128__)
    std::uint64_t borrow = 0;
    for (int i = static_cast<int>(kLimbs) - 1; i >= 0; --i) {
      const unsigned __int128 d = static_cast<unsigned __int128>(limbs_[i]) -
                                  o.limbs_[i] - borrow;
      r.limbs_[i] = static_cast<std::uint64_t>(d);
      borrow = static_cast<std::uint64_t>(d >> 64) & 1;
    }
#else
    std::uint64_t borrow = 0;
    for (int i = static_cast<int>(kLimbs) - 1; i >= 0; --i) {
      const std::uint64_t d = limbs_[i] - o.limbs_[i];
      const std::uint64_t b1 = static_cast<std::uint64_t>(limbs_[i] < o.limbs_[i]);
      r.limbs_[i] = d - borrow;
      borrow = b1 | static_cast<std::uint64_t>(d < borrow);
    }
#endif
    return r;
  }

  /// this >> 1.
  Key half() const {
    Key r;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < kLimbs; ++i) {
      r.limbs_[i] = (limbs_[i] >> 1) | (carry << 63);
      carry = limbs_[i] & 1;
    }
    return r;
  }

  /// this + 1 (mod 2^512).
  Key next() const {
    Key r = *this;
    for (int i = static_cast<int>(kLimbs) - 1; i >= 0; --i) {
      if (++r.limbs_[i] != 0) break;  // no carry out of this limb
    }
    return r;
  }

  /// Clockwise distance from `from` to `to` on the ring: (to - from) mod 2^512.
  static Key distance(const Key& from, const Key& to) { return to - from; }

  /// Point halfway along the clockwise arc from `from` to `to`.
  static Key midpoint(const Key& from, const Key& to) {
    return from + distance(from, to).half();
  }

  /// True iff `k` lies in the clockwise half-open arc (from, to].
  /// This is the "key k is owned by the successor node" test: node with ID
  /// `to` owns (predecessor_id, to]. When from == to, the arc is the whole
  /// ring (a single node owns everything).
  static bool in_arc(const Key& k, const Key& from, const Key& to) {
    if (from == to) return true;  // whole ring
    if (from < to) return from < k && k <= to;
    // Arc wraps through zero.
    return k > from || k <= to;
  }

  /// Hex string (128 chars). `short_form` gives the first 8 chars.
  std::string hex() const;
  std::string short_hex() const;

  /// Fraction of the ring in [0, 1) this key sits at (top 64 bits).
  double ring_position() const;

 private:
  static std::uint64_t load_be64(const std::uint8_t* p) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    if constexpr (std::endian::native == std::endian::little) {
      w = byteswap64(w);
    }
    return w;
  }
  static void store_be64(std::uint8_t* p, std::uint64_t w) {
    if constexpr (std::endian::native == std::endian::little) {
      w = byteswap64(w);
    }
    std::memcpy(p, &w, 8);
  }
  static std::uint64_t byteswap64(std::uint64_t w) {
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_bswap64(w);
#else
    w = ((w & 0x00ff00ff00ff00ffull) << 8) | ((w >> 8) & 0x00ff00ff00ff00ffull);
    w = ((w & 0x0000ffff0000ffffull) << 16) |
        ((w >> 16) & 0x0000ffff0000ffffull);
    return (w << 32) | (w >> 32);
#endif
  }

  // limbs_[0] holds bytes [0, 8) of the big-endian byte view (the most
  // significant word), limbs_[7] holds bytes [56, 64).
  std::array<std::uint64_t, kLimbs> limbs_;
};

std::ostream& operator<<(std::ostream& os, const Key& k);

/// Hash for Key-keyed tables: one multiply per limb, then the splitmix64
/// finalizer so every input bit reaches the low (bucket-index) bits.
/// Values are not stable across versions and must never reach an
/// output: every user does keyed find/insert/erase only.
struct KeyHash {
  std::size_t operator()(const Key& k) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < Key::kLimbs; ++i) {
      h = (h ^ k.limb(i)) * 0xff51afd7ed558ccdull;
    }
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    return static_cast<std::size_t>(h);
  }
};

}  // namespace d2
