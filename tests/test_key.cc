#include "common/key.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fs/key_encoding.h"

namespace d2 {
namespace {

TEST(Key, DefaultIsZero) {
  Key k;
  EXPECT_EQ(k, Key::min());
  EXPECT_EQ(k.low64(), 0u);
}

TEST(Key, FromUint64RoundTrips) {
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{255}, std::uint64_t{65536}, UINT64_MAX}) {
    EXPECT_EQ(Key::from_uint64(v).low64(), v);
  }
}

TEST(Key, ComparisonMatchesInteger) {
  EXPECT_LT(Key::from_uint64(1), Key::from_uint64(2));
  EXPECT_LT(Key::from_uint64(255), Key::from_uint64(256));
  EXPECT_GT(Key::max(), Key::from_uint64(UINT64_MAX));
  EXPECT_EQ(Key::from_uint64(42), Key::from_uint64(42));
}

TEST(Key, AdditionSmallValues) {
  EXPECT_EQ(Key::from_uint64(3) + Key::from_uint64(4), Key::from_uint64(7));
}

TEST(Key, AdditionCarriesAcrossBytes) {
  EXPECT_EQ(Key::from_uint64(255) + Key::from_uint64(1), Key::from_uint64(256));
  // Carry across the 8-byte boundary of low64.
  Key sum = Key::from_uint64(UINT64_MAX) + Key::from_uint64(1);
  EXPECT_EQ(sum.low64(), 0u);
  EXPECT_EQ(sum.byte(Key::kBytes - 9), 1);
}

TEST(Key, SubtractionInverts) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    Key a = Key::random(rng);
    Key b = Key::random(rng);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a - b) + b, a);
  }
}

TEST(Key, SubtractionWrapsModulo) {
  // 0 - 1 == MAX.
  EXPECT_EQ(Key::min() - Key::from_uint64(1), Key::max());
}

TEST(Key, MaxPlusOneWrapsToZero) {
  EXPECT_EQ(Key::max() + Key::from_uint64(1), Key::min());
  EXPECT_EQ(Key::max().next(), Key::min());
}

TEST(Key, HalfShiftsRight) {
  EXPECT_EQ(Key::from_uint64(8).half(), Key::from_uint64(4));
  EXPECT_EQ(Key::from_uint64(9).half(), Key::from_uint64(4));
  // Shifting max gives 0x7f top byte.
  EXPECT_EQ(Key::max().half().byte(0), 0x7f);
}

TEST(Key, DistanceIsClockwise) {
  Key a = Key::from_uint64(10);
  Key b = Key::from_uint64(30);
  EXPECT_EQ(Key::distance(a, b), Key::from_uint64(20));
  // Wrapping distance: from 30 to 10 goes nearly all the way around.
  Key wrap = Key::distance(b, a);
  EXPECT_EQ(wrap + Key::from_uint64(20), Key::min());
}

TEST(Key, MidpointBetween) {
  Key mid = Key::midpoint(Key::from_uint64(10), Key::from_uint64(20));
  EXPECT_EQ(mid, Key::from_uint64(15));
}

TEST(Key, MidpointOfWrappingArc) {
  // Arc from MAX-9 to 10 has length 20, midpoint at (MAX-9)+10 = 0.
  Key from = Key::max() - Key::from_uint64(9);
  Key mid = Key::midpoint(from, Key::from_uint64(10));
  EXPECT_EQ(mid, Key::min());
}

TEST(Key, InArcBasic) {
  Key a = Key::from_uint64(10);
  Key b = Key::from_uint64(20);
  EXPECT_FALSE(Key::in_arc(Key::from_uint64(10), a, b));  // exclusive start
  EXPECT_TRUE(Key::in_arc(Key::from_uint64(11), a, b));
  EXPECT_TRUE(Key::in_arc(Key::from_uint64(20), a, b));  // inclusive end
  EXPECT_FALSE(Key::in_arc(Key::from_uint64(21), a, b));
}

TEST(Key, InArcWrapping) {
  Key a = Key::from_uint64(100);
  Key b = Key::from_uint64(5);
  EXPECT_TRUE(Key::in_arc(Key::from_uint64(101), a, b));
  EXPECT_TRUE(Key::in_arc(Key::max(), a, b));
  EXPECT_TRUE(Key::in_arc(Key::min(), a, b));
  EXPECT_TRUE(Key::in_arc(Key::from_uint64(5), a, b));
  EXPECT_FALSE(Key::in_arc(Key::from_uint64(6), a, b));
  EXPECT_FALSE(Key::in_arc(Key::from_uint64(100), a, b));
}

TEST(Key, InArcFullRing) {
  Key a = Key::from_uint64(10);
  EXPECT_TRUE(Key::in_arc(Key::from_uint64(999), a, a));
  EXPECT_TRUE(Key::in_arc(Key::min(), a, a));
}

TEST(Key, RandomKeysDistinct) {
  Rng rng(1);
  Key a = Key::random(rng);
  Key b = Key::random(rng);
  EXPECT_NE(a, b);
}

TEST(Key, HexFormat) {
  EXPECT_EQ(Key::min().hex(), std::string(128, '0'));
  EXPECT_EQ(Key::max().short_hex(), "ffffffff");
  EXPECT_EQ(Key::from_uint64(0xab).hex().substr(126), "ab");
}

TEST(Key, RingPositionSpansUnitInterval) {
  EXPECT_DOUBLE_EQ(Key::min().ring_position(), 0.0);
  EXPECT_GT(Key::max().ring_position(), 0.9999);
  Rng rng(3);
  double sum = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) sum += Key::random(rng).ring_position();
  EXPECT_NEAR(sum / n, 0.5, 0.05);
}

TEST(Key, HashDistinguishes) {
  KeyHash h;
  EXPECT_NE(h(Key::from_uint64(1)), h(Key::from_uint64(2)));
}

TEST(Key, HashSpreadsOneVolumesKeysOverLinearProbing) {
  // 2^16 keys of one volume, laid out as Fig-4 block keys: a shared
  // 20-byte volume prefix and path, consecutive block numbers, and
  // consecutive versions of each block. Inserted into a 2^17-bucket
  // linear-probing table (the client caches' layout at its maximum load),
  // no probe run may grow long.
  constexpr std::size_t kBuckets = std::size_t{1} << 17;
  const fs::VolumeId volume = fs::make_volume_id("home/u1");
  fs::EncodedPath path;
  path = fs::extend_path(path, 3, "docs");
  path = fs::extend_path(path, 7, "big.dat");
  std::vector<char> used(kBuckets, 0);
  std::size_t longest = 0;
  const KeyHash h;
  for (std::uint64_t block = 0; block < (1u << 14); ++block) {
    for (std::uint32_t version = 1; version <= 4; ++version) {
      const Key k = fs::encode_block_key(volume, path, fs::BlockType::kData,
                                         block, version);
      std::size_t pos = h(k) & (kBuckets - 1);
      std::size_t run = 1;
      while (used[pos] != 0) {
        pos = (pos + 1) & (kBuckets - 1);
        ++run;
      }
      used[pos] = 1;
      longest = std::max(longest, run);
    }
  }
  EXPECT_LE(longest, 32u);
}

// Property sweep: midpoint lies inside the arc and splits it into halves
// whose sizes differ by at most one.
class KeyMidpointProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KeyMidpointProperty, MidpointInsideArc) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    Key a = Key::random(rng);
    Key b = Key::random(rng);
    if (a == b) continue;
    Key mid = Key::midpoint(a, b);
    EXPECT_TRUE(Key::in_arc(mid, a, b) || mid == a)
        << "a=" << a.hex() << " b=" << b.hex();
    // dist(a, mid) + dist(mid, b) == dist(a, b)
    Key d1 = Key::distance(a, mid);
    Key d2 = Key::distance(mid, b);
    EXPECT_EQ(d1 + d2, Key::distance(a, b));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyMidpointProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 99, 12345));

// Property sweep: in_arc is consistent with distance ordering.
class KeyArcProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KeyArcProperty, InArcMatchesDistance) {
  Rng rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    Key from = Key::random(rng);
    Key to = Key::random(rng);
    Key k = Key::random(rng);
    if (from == to) continue;
    // k in (from, to] iff 0 < dist(from, k) <= dist(from, to).
    const bool expected = Key::distance(from, k) <= Key::distance(from, to) &&
                          !(k == from);
    EXPECT_EQ(Key::in_arc(k, from, to), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyArcProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

// --- differential tests: limb arithmetic vs a byte-wise reference ---
//
// Key stores eight uint64 limbs; these checks pin its arithmetic to the
// straightforward big-endian byte-loop implementation it replaced.

using ByteArray = std::array<std::uint8_t, Key::kBytes>;

ByteArray ref_add(const ByteArray& a, const ByteArray& b) {
  ByteArray out{};
  int carry = 0;
  for (std::size_t i = Key::kBytes; i-- > 0;) {
    const int s = int{a[i]} + int{b[i]} + carry;
    out[i] = static_cast<std::uint8_t>(s & 0xff);
    carry = s >> 8;
  }
  return out;
}

ByteArray ref_sub(const ByteArray& a, const ByteArray& b) {
  ByteArray out{};
  int borrow = 0;
  for (std::size_t i = Key::kBytes; i-- > 0;) {
    int d = int{a[i]} - int{b[i]} - borrow;
    borrow = d < 0 ? 1 : 0;
    if (d < 0) d += 256;
    out[i] = static_cast<std::uint8_t>(d);
  }
  return out;
}

ByteArray ref_half(const ByteArray& a) {
  ByteArray out{};
  int carry = 0;
  for (std::size_t i = 0; i < Key::kBytes; ++i) {
    out[i] = static_cast<std::uint8_t>((a[i] >> 1) | (carry << 7));
    carry = a[i] & 1;
  }
  return out;
}

ByteArray ref_next(const ByteArray& a) {
  ByteArray out = a;
  for (std::size_t i = Key::kBytes; i-- > 0;) {
    if (++out[i] != 0) break;
  }
  return out;
}

int ref_compare(const ByteArray& a, const ByteArray& b) {
  for (std::size_t i = 0; i < Key::kBytes; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

/// Interesting values around limb boundaries plus random keys.
std::vector<Key> differential_corpus(std::uint64_t seed) {
  std::vector<Key> keys = {Key::min(), Key::max(), Key::from_uint64(1),
                           Key::from_uint64(UINT64_MAX)};
  // All-ones / lone-one patterns at each of the eight limb boundaries.
  for (std::size_t limb = 0; limb < Key::kLimbs; ++limb) {
    ByteArray ones{}, lone{};
    for (std::size_t i = 0; i <= limb; ++i) {
      for (std::size_t b = 0; b < 8; ++b) {
        ones[(Key::kLimbs - 1 - i) * 8 + b] = 0xff;
      }
    }
    lone[limb * 8 + 7] = 1;  // lowest byte of limb `limb`
    keys.push_back(Key::from_bytes(ones));
    keys.push_back(Key::from_bytes(lone));
    keys.push_back(Key::from_bytes(ones).next());
  }
  Rng rng(seed);
  for (int i = 0; i < 64; ++i) keys.push_back(Key::random(rng));
  return keys;
}

class KeyDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KeyDifferential, ArithmeticMatchesByteReference) {
  const std::vector<Key> keys = differential_corpus(GetParam());
  for (const Key& a : keys) {
    const ByteArray ab = a.bytes();
    EXPECT_EQ(a.half().bytes(), ref_half(ab)) << a.hex();
    EXPECT_EQ(a.next().bytes(), ref_next(ab)) << a.hex();
    for (const Key& b : keys) {
      const ByteArray bb = b.bytes();
      EXPECT_EQ((a + b).bytes(), ref_add(ab, bb))
          << a.hex() << " + " << b.hex();
      EXPECT_EQ((a - b).bytes(), ref_sub(ab, bb))
          << a.hex() << " - " << b.hex();
      const int rc = ref_compare(ab, bb);
      EXPECT_EQ(a < b, rc < 0);
      EXPECT_EQ(a == b, rc == 0);
      EXPECT_EQ(a > b, rc > 0);
    }
  }
}

TEST_P(KeyDifferential, MidpointAndArcMatchByteReference) {
  const std::vector<Key> keys = differential_corpus(GetParam() + 1000);
  for (std::size_t i = 0; i + 2 < keys.size(); i += 3) {
    const Key& from = keys[i];
    const Key& to = keys[i + 1];
    const Key& k = keys[i + 2];
    // midpoint(a, b) == a + half(b - a), built from reference byte ops.
    const ByteArray expect_mid =
        ref_add(from.bytes(), ref_half(ref_sub(to.bytes(), from.bytes())));
    EXPECT_EQ(Key::midpoint(from, to).bytes(), expect_mid);
    // in_arc(k, from, to) == k != from && dist(from, k) <= dist(from, to),
    // with from == to meaning the whole ring.
    const ByteArray dk = ref_sub(k.bytes(), from.bytes());
    const ByteArray dt = ref_sub(to.bytes(), from.bytes());
    const bool expect_in =
        (from == to) || (!(k == from) && ref_compare(dk, dt) <= 0);
    EXPECT_EQ(Key::in_arc(k, from, to), expect_in)
        << k.hex() << " in (" << from.hex() << ", " << to.hex() << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyDifferential,
                         ::testing::Values(101, 202, 303));

TEST(Key, BytesRoundTripAtLimbBoundaries) {
  // Every per-byte pattern survives bytes() -> from_bytes() -> bytes().
  for (std::size_t pos = 0; pos < Key::kBytes; ++pos) {
    for (std::uint8_t v : {std::uint8_t{0x01}, std::uint8_t{0x80},
                           std::uint8_t{0xff}}) {
      ByteArray b{};
      b[pos] = v;
      const Key k = Key::from_bytes(b);
      EXPECT_EQ(k.bytes(), b);
      EXPECT_EQ(k.byte(pos), v);
      // The byte lands in the right limb at the right shift.
      EXPECT_EQ(k.limb(pos / 8),
                static_cast<std::uint64_t>(v) << (8 * (7 - (pos % 8))));
    }
  }
}

TEST(Key, Low64ReadsLastLimb) {
  ByteArray b{};
  for (std::size_t i = 0; i < 8; ++i) {
    b[Key::kBytes - 8 + i] = static_cast<std::uint8_t>(0x10 + i);
  }
  EXPECT_EQ(Key::from_bytes(b).low64(), 0x1011121314151617ull);
  EXPECT_EQ(Key::from_uint64(0xdeadbeefcafef00dull).low64(),
            0xdeadbeefcafef00dull);
  // from_uint64 touches only the low limb.
  EXPECT_EQ(Key::from_uint64(UINT64_MAX).limb(Key::kLimbs - 2), 0u);
}

}  // namespace
}  // namespace d2
