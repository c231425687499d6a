// Property tests for the GF(2^8) Reed–Solomon codec (store/ec.h).

#include "store/ec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"

namespace d2::store {
namespace {

std::vector<std::uint8_t> random_block(Rng& rng, std::size_t size) {
  std::vector<std::uint8_t> block(size);
  for (std::uint8_t& b : block) {
    b = static_cast<std::uint8_t>(rng.next_below(256));
  }
  return block;
}

// --- GF(2^8) arithmetic ---

TEST(Gf256, TableMultiplyMatchesBitwiseReference) {
  // Differential check of the log/exp-table multiply against the naive
  // carry-less multiply + polynomial reduction, over the whole field.
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      ASSERT_EQ(gf256::mul(static_cast<std::uint8_t>(a),
                           static_cast<std::uint8_t>(b)),
                gf256::mul_ref(static_cast<std::uint8_t>(a),
                               static_cast<std::uint8_t>(b)))
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(Gf256, FieldAxioms) {
  for (int a = 1; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf256::mul(ua, gf256::inv(ua)), 1) << "a=" << a;
    EXPECT_EQ(gf256::mul(ua, 1), ua);
    EXPECT_EQ(gf256::mul(ua, 0), 0);
  }
  // Distributivity on a sample grid (XOR is field addition).
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_below(256));
    const auto b = static_cast<std::uint8_t>(rng.next_below(256));
    const auto c = static_cast<std::uint8_t>(rng.next_below(256));
    EXPECT_EQ(gf256::mul(a, static_cast<std::uint8_t>(b ^ c)),
              gf256::mul(a, b) ^ gf256::mul(a, c));
  }
}

// --- codec round trips ---

TEST(ErasureCodec, SystematicEncodeKeepsDataVerbatim) {
  Rng rng(11);
  const ErasureCodec codec(6, 3);
  const std::vector<std::uint8_t> block = random_block(rng, 6 * 37);
  const auto frags = codec.encode(block);
  ASSERT_EQ(frags.size(), 9u);
  const Bytes frag_len = codec.fragment_bytes(static_cast<Bytes>(block.size()));
  EXPECT_EQ(frag_len, 37);
  for (int i = 0; i < 6; ++i) {
    for (Bytes b = 0; b < frag_len; ++b) {
      EXPECT_EQ(frags[static_cast<std::size_t>(i)][static_cast<std::size_t>(b)],
                block[static_cast<std::size_t>(i * frag_len + b)]);
    }
  }
}

// Exhaustively drop every m-subset of fragments and decode from the rest.
void check_all_erasure_patterns(int k, int m, std::size_t block_size,
                                std::uint64_t seed) {
  Rng rng(seed);
  const ErasureCodec codec(k, m);
  const int n = k + m;
  const std::vector<std::uint8_t> block = random_block(rng, block_size);
  const auto frags = codec.encode(block);
  // Enumerate all k-subsets of [0, n) as survivor sets via bitmask.
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    if (__builtin_popcount(mask) != k) continue;
    std::vector<int> present;
    std::vector<const std::uint8_t*> ptrs;
    for (int i = 0; i < n; ++i) {
      if (mask & (1u << i)) {
        present.push_back(i);
        ptrs.push_back(frags[static_cast<std::size_t>(i)].data());
      }
    }
    const std::vector<std::uint8_t> decoded =
        codec.decode(present, ptrs, static_cast<Bytes>(block.size()));
    ASSERT_EQ(decoded, block) << "k=" << k << " m=" << m << " mask=" << mask;
  }
}

TEST(ErasureCodec, DecodesFromAnyKFragments) {
  check_all_erasure_patterns(6, 3, 6 * 64, 1);     // the rs-6-3 default
  check_all_erasure_patterns(3, 2, 100, 2);        // unaligned block size
  check_all_erasure_patterns(1, 2, 33, 3);         // replication as RS(1, 2)
  check_all_erasure_patterns(4, 4, 4 * 16, 4);     // m == k
  check_all_erasure_patterns(5, 1, 5 * 8 + 3, 5);  // single parity
}

TEST(ErasureCodec, ReconstructRebuildsEveryFragmentFromAnySurvivors) {
  Rng rng(21);
  const ErasureCodec codec(4, 3);
  const std::vector<std::uint8_t> block = random_block(rng, 4 * 23 + 5);
  const auto frags = codec.encode(block);
  const Bytes frag_len = codec.fragment_bytes(static_cast<Bytes>(block.size()));
  // For 200 random (survivor set, target) pairs, rebuild the target
  // fragment from k survivors and compare byte-for-byte.
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<int> order(7);
    for (int i = 0; i < 7; ++i) order[static_cast<std::size_t>(i)] = i;
    for (int i = 6; i > 0; --i) {
      const auto j = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(i + 1)));
      std::swap(order[static_cast<std::size_t>(i)],
                order[static_cast<std::size_t>(j)]);
    }
    std::vector<int> present(order.begin(), order.begin() + 4);
    std::sort(present.begin(), present.end());
    std::vector<const std::uint8_t*> ptrs;
    for (int idx : present) {
      ptrs.push_back(frags[static_cast<std::size_t>(idx)].data());
    }
    const int target = static_cast<int>(rng.next_below(7));
    const std::vector<std::uint8_t> rebuilt =
        codec.reconstruct(present, ptrs, frag_len, target);
    ASSERT_EQ(rebuilt, frags[static_cast<std::size_t>(target)])
        << "target=" << target;
  }
}

TEST(ErasureCodec, CorruptedFragmentChangesDecode) {
  // Sanity: the decode actually depends on every source byte (i.e. it is
  // not accounting theatre) — flipping one byte of one survivor corrupts
  // the output.
  Rng rng(31);
  const ErasureCodec codec(3, 2);
  const std::vector<std::uint8_t> block = random_block(rng, 90);
  auto frags = codec.encode(block);
  const std::vector<int> present = {1, 3, 4};
  frags[3][7] ^= 0x40;
  const std::vector<std::uint8_t> decoded = codec.decode(
      present,
      {frags[1].data(), frags[3].data(), frags[4].data()},
      static_cast<Bytes>(block.size()));
  EXPECT_NE(decoded, block);
}

TEST(ErasureCodec, TinyAndPaddedBlocks) {
  // Blocks smaller than k fragments (zero padding) round-trip too.
  Rng rng(41);
  const ErasureCodec codec(6, 3);
  for (const std::size_t size : {1u, 5u, 6u, 7u, 64u}) {
    const std::vector<std::uint8_t> block = random_block(rng, size);
    const auto frags = codec.encode(block);
    std::vector<int> present;
    std::vector<const std::uint8_t*> ptrs;
    for (int i = 3; i < 9; ++i) {  // drop all of 0, 1, 2: parity-heavy set
      present.push_back(i);
      ptrs.push_back(frags[static_cast<std::size_t>(i)].data());
    }
    EXPECT_EQ(codec.decode(present, ptrs, static_cast<Bytes>(size)), block)
        << "size=" << size;
  }
}

// --- mul_acc, the codec's inner loop ---

TEST(Gf256, MulAccMatchesBitwiseReference) {
  // All 256 coefficients crossed with lengths from empty through a real
  // rs-6-3 fragment (22 bytes: 128-byte payload / 6) to a long run; the
  // expectation is built byte by byte from the bitwise reference.
  Rng rng(97);
  for (const std::size_t len : {std::size_t{0}, std::size_t{1},
                                std::size_t{22}, std::size_t{33},
                                std::size_t{1000}}) {
    const std::vector<std::uint8_t> src = random_block(rng, len);
    const std::vector<std::uint8_t> base = random_block(rng, len);
    for (int c = 0; c < 256; ++c) {
      const auto coeff = static_cast<std::uint8_t>(c);
      std::vector<std::uint8_t> want = base;
      for (std::size_t i = 0; i < len; ++i) {
        want[i] ^= gf256::mul_ref(coeff, src[i]);
      }
      std::vector<std::uint8_t> got = base;
      gf256::mul_acc(got.data(), src.data(), coeff, static_cast<Bytes>(len));
      ASSERT_EQ(got, want) << "coeff=" << c << " len=" << len;
    }
  }
}

TEST(ErasureCodec, AllErasurePatternsIdenticalAcrossKernels) {
  // The codec's table-driven mul_acc against the bitwise reference: the
  // encode must match a parity computed byte by byte with mul_ref from
  // the public encode-matrix rows, and every k-subset decode must give
  // the block back. k=4, m=3 keeps the subset count at 35.
  Rng rng(61);
  const int k = 4;
  const int m = 3;
  const int n = k + m;
  const ErasureCodec codec(k, m);
  const std::vector<std::uint8_t> block = random_block(rng, 4 * 33 + 2);
  const auto frags = codec.encode(block);
  ASSERT_EQ(frags.size(), static_cast<std::size_t>(n));

  const auto frag_len = static_cast<std::size_t>(
      codec.fragment_bytes(static_cast<Bytes>(block.size())));
  std::vector<std::uint8_t> padded = block;
  padded.resize(frag_len * static_cast<std::size_t>(k), 0);
  for (int r = 0; r < n; ++r) {
    std::vector<std::uint8_t> want(frag_len, 0);
    for (int j = 0; j < k; ++j) {
      const std::uint8_t coeff = codec.row(r)[j];
      for (std::size_t b = 0; b < frag_len; ++b) {
        want[b] ^= gf256::mul_ref(
            coeff, padded[static_cast<std::size_t>(j) * frag_len + b]);
      }
    }
    ASSERT_EQ(frags[static_cast<std::size_t>(r)], want)
        << "encode differs from bitwise reference: row=" << r;
  }

  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    if (__builtin_popcount(mask) != k) continue;
    std::vector<int> present;
    std::vector<const std::uint8_t*> ptrs;
    for (int i = 0; i < n; ++i) {
      if (mask & (1u << i)) {
        present.push_back(i);
        ptrs.push_back(frags[static_cast<std::size_t>(i)].data());
      }
    }
    ASSERT_EQ(codec.decode(present, ptrs, static_cast<Bytes>(block.size())),
              block)
        << "mask=" << mask;
  }
}

TEST(ErasureCodec, RejectsBadGeometry) {
  EXPECT_THROW(ErasureCodec(0, 3), PreconditionError);
  EXPECT_THROW(ErasureCodec(200, 100), PreconditionError);
  const ErasureCodec codec(4, 2);
  const std::vector<std::uint8_t> frag(8, 0);
  EXPECT_THROW(
      codec.decode({0, 1, 2}, {frag.data(), frag.data(), frag.data()}, 32),
      PreconditionError);
}

}  // namespace
}  // namespace d2::store
