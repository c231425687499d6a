#include "store/ec.h"

#include <algorithm>
#include <cstring>

#include "common/assert.h"

namespace d2::store {

namespace gf256 {
namespace {

constexpr int kPoly = 0x11d;  // x^8 + x^4 + x^3 + x^2 + 1

struct Tables {
  // exp_ doubled so mul can index log[a] + log[b] (< 510) without a mod.
  std::uint8_t exp_[510];
  std::uint8_t log_[256];

  Tables() {
    int x = 1;
    for (int i = 0; i < 255; ++i) {
      exp_[i] = static_cast<std::uint8_t>(x);
      exp_[i + 255] = static_cast<std::uint8_t>(x);
      log_[x] = static_cast<std::uint8_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= kPoly;
    }
    log_[0] = 0;  // never read: mul/inv special-case zero
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

}  // namespace

std::uint8_t mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  const Tables& t = tables();
  return t.exp_[t.log_[a] + t.log_[b]];
}

std::uint8_t inv(std::uint8_t a) {
  D2_REQUIRE_MSG(a != 0, "gf256: zero has no inverse");
  const Tables& t = tables();
  return t.exp_[255 - t.log_[a]];
}

std::uint8_t mul_ref(std::uint8_t a, std::uint8_t b) {
  int acc = 0;
  int aa = a;
  for (int bit = 0; bit < 8; ++bit) {
    if (b & (1 << bit)) acc ^= aa << bit;
  }
  // Reduce the 15-bit product modulo the field polynomial.
  for (int bit = 14; bit >= 8; --bit) {
    if (acc & (1 << bit)) acc ^= kPoly << (bit - 8);
  }
  return static_cast<std::uint8_t>(acc);
}

void mul_acc(std::uint8_t* out, const std::uint8_t* src, std::uint8_t coeff,
             Bytes len) {
  if (coeff == 0) return;
  if (coeff == 1) {
    for (Bytes b = 0; b < len; ++b) out[b] ^= src[b];
    return;
  }
  const Tables& t = tables();
  const std::uint8_t lc = t.log_[coeff];
  for (Bytes b = 0; b < len; ++b) {
    const std::uint8_t s = src[b];
    if (s != 0) out[b] ^= t.exp_[lc + t.log_[s]];
  }
}

}  // namespace gf256

namespace {

/// In-place Gauss–Jordan inversion of a k×k GF(2^8) matrix (row-major).
/// Every k-row submatrix of [I; Cauchy] is nonsingular, so a zero pivot
/// here means the caller passed duplicate fragment indices — assert.
std::vector<std::uint8_t> invert_matrix(std::vector<std::uint8_t> a, int k) {
  std::vector<std::uint8_t> inv(static_cast<std::size_t>(k) * k, 0);
  for (int i = 0; i < k; ++i) inv[static_cast<std::size_t>(i) * k + i] = 1;
  auto row = [k](std::vector<std::uint8_t>& m, int r) {
    return m.data() + static_cast<std::size_t>(r) * k;
  };
  for (int col = 0; col < k; ++col) {
    int pivot = -1;
    for (int r = col; r < k; ++r) {
      if (row(a, r)[col] != 0) {
        pivot = r;
        break;
      }
    }
    D2_ASSERT_MSG(pivot >= 0, "ec: singular decode matrix");
    if (pivot != col) {
      for (int c = 0; c < k; ++c) {
        std::swap(row(a, pivot)[c], row(a, col)[c]);
        std::swap(row(inv, pivot)[c], row(inv, col)[c]);
      }
    }
    const std::uint8_t scale = gf256::inv(row(a, col)[col]);
    for (int c = 0; c < k; ++c) {
      row(a, col)[c] = gf256::mul(row(a, col)[c], scale);
      row(inv, col)[c] = gf256::mul(row(inv, col)[c], scale);
    }
    for (int r = 0; r < k; ++r) {
      if (r == col) continue;
      const std::uint8_t f = row(a, r)[col];
      if (f == 0) continue;
      for (int c = 0; c < k; ++c) {
        row(a, r)[c] ^= gf256::mul(f, row(a, col)[c]);
        row(inv, r)[c] ^= gf256::mul(f, row(inv, col)[c]);
      }
    }
  }
  return inv;
}

}  // namespace

ErasureCodec::ErasureCodec(int data_fragments, int parity_fragments)
    : k_(data_fragments), m_(parity_fragments) {
  D2_REQUIRE_MSG(k_ >= 1, "ec: need at least one data fragment");
  D2_REQUIRE_MSG(m_ >= 0, "ec: negative parity count");
  D2_REQUIRE_MSG(k_ + m_ <= 255, "ec: k + m must fit GF(2^8) minus zero");
  matrix_.assign(static_cast<std::size_t>(n()) * k_, 0);
  for (int i = 0; i < k_; ++i) {
    matrix_[static_cast<std::size_t>(i) * k_ + i] = 1;
  }
  // Cauchy rows: C[i][j] = 1 / (x_i ^ y_j), x_i = k + i, y_j = j. The
  // x and y sets are disjoint field elements, so every entry is defined
  // and every square submatrix is nonsingular.
  for (int i = 0; i < m_; ++i) {
    for (int j = 0; j < k_; ++j) {
      matrix_[static_cast<std::size_t>(k_ + i) * k_ + j] =
          gf256::inv(static_cast<std::uint8_t>((k_ + i) ^ j));
    }
  }
}

std::vector<std::vector<std::uint8_t>> ErasureCodec::encode(
    const std::vector<std::uint8_t>& block) const {
  const Bytes frag_len = fragment_bytes(static_cast<Bytes>(block.size()));
  std::vector<std::vector<std::uint8_t>> frags(
      static_cast<std::size_t>(n()),
      std::vector<std::uint8_t>(static_cast<std::size_t>(frag_len), 0));
  for (int i = 0; i < k_; ++i) {
    const std::size_t off = static_cast<std::size_t>(i) * frag_len;
    if (off >= block.size()) continue;
    const std::size_t take =
        std::min<std::size_t>(static_cast<std::size_t>(frag_len),
                              block.size() - off);
    std::memcpy(frags[static_cast<std::size_t>(i)].data(), block.data() + off,
                take);
  }
  for (int p = 0; p < m_; ++p) {
    std::uint8_t* out = frags[static_cast<std::size_t>(k_ + p)].data();
    const std::uint8_t* coeffs = row(k_ + p);
    for (int j = 0; j < k_; ++j) {
      gf256::mul_acc(out, frags[static_cast<std::size_t>(j)].data(),
                     coeffs[j], frag_len);
    }
  }
  return frags;
}

std::vector<std::vector<std::uint8_t>> ErasureCodec::solve_data(
    const std::vector<int>& present,
    const std::vector<const std::uint8_t*>& fragments, Bytes frag_len) const {
  D2_REQUIRE_MSG(static_cast<int>(present.size()) == k_,
                 "ec: decode needs exactly k fragments");
  D2_REQUIRE(present.size() == fragments.size());
  std::vector<std::uint8_t> sub(static_cast<std::size_t>(k_) * k_);
  for (int i = 0; i < k_; ++i) {
    const int idx = present[static_cast<std::size_t>(i)];
    D2_REQUIRE_MSG(idx >= 0 && idx < n(), "ec: fragment index out of range");
    std::memcpy(sub.data() + static_cast<std::size_t>(i) * k_, row(idx),
                static_cast<std::size_t>(k_));
  }
  const std::vector<std::uint8_t> inv = invert_matrix(std::move(sub), k_);
  std::vector<std::vector<std::uint8_t>> data(
      static_cast<std::size_t>(k_),
      std::vector<std::uint8_t>(static_cast<std::size_t>(frag_len), 0));
  for (int i = 0; i < k_; ++i) {
    std::uint8_t* out = data[static_cast<std::size_t>(i)].data();
    const std::uint8_t* coeffs = inv.data() + static_cast<std::size_t>(i) * k_;
    for (int j = 0; j < k_; ++j) {
      gf256::mul_acc(out, fragments[static_cast<std::size_t>(j)], coeffs[j],
                     frag_len);
    }
  }
  return data;
}

std::vector<std::uint8_t> ErasureCodec::decode(
    const std::vector<int>& present,
    const std::vector<const std::uint8_t*>& fragments, Bytes block_size) const {
  const Bytes frag_len = fragment_bytes(block_size);
  const std::vector<std::vector<std::uint8_t>> data =
      solve_data(present, fragments, frag_len);
  std::vector<std::uint8_t> block(static_cast<std::size_t>(block_size));
  for (int i = 0; i < k_; ++i) {
    const std::size_t off = static_cast<std::size_t>(i) * frag_len;
    if (off >= block.size()) break;
    const std::size_t take =
        std::min<std::size_t>(static_cast<std::size_t>(frag_len),
                              block.size() - off);
    std::memcpy(block.data() + off, data[static_cast<std::size_t>(i)].data(),
                take);
  }
  return block;
}

std::vector<std::uint8_t> ErasureCodec::reconstruct(
    const std::vector<int>& present,
    const std::vector<const std::uint8_t*>& fragments, Bytes frag_len,
    int target) const {
  D2_REQUIRE_MSG(target >= 0 && target < n(), "ec: target index out of range");
  // Fast path: the target is present verbatim among the sources.
  for (std::size_t i = 0; i < present.size(); ++i) {
    if (present[i] == target) {
      return std::vector<std::uint8_t>(
          fragments[i], fragments[i] + static_cast<std::size_t>(frag_len));
    }
  }
  const std::vector<std::vector<std::uint8_t>> data =
      solve_data(present, fragments, frag_len);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(frag_len), 0);
  const std::uint8_t* coeffs = row(target);
  for (int j = 0; j < k_; ++j) {
    gf256::mul_acc(out.data(), data[static_cast<std::size_t>(j)].data(),
                   coeffs[j], frag_len);
  }
  return out;
}

}  // namespace d2::store
