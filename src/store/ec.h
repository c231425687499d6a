// Real (k, m) Reed–Solomon erasure codec over GF(2^8).
//
// Replaces the accounting-level erasure fake (a storage-ratio constant)
// with an actual codec: a block is split into k data fragments, m parity
// fragments are computed from a systematic Cauchy encode matrix, and the
// block is recoverable from *any* k of the k+m fragments by inverting the
// k×k submatrix of the rows that survived (DESIGN.md §10).
//
// GF(2^8) arithmetic uses the conventional log/exp tables over the
// primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d, the polynomial
// used by every production RS codec this models — gluster ec, isa-l,
// jerasure). Multiplication is two table loads and one add mod 255.
//
// The encode matrix is [ I_k ; C ] with C an m×k Cauchy matrix
// C[i][j] = 1 / (x_i + y_j), x_i = k + i, y_j = j. Every square
// submatrix of a Cauchy matrix is nonsingular, which makes every k-row
// subset of [ I ; C ] invertible — the any-k-of-n property — without the
// fixups a naive Vandermonde systematic construction needs.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace d2::store {

/// GF(2^8) primitives, exposed for tests (differential check against a
/// bitwise reference multiply) and for the micro-benches.
namespace gf256 {

/// a * b in GF(2^8). Table-driven: exp[log a + log b].
std::uint8_t mul(std::uint8_t a, std::uint8_t b);

/// Multiplicative inverse; a must be nonzero.
std::uint8_t inv(std::uint8_t a);

/// Bitwise carry-less multiply + polynomial reduction — the slow
/// reference implementation the table codec is differentially tested
/// against. Not used on any hot path.
std::uint8_t mul_ref(std::uint8_t a, std::uint8_t b);

/// out ^= coeff * src over `len` bytes — the codec's hot kernel: one
/// log/exp table lookup per nonzero source byte. The program only ever
/// codes RepairEngine's 128-byte payloads (22-byte rs-6-3 fragments),
/// below any vector width, so there is no SIMD variant (DESIGN.md §11b).
void mul_acc(std::uint8_t* out, const std::uint8_t* src, std::uint8_t coeff,
             Bytes len);

}  // namespace gf256

class ErasureCodec {
 public:
  /// (k data, m parity) fragments; requires k >= 1, m >= 0, k + m <= 255.
  ErasureCodec(int data_fragments, int parity_fragments);

  int k() const { return k_; }
  int m() const { return m_; }
  int n() const { return k_ + m_; }

  /// Bytes per fragment for a block of `size` bytes: ceil(size / k).
  /// The last data fragment is zero-padded to this length.
  Bytes fragment_bytes(Bytes size) const {
    return (size + k_ - 1) / k_;
  }

  /// Splits `block` into k zero-padded data fragments and computes the m
  /// parity fragments: returns n = k + m fragments of equal length,
  /// fragment i holding encode-matrix row i. Systematic: fragments
  /// [0, k) are the data itself.
  std::vector<std::vector<std::uint8_t>> encode(
      const std::vector<std::uint8_t>& block) const;

  /// Reconstructs the original block (of length `block_size`) from any k
  /// fragments. `present[i]` is the fragment index (in [0, n)) of
  /// `fragments[i]`; indices must be distinct and exactly k of them.
  /// All fragments must share the length fragment_bytes(block_size).
  std::vector<std::uint8_t> decode(
      const std::vector<int>& present,
      const std::vector<const std::uint8_t*>& fragments,
      Bytes block_size) const;

  /// Rebuilds the single fragment `target` (in [0, n)) from any k
  /// surviving fragments — the self-heal primitive: decode the data
  /// solve, then re-apply row `target`. Fragment length is `frag_len`.
  std::vector<std::uint8_t> reconstruct(
      const std::vector<int>& present,
      const std::vector<const std::uint8_t*>& fragments, Bytes frag_len,
      int target) const;

  /// Row `r` of the n×k encode matrix (row-major view, for tests).
  const std::uint8_t* row(int r) const {
    return matrix_.data() + static_cast<std::size_t>(r) * static_cast<std::size_t>(k_);
  }

 private:
  /// Recovers the k data fragments (each frag_len bytes) from the k
  /// present fragments by inverting the corresponding row submatrix.
  std::vector<std::vector<std::uint8_t>> solve_data(
      const std::vector<int>& present,
      const std::vector<const std::uint8_t*>& fragments, Bytes frag_len) const;

  int k_;
  int m_;
  std::vector<std::uint8_t> matrix_;  // n x k, row-major; top k rows = I
};

}  // namespace d2::store
