#include "common/key.h"

#include <ostream>

#include "common/rng.h"

namespace d2 {

Key Key::random(Rng& rng) {
  // One rng word per limb; identical key values to the historical
  // byte-filling implementation (which wrote each word big-endian).
  Key k;
  for (std::size_t i = 0; i < kLimbs; ++i) k.limbs_[i] = rng.next_u64();
  return k;
}

std::string Key::hex() const {
  static const char* digits = "0123456789abcdef";
  std::string s;
  s.reserve(kBytes * 2);
  for (std::size_t i = 0; i < kBytes; ++i) {
    const std::uint8_t b = byte(i);
    s.push_back(digits[b >> 4]);
    s.push_back(digits[b & 0xf]);
  }
  return s;
}

std::string Key::short_hex() const { return hex().substr(0, 8); }

double Key::ring_position() const {
  return static_cast<double>(limbs_[0]) / 18446744073709551616.0;  // 2^64
}

std::ostream& operator<<(std::ostream& os, const Key& k) {
  return os << k.short_hex();
}

}  // namespace d2
