#include "fs/key_encoding.h"

#include "common/assert.h"

namespace d2::fs {

VolumeId make_volume_id(std::string_view volume_name) {
  return Sha1::hash(volume_name);
}

Key encode_block_key(const VolumeId& volume, const EncodedPath& path,
                     BlockType type, std::uint64_t block_number,
                     std::uint32_t version) {
  D2_REQUIRE_MSG(block_number < (1ull << 56), "block number exceeds 7 bytes");
  std::array<std::uint8_t, Key::kBytes> b{};
  // [0, 20): volume id.
  std::copy(volume.begin(), volume.end(), b.begin());
  // [20, 44): path slots, big-endian per slot.
  for (int i = 0; i < EncodedPath::kMaxLevels; ++i) {
    b[20 + 2 * static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(path.slots[static_cast<std::size_t>(i)] >> 8);
    b[21 + 2 * static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(path.slots[static_cast<std::size_t>(i)] & 0xff);
  }
  // [44, 52): remainder hash.
  for (int i = 0; i < 8; ++i) {
    b[44 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(path.remainder_hash >> (8 * (7 - i)));
  }
  // [52, 60): block field: type byte then 7-byte number.
  b[52] = static_cast<std::uint8_t>(type);
  for (int i = 0; i < 7; ++i) {
    b[53 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(block_number >> (8 * (6 - i)));
  }
  // [60, 64): version hash.
  for (int i = 0; i < 4; ++i) {
    b[60 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(version >> (8 * (3 - i)));
  }
  return Key::from_bytes(b);
}

EncodedPath extend_path(const EncodedPath& parent, std::uint16_t slot,
                        std::string_view component_name) {
  EncodedPath p = parent;
  if (p.depth < EncodedPath::kMaxLevels) {
    D2_REQUIRE_MSG(slot != 0, "slot 0 is reserved for the directory itself");
    p.slots[static_cast<std::size_t>(p.depth)] = slot;
    ++p.depth;
  } else {
    // Path overflow: fold the component into the remainder hash. Chaining
    // keeps distinct deep paths distinct (with high probability).
    std::string chained = std::to_string(p.remainder_hash);
    chained.push_back('/');
    chained.append(component_name);
    p.remainder_hash = fnv1a64(chained);
    ++p.depth;
  }
  return p;
}

std::vector<std::string> split_path(std::string_view path) {
  std::vector<std::string> parts;
  std::size_t pos = 0;
  for (std::string_view c = next_path_component(path, &pos); !c.empty();
       c = next_path_component(path, &pos)) {
    parts.emplace_back(c);
  }
  return parts;
}

std::string_view next_path_component(std::string_view path, std::size_t* pos) {
  std::size_t i = *pos;
  while (i < path.size() && path[i] == '/') ++i;
  std::size_t j = i;
  while (j < path.size() && path[j] != '/') ++j;
  *pos = j;
  return path.substr(i, j - i);
}

std::string reverse_domain_url(std::string_view url) {
  // Strip scheme if present.
  if (auto pos = url.find("://"); pos != std::string_view::npos) {
    url = url.substr(pos + 3);
  }
  const std::size_t slash = url.find('/');
  const std::string_view domain =
      slash == std::string_view::npos ? url : url.substr(0, slash);
  const std::string_view rest =
      slash == std::string_view::npos ? std::string_view{} : url.substr(slash);

  // Reverse the dot-separated tuples.
  std::vector<std::string_view> tuples;
  std::size_t i = 0;
  while (i <= domain.size()) {
    std::size_t j = domain.find('.', i);
    if (j == std::string_view::npos) j = domain.size();
    tuples.push_back(domain.substr(i, j - i));
    i = j + 1;
    if (j == domain.size()) break;
  }
  std::string out;
  for (auto it = tuples.rbegin(); it != tuples.rend(); ++it) {
    if (!out.empty()) out.push_back('.');
    out.append(*it);
  }
  out.append(rest);
  return out;
}

EncodedPath encode_url_path(std::string_view reversed_url) {
  // Treat the reversed domain as the first component and each path
  // segment as a further component, all slot-hashed (footnote 2).
  EncodedPath p;
  for (const std::string& comp : split_path(reversed_url)) {
    std::uint16_t h = hash16(comp);
    if (h == 0) h = 1;  // slot 0 is reserved
    p = extend_path(p, h, comp);
  }
  return p;
}

DecodedKey decode_block_key(const Key& k) {
  DecodedKey d{};
  const auto& b = k.bytes();
  std::copy(b.begin(), b.begin() + 20, d.volume.begin());
  int depth = 0;
  for (int i = 0; i < EncodedPath::kMaxLevels; ++i) {
    const std::uint16_t slot = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(b[20 + 2 * static_cast<std::size_t>(i)]) << 8) |
        b[21 + 2 * static_cast<std::size_t>(i)]);
    d.path.slots[static_cast<std::size_t>(i)] = slot;
    if (slot != 0) depth = i + 1;
  }
  d.path.depth = depth;
  for (int i = 0; i < 8; ++i) {
    d.path.remainder_hash =
        (d.path.remainder_hash << 8) | b[44 + static_cast<std::size_t>(i)];
  }
  d.type = static_cast<BlockType>(b[52]);
  d.block_number = 0;
  for (int i = 0; i < 7; ++i) {
    d.block_number = (d.block_number << 8) | b[53 + static_cast<std::size_t>(i)];
  }
  d.version = 0;
  for (int i = 0; i < 4; ++i) {
    d.version = (d.version << 8) | b[60 + static_cast<std::size_t>(i)];
  }
  return d;
}

}  // namespace d2::fs
