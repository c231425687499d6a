// Locality-preserving key encoding (paper §4.2, Figure 4).
//
// A D2-FS block key is 64 bytes:
//
//   bytes [0, 20)  : volume id (SHA-1 of the volume name)
//   bytes [20, 44) : 12 x 2-byte path slots — each directory assigns every
//                    child an unused 2-byte value, so keys sort in
//                    name-space (preorder-traversal) order and blocks of
//                    files in the same directory have contiguous keys
//   bytes [44, 52) : 8-byte hash of the path remainder, for paths deeper
//                    than 12 levels (such files lose locality; < 1% of
//                    files in the paper's workloads)
//   bytes [52, 60) : 8-byte block field: 1 type byte (directory < inode <
//                    data) then a 7-byte block number, so a file's inode
//                    immediately precedes its data blocks
//   bytes [60, 64) : 4-byte version hash distinguishing versions of an
//                    overwritten block (least significant, so versions of
//                    a block stay adjacent)
//
// Slot value 0 is reserved for "the directory itself", so a directory's
// own metadata block sorts immediately before its children.
//
// Web objects (the Squirrel-style Webcache workload, §10) are encoded from
// their URL with the domain tuples reversed (www.yahoo.com/index.html ->
// com.yahoo.www/index.html); since a web cache has no directory blocks to
// allocate slots from, each component uses a 2-byte hash of its name
// instead (footnote 2), losing a little locality to collisions.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/key.h"

namespace d2::fs {

/// Block types, in the order they sort within one path prefix.
enum class BlockType : std::uint8_t {
  kDirectory = 0,
  kInode = 1,
  kData = 2,
};

/// The path portion of a key: up to 12 two-byte slots plus the overflow
/// hash for deeper paths.
struct EncodedPath {
  static constexpr int kMaxLevels = 12;

  std::array<std::uint16_t, kMaxLevels> slots{};  // 0 = unused / self
  std::uint64_t remainder_hash = 0;               // 0 unless path overflows
  int depth = 0;                                  // number of used slots

  bool operator==(const EncodedPath& o) const = default;
};

/// 20-byte volume identifier.
using VolumeId = Sha1Digest;

VolumeId make_volume_id(std::string_view volume_name);

/// Assembles a full 64-byte block key from its Fig 4 fields.
Key encode_block_key(const VolumeId& volume, const EncodedPath& path,
                     BlockType type, std::uint64_t block_number,
                     std::uint32_t version);

/// Appends one level to an encoded path. `slot` must be non-zero. Levels
/// beyond kMaxLevels fold the component name into remainder_hash instead.
EncodedPath extend_path(const EncodedPath& parent, std::uint16_t slot,
                        std::string_view component_name);

/// Splits "a/b/c" into components; ignores empty components and leading
/// slashes.
std::vector<std::string> split_path(std::string_view path);

/// The next component split_path would return, as a view into `path`:
/// skips slashes from `*pos`, returns the component there and advances
/// `*pos` past it. Returns an empty view once no component is left.
std::string_view next_path_component(std::string_view path, std::size_t* pos);

/// Reverses the domain tuples of a URL: "www.yahoo.com/a/b.html" ->
/// "com.yahoo.www/a/b.html".
std::string reverse_domain_url(std::string_view url);

/// Encodes a URL path (after domain reversal) using 2-byte name hashes
/// per component — the slot-less variant of footnote 2.
EncodedPath encode_url_path(std::string_view reversed_url);

/// Decomposition of a key back into coarse fields, for tests/debugging.
struct DecodedKey {
  std::array<std::uint8_t, 20> volume;
  EncodedPath path;
  BlockType type;
  std::uint64_t block_number;
  std::uint32_t version;
};
DecodedKey decode_block_key(const Key& k);

}  // namespace d2::fs
