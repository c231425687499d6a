// D2-FS volume: a CFS-like block-structured file system over a DHT store
// (paper §3, Figure 2), parameterized by key scheme so the same code base
// drives D2 and both baselines (as in the paper's §7 prototype).
//
// Block organization:
//   - a root block (updated in place; all other blocks are immutable
//     versions),
//   - a metadata block per directory,
//   - an inode block per file (small files inline their data here),
//   - 8 KB data blocks.
// Every write creates new versions of the touched data blocks and of all
// metadata blocks on the path to the root; the 30-second write-back cache
// coalesces these and absorbs temporary files entirely. Old versions are
// removed when the new version commits (the store applies its own
// 30-second removal delay on top, §3).
//
// Key schemes:
//   kD2              — Fig 4 locality-preserving keys; renames keep the
//                      original keys (the new parent just points at them).
//   kTraditionalBlock — every block key is a uniform hash (CFS-style).
//   kTraditionalFile  — a whole file is one object with one hashed key
//                      (PAST-style); directories are separate objects.
//                      Partial reads are allowed, so all schemes read the
//                      same byte volume.
//
// A volume has a single writer (paper §3 usage assumptions); the embedded
// write-back/buffer cache is that writer-reader's client cache.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/key.h"
#include "common/units.h"
#include "fs/key_encoding.h"
#include "fs/writeback_cache.h"

namespace d2::fs {

enum class KeyScheme { kD2, kTraditionalBlock, kTraditionalFile };

std::string to_string(KeyScheme scheme);

struct VolumeConfig {
  KeyScheme scheme = KeyScheme::kD2;
  SimTime writeback_ttl = seconds(30);
  /// Files at most this large live inline in their inode block.
  Bytes inline_threshold = kB(4);
};

class Volume {
 public:
  Volume(std::string name, VolumeConfig config = {});
  ~Volume();

  Volume(const Volume&) = delete;
  Volume& operator=(const Volume&) = delete;

  /// Binds the embedded write-back cache to `registry` (see
  /// WritebackCache::bind_metrics). Pass nullptr to unbind.
  void bind_metrics(obs::Registry* registry) { cache_.bind_metrics(registry); }

  /// Writes [offset, offset+len) to `path`, creating the file (and any
  /// missing parent directories) if needed. Store operations — including
  /// any write-back flushes that came due — are appended to `out`.
  void write(std::string_view path, Bytes offset, Bytes len, SimTime now,
             std::vector<StoreOp>& out);

  /// Reads [offset, offset+len) from `path` (must exist). Emits get ops
  /// for blocks not covered by the buffer cache, including the metadata
  /// chain from the root.
  void read(std::string_view path, Bytes offset, Bytes len, SimTime now,
            std::vector<StoreOp>& out);

  /// Removes a file, or a directory and everything beneath it.
  void remove(std::string_view path, SimTime now, std::vector<StoreOp>& out);

  /// Moves `from` to `to` (creating target parents). Block keys do not
  /// change — D2-FS keeps original keys for renamed files (§4.2); only
  /// the affected directory metadata is rewritten.
  void rename(std::string_view from, std::string_view to, SimTime now,
              std::vector<StoreOp>& out);

  /// Creates a directory (and parents).
  void mkdir(std::string_view path, SimTime now, std::vector<StoreOp>& out);

  /// Flushes every dirty block regardless of age.
  void flush(SimTime now, std::vector<StoreOp>& out);

  bool exists(std::string_view path) const;
  bool is_directory(std::string_view path) const;
  /// exists(path) && !is_directory(path), in one walk.
  bool is_file(std::string_view path) const;
  Bytes file_size(std::string_view path) const;

  std::uint64_t file_count() const { return files_; }
  std::uint64_t dir_count() const { return dirs_; }

  /// Bytes held by the embedded write-back cache
  /// (WritebackCache::allocated_bytes).
  std::size_t writeback_cache_bytes() const {
    return cache_.allocated_bytes();
  }

  const std::string& name() const { return name_; }
  const VolumeId& volume_id() const { return volume_id_; }
  KeyScheme scheme() const { return config_.scheme; }
  const VolumeConfig& config() const { return config_; }

  /// The (constant) key of the mutable root block.
  Key root_key() const;

  /// Keys a full sequential read of `path` would touch right now,
  /// ignoring the buffer cache (metadata chain + all data blocks).
  /// Useful to experiments that reason about placement.
  std::vector<StoreOp> uncached_read_ops(std::string_view path) const;

  /// Integrity chain digest (paper §3): because D2 keys are not content
  /// hashes, every metadata block stores the content hash of each block
  /// it points to; the publisher signs only the root block, which
  /// transitively authenticates the whole volume. This returns that root
  /// digest for the current committed state — any change to any block's
  /// identity (content version, size, name, structure) changes it.
  Sha1Digest integrity_digest() const;

 private:
  struct Node;

  Node* resolve(std::string_view path) const;
  /// Directory holding the last component of `path` (returned in `*leaf`,
  /// a view into `path`), or nullptr if it does not exist.
  Node* resolve_parent(std::string_view path, std::string_view* leaf) const;
  /// Walks every component of `path` but the last, creating missing
  /// directories, and returns the directory that holds the last one
  /// (which goes to `*leaf`; empty if `path` has no component).
  Node* ensure_parent(std::string_view path, std::string_view* leaf,
                      SimTime now);
  /// Child directory `name` of directory `dir`, created if missing.
  Node* ensure_child_dir(Node* dir, std::string_view name, SimTime now);
  /// New file or directory `name` in `parent`; dirties both.
  Node* create_child(Node* parent, std::string_view name, bool is_dir,
                     SimTime now);

  Key meta_key(const Node& n, std::uint32_t version) const;
  Key data_key(const Node& n, std::uint64_t block_index,
               std::uint32_t version) const;
  Bytes meta_block_size(const Node& n) const;
  Bytes data_block_size(const Node& n, std::uint64_t block_index) const;
  std::uint16_t allocate_slot(Node* parent);

  void dirty_meta(Node* n, SimTime now);
  void dirty_meta_chain(Node* n, SimTime now);
  void dirty_data_block(Node* n, std::uint64_t block_index, SimTime now);
  void emit_remove_of_block(const Key& current_key, bool has_version,
                            std::vector<StoreOp>& out);
  void remove_node_blocks(Node* n, SimTime now, std::vector<StoreOp>& out);
  void read_meta_chain(Node* leaf, SimTime now, std::vector<StoreOp>& out);
  Sha1Digest node_digest(const Node& n) const;

  std::string name_;
  VolumeConfig config_;
  VolumeId volume_id_;
  std::unique_ptr<Node> root_;
  mutable WritebackCache cache_;
  std::uint64_t files_ = 0;
  std::uint64_t dirs_ = 0;
};

}  // namespace d2::fs
