#include "fs/volume.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "common/assert.h"
#include "common/hash.h"
#include "common/rng.h"
#include "fs/key_encoding.h"

namespace d2::fs {
namespace {

// Applies ops to a mirror of the store, checking basic sanity.
class StoreMirror {
 public:
  void apply(const std::vector<StoreOp>& ops) {
    for (const StoreOp& op : ops) {
      switch (op.kind) {
        case StoreOp::Kind::kPut:
          blocks_[op.key] = op.size;
          ++puts_;
          put_bytes_ += op.size;
          break;
        case StoreOp::Kind::kRemove:
          // Removal of an unknown key indicates a bookkeeping bug.
          ASSERT_TRUE(blocks_.count(op.key) > 0) << "remove of unknown key";
          blocks_.erase(op.key);
          ++removes_;
          break;
        case StoreOp::Kind::kGet:
          ++gets_;
          get_bytes_ += op.size;
          break;
      }
    }
  }

  std::map<Key, Bytes> blocks_;
  int puts_ = 0, removes_ = 0, gets_ = 0;
  Bytes put_bytes_ = 0, get_bytes_ = 0;
};

std::vector<StoreOp> gets_only(const std::vector<StoreOp>& ops) {
  std::vector<StoreOp> out;
  for (const StoreOp& op : ops) {
    if (op.kind == StoreOp::Kind::kGet) out.push_back(op);
  }
  return out;
}

TEST(Volume, CreateAndFlushEmitsBlocks) {
  Volume v("vol");
  std::vector<StoreOp> ops;
  v.write("a/b/file.txt", 0, kB(20), 0, ops);
  EXPECT_TRUE(v.exists("a/b/file.txt"));
  EXPECT_TRUE(v.is_directory("a/b"));
  EXPECT_EQ(v.file_size("a/b/file.txt"), kB(20));
  EXPECT_TRUE(ops.empty());  // everything buffered
  v.flush(0, ops);
  StoreMirror m;
  m.apply(ops);
  // root + a + b dir blocks, inode, 3 data blocks (20KB = 2x8K + 4K).
  EXPECT_EQ(m.blocks_.size(), 7u);
}

TEST(Volume, SmallFileInlinesInInode) {
  Volume v("vol");
  std::vector<StoreOp> ops;
  v.write("tiny.txt", 0, 1000, 0, ops);
  v.flush(0, ops);
  StoreMirror m;
  m.apply(ops);
  // root + inode only: data is inline.
  EXPECT_EQ(m.blocks_.size(), 2u);
  // Reading it back touches no data blocks.
  ops.clear();
  v.read("tiny.txt", 0, 1000, hours(1), ops);
  for (const StoreOp& op : gets_only(ops)) {
    EXPECT_EQ(decode_block_key(op.key).type != BlockType::kData, true);
  }
}

TEST(Volume, SpillOutOfInodeWhenGrowing) {
  Volume v("vol");
  std::vector<StoreOp> ops;
  v.write("f", 0, kB(2), 0, ops);
  v.write("f", kB(2), kB(30), 0, ops);  // now 32 KB: 4 data blocks
  v.flush(0, ops);
  StoreMirror m;
  m.apply(ops);
  EXPECT_EQ(m.blocks_.size(), 6u);  // root + inode + 4 data
}

TEST(Volume, WritebackCoalescesRepeatedWrites) {
  Volume v("vol");
  std::vector<StoreOp> ops;
  for (int i = 0; i < 10; ++i) {
    v.write("f", 0, kB(8), static_cast<SimTime>(i) * seconds(1), ops);
  }
  EXPECT_TRUE(ops.empty());
  v.flush(seconds(10), ops);
  StoreMirror m;
  m.apply(ops);
  // 10 writes to the same block produced exactly one version of it.
  EXPECT_EQ(m.puts_, 3);  // root + inode + 1 data block
  EXPECT_EQ(m.removes_, 0);
}

TEST(Volume, TemporaryFileNeverHitsStore) {
  Volume v("vol");
  std::vector<StoreOp> ops;
  v.write("tmp/scratch", 0, kB(100), 0, ops);
  v.remove("tmp/scratch", seconds(5), ops);
  v.flush(seconds(6), ops);
  StoreMirror m;
  m.apply(ops);
  // Only the surviving metadata (root + tmp dir) was written; none of the
  // file's blocks ever left the write-back cache.
  for (const auto& [key, size] : m.blocks_) {
    EXPECT_NE(decode_block_key(key).type, BlockType::kData);
  }
  EXPECT_EQ(m.removes_, 0);
}

TEST(Volume, OverwriteEmitsNewVersionAndRemovesOld) {
  Volume v("vol");
  std::vector<StoreOp> ops;
  v.write("f", 0, kB(8), 0, ops);
  v.flush(0, ops);
  StoreMirror m;
  m.apply(ops);
  const auto before = m.blocks_;

  ops.clear();
  v.write("f", 0, kB(8), hours(1), ops);  // overwrite after commit
  v.flush(hours(1), ops);
  m.apply(ops);
  // Same count, but data key changed (new version), old removed.
  EXPECT_EQ(m.blocks_.size(), before.size());
  EXPECT_GT(m.removes_, 0);
  EXPECT_NE(m.blocks_, before);
}

TEST(Volume, ReadEmitsMetadataChainThenData) {
  Volume v("vol");
  std::vector<StoreOp> ops;
  v.write("a/b/f", 0, kB(16), 0, ops);
  v.flush(0, ops);
  ops.clear();
  v.read("a/b/f", 0, kB(16), hours(1), ops);
  const auto gets = gets_only(ops);
  ASSERT_EQ(gets.size(), 6u);  // root, a, b, inode, 2 data
  EXPECT_EQ(decode_block_key(gets[0].key).type, BlockType::kDirectory);
  EXPECT_EQ(decode_block_key(gets[3].key).type, BlockType::kInode);
  EXPECT_EQ(decode_block_key(gets[4].key).type, BlockType::kData);
}

TEST(Volume, BufferCacheAbsorbsRereads) {
  Volume v("vol");
  std::vector<StoreOp> ops;
  v.write("f", 0, kB(16), 0, ops);
  v.flush(0, ops);
  ops.clear();
  v.read("f", 0, kB(16), hours(1), ops);
  const auto first = gets_only(ops).size();
  ops.clear();
  v.read("f", 0, kB(16), hours(1) + seconds(10), ops);
  EXPECT_EQ(gets_only(ops).size(), 0u);  // within 30 s window
  ops.clear();
  v.read("f", 0, kB(16), hours(2), ops);
  EXPECT_EQ(gets_only(ops).size(), first);  // window expired
}

TEST(Volume, PartialReadTouchesOnlyCoveredBlocks) {
  Volume v("vol");
  std::vector<StoreOp> ops;
  v.write("f", 0, kB(80), 0, ops);  // 10 data blocks
  v.flush(0, ops);
  ops.clear();
  v.read("f", kB(24), kB(8), hours(1), ops);
  int data_gets = 0;
  for (const StoreOp& op : gets_only(ops)) {
    if (decode_block_key(op.key).type == BlockType::kData) {
      ++data_gets;
      EXPECT_EQ(decode_block_key(op.key).block_number, 3u);
    }
  }
  EXPECT_EQ(data_gets, 1);
}

TEST(Volume, ReadPastEndTouchesNothing) {
  Volume v("vol");
  std::vector<StoreOp> ops;
  v.write("f", 0, kB(8), 0, ops);
  v.flush(0, ops);
  ops.clear();
  v.read("f", kB(100), kB(8), hours(1), ops);
  int data_gets = 0;
  for (const StoreOp& op : gets_only(ops)) {
    if (decode_block_key(op.key).type == BlockType::kData) ++data_gets;
  }
  EXPECT_EQ(data_gets, 0);
}

TEST(Volume, RemoveCommittedFileEmitsRemoves) {
  Volume v("vol");
  std::vector<StoreOp> ops;
  v.write("d/f", 0, kB(24), 0, ops);
  v.flush(0, ops);
  StoreMirror m;
  m.apply(ops);
  ops.clear();
  v.remove("d/f", hours(1), ops);
  v.flush(hours(1), ops);
  m.apply(ops);
  EXPECT_FALSE(v.exists("d/f"));
  // Only root + dir d remain (new versions).
  for (const auto& [key, size] : m.blocks_) {
    EXPECT_EQ(decode_block_key(key).type, BlockType::kDirectory);
  }
}

TEST(Volume, RemoveDirectoryRecursive) {
  Volume v("vol");
  std::vector<StoreOp> ops;
  v.write("d/a", 0, kB(8), 0, ops);
  v.write("d/e/b", 0, kB(8), 0, ops);
  v.flush(0, ops);
  ops.clear();
  v.remove("d", hours(1), ops);
  EXPECT_FALSE(v.exists("d"));
  EXPECT_FALSE(v.exists("d/e/b"));
  EXPECT_EQ(v.dir_count(), 1u);  // only the root
  EXPECT_EQ(v.file_count(), 0u);
}

TEST(Volume, RenameKeepsBlockKeys) {
  Volume v("vol");
  std::vector<StoreOp> ops;
  v.write("a/f", 0, kB(16), 0, ops);
  v.flush(0, ops);
  ops.clear();
  v.read("a/f", 0, kB(16), hours(1), ops);
  std::vector<Key> keys_before;
  for (const StoreOp& op : gets_only(ops)) {
    if (decode_block_key(op.key).type == BlockType::kData) {
      keys_before.push_back(op.key);
    }
  }

  ops.clear();
  v.rename("a/f", "b/g", hours(2), ops);
  EXPECT_FALSE(v.exists("a/f"));
  EXPECT_TRUE(v.exists("b/g"));

  ops.clear();
  v.read("b/g", 0, kB(16), hours(3), ops);
  std::vector<Key> keys_after;
  for (const StoreOp& op : gets_only(ops)) {
    if (decode_block_key(op.key).type == BlockType::kData) {
      keys_after.push_back(op.key);
    }
  }
  EXPECT_EQ(keys_before, keys_after);  // §4.2: renames keep original keys
}

TEST(Volume, RootKeyConstantAcrossUpdates) {
  Volume v("vol");
  const Key root = v.root_key();
  std::vector<StoreOp> ops;
  v.write("f1", 0, kB(8), 0, ops);
  v.flush(0, ops);
  v.write("f2", 0, kB(8), hours(1), ops);
  v.flush(hours(1), ops);
  EXPECT_EQ(v.root_key(), root);
  // Every put of the root key targeted the same key (in-place update).
  int root_puts = 0;
  for (const StoreOp& op : ops) {
    if (op.kind == StoreOp::Kind::kPut && op.key == root) ++root_puts;
  }
  EXPECT_EQ(root_puts, 2);
}

TEST(Volume, TraditionalFileSchemeOneObjectPerFile) {
  VolumeConfig config;
  config.scheme = KeyScheme::kTraditionalFile;
  Volume v("vol", config);
  std::vector<StoreOp> ops;
  v.write("d/f", 0, kB(100), 0, ops);
  v.flush(0, ops);
  StoreMirror m;
  m.apply(ops);
  // root + d + one file object.
  EXPECT_EQ(m.blocks_.size(), 3u);
  // Partial read fetches only the requested bytes from the one object.
  ops.clear();
  v.read("d/f", 0, kB(8), hours(1), ops);
  const auto gets = gets_only(ops);
  ASSERT_FALSE(gets.empty());
  EXPECT_EQ(gets.back().size, kB(8));
}

TEST(Volume, TraditionalBlockKeysNotClustered) {
  VolumeConfig config;
  config.scheme = KeyScheme::kTraditionalBlock;
  Volume v("vol", config);
  std::vector<StoreOp> ops;
  v.write("d/f", 0, kB(64), 0, ops);  // 8 data blocks
  v.flush(0, ops);
  // Hashed keys: the spread between min and max should span much of the
  // key space (random), unlike D2 keys.
  std::vector<Key> keys;
  for (const StoreOp& op : ops) {
    if (op.kind == StoreOp::Kind::kPut) keys.push_back(op.key);
  }
  ASSERT_GT(keys.size(), 4u);
  std::sort(keys.begin(), keys.end());
  EXPECT_GT(keys.back().ring_position() - keys.front().ring_position(), 0.3);
}

TEST(Volume, D2KeysOfFileAreContiguousRange) {
  Volume v("vol");
  std::vector<StoreOp> a_ops, b_ops;
  v.write("d/a", 0, kB(64), 0, a_ops);
  v.write("d/b", 0, kB(64), 0, b_ops);
  v.flush(0, a_ops);  // flush order: both files' blocks land in a_ops
  std::vector<Key> a_keys, b_keys;
  for (const StoreOp& op : a_ops) {
    if (op.kind != StoreOp::Kind::kPut) continue;
    const DecodedKey d = decode_block_key(op.key);
    if (d.type != BlockType::kData) continue;
    // Distinguish by path slot depth-2 value: file a got slot 1, b slot 2.
    if (d.path.slots[1] == 1) a_keys.push_back(op.key);
    if (d.path.slots[1] == 2) b_keys.push_back(op.key);
  }
  ASSERT_EQ(a_keys.size(), 8u);
  ASSERT_EQ(b_keys.size(), 8u);
  EXPECT_LT(*std::max_element(a_keys.begin(), a_keys.end()),
            *std::min_element(b_keys.begin(), b_keys.end()));
}

TEST(Volume, ErrorsOnBadUsage) {
  Volume v("vol");
  std::vector<StoreOp> ops;
  v.write("d/f", 0, kB(8), 0, ops);
  EXPECT_THROW(v.read("nope", 0, 8, 0, ops), PreconditionError);
  EXPECT_THROW(v.remove("nope", 0, ops), PreconditionError);
  EXPECT_THROW(v.write("d/f/sub", 0, 8, 0, ops), PreconditionError);  // file as dir
  EXPECT_THROW(v.file_size("d"), PreconditionError);
  EXPECT_THROW(v.rename("nope", "x", 0, ops), PreconditionError);
}

TEST(Volume, UncachedReadOpsListsEverything) {
  Volume v("vol");
  std::vector<StoreOp> ops;
  v.write("a/f", 0, kB(24), 0, ops);
  v.flush(0, ops);
  const auto uncached = v.uncached_read_ops("a/f");
  // root, a, inode, 3 data blocks.
  EXPECT_EQ(uncached.size(), 6u);
}

TEST(VolumeIntegrity, DigestStableAcrossReads) {
  Volume v("vol");
  std::vector<StoreOp> ops;
  v.write("a/f", 0, kB(24), 0, ops);
  v.flush(0, ops);
  const Sha1Digest d1 = v.integrity_digest();
  ops.clear();
  v.read("a/f", 0, kB(24), hours(1), ops);
  EXPECT_EQ(v.integrity_digest(), d1);  // reads don't change the chain
}

TEST(VolumeIntegrity, DigestChangesOnWrite) {
  Volume v("vol");
  std::vector<StoreOp> ops;
  v.write("a/f", 0, kB(24), 0, ops);
  v.flush(0, ops);
  const Sha1Digest before = v.integrity_digest();
  v.write("a/f", 0, kB(8), hours(1), ops);
  v.flush(hours(1), ops);
  EXPECT_NE(v.integrity_digest(), before);
}

TEST(VolumeIntegrity, DigestChangesOnRenameAndRemove) {
  Volume v("vol");
  std::vector<StoreOp> ops;
  v.write("a/f", 0, kB(8), 0, ops);
  v.write("a/g", 0, kB(8), 0, ops);
  v.flush(0, ops);
  const Sha1Digest before = v.integrity_digest();
  v.rename("a/f", "a/h", hours(1), ops);
  const Sha1Digest after_rename = v.integrity_digest();
  EXPECT_NE(after_rename, before);  // names are part of the signed tree
  v.remove("a/g", hours(2), ops);
  EXPECT_NE(v.integrity_digest(), after_rename);
}

TEST(VolumeIntegrity, IdenticalHistoriesIdenticalDigests) {
  auto build = [] {
    auto v = std::make_unique<Volume>("vol");
    std::vector<StoreOp> ops;
    v->write("a/f", 0, kB(24), 0, ops);
    v->write("b/g", 0, kB(4), seconds(1), ops);
    v->flush(minutes(1), ops);
    return v;
  };
  const auto v1 = build();
  const auto v2 = build();
  EXPECT_EQ(v1->integrity_digest(), v2->integrity_digest());
}

// ------------------------------------------------ child name order --

/// Namespace model whose directories keep their children in a std::map:
/// the order in which the volume must fold children into the integrity
/// digest and remove them. Block versions and file sizes are read back
/// from the volume (a D2 key carries its block's version), so the model
/// tracks only names and the path each node was created under. Every
/// directory holds a file named "keep", through whose metadata chain its
/// own metadata key is read.
class MapOrderedTree {
 public:
  struct Node {
    bool is_dir = true;
    std::string frozen_path;  // creation path; "" for the root
    std::map<std::string, std::unique_ptr<Node>> children;
  };

  explicit MapOrderedTree(const Volume& v) : v_(v) {}

  /// Creates `path` and any missing parent directories.
  void add(const std::string& path, bool is_dir) {
    Node* cur = &root_;
    const std::vector<std::string> parts = split_path(path);
    for (std::size_t i = 0; i < parts.size(); ++i) {
      std::unique_ptr<Node>& child = cur->children[parts[i]];
      if (child == nullptr) {
        child = std::make_unique<Node>();
        child->is_dir = is_dir || i + 1 < parts.size();
        child->frozen_path = cur->frozen_path + "/" + parts[i];
      }
      cur = child.get();
    }
  }

  void remove(const std::string& path) {
    const std::vector<std::string> parts = split_path(path);
    dir_of(parts)->children.erase(parts.back());
  }

  /// Moves `from` to `to`, whose parent exists; keeps its frozen path.
  void move(const std::string& from, const std::string& to) {
    const std::vector<std::string> src = split_path(from);
    const std::vector<std::string> dst = split_path(to);
    Node* from_dir = dir_of(src);
    std::unique_ptr<Node> n = std::move(from_dir->children.at(src.back()));
    from_dir->children.erase(src.back());
    dir_of(dst)->children.emplace(dst.back(), std::move(n));
  }

  /// Directory paths ("" is the root) and the files other than "keep".
  void list(std::vector<std::string>* dirs,
            std::vector<std::string>* files) const {
    dirs->clear();
    files->clear();
    list(root_, "", dirs, files);
  }

  bool is_dir(const std::string& path) const {
    const Node* n = find(path);
    return n != nullptr && n->is_dir;
  }
  bool exists(const std::string& path) const { return find(path) != nullptr; }

  Sha1Digest digest() const { return digest(root_, ""); }

  /// The removes the volume emits when `path` is removed with nothing in
  /// its write-back cache: children in map order, a file's data blocks
  /// before its inode, a directory's own block last.
  std::vector<StoreOp> removes(const std::string& path) const {
    std::vector<StoreOp> out;
    removes(*find(path), path, &out);
    return out;
  }

  std::uint64_t count(bool dirs) const { return count(root_, dirs); }

 private:
  /// The volume's keys for a full read of file `path`.
  struct Chain {
    std::vector<Key> meta;  // root .. the file's inode
    std::vector<Key> data;  // data blocks in block order
  };

  static std::string join(const std::string& dir, const std::string& name) {
    return dir.empty() ? name : dir + "/" + name;
  }
  static int depth(const std::string& path) {
    return static_cast<int>(split_path(path).size());
  }

  Chain chain(const std::string& file) const {
    Chain c;
    for (const StoreOp& op : v_.uncached_read_ops(file)) {
      (decode_block_key(op.key).type == BlockType::kData ? c.data : c.meta)
          .push_back(op.key);
    }
    return c;
  }
  /// Metadata key of node `path` (a directory's via its "keep" file).
  Key meta_key(const Node& n, const std::string& path) const {
    if (!n.is_dir) return chain(path).meta.back();
    const std::vector<Key> meta = chain(join(path, "keep")).meta;
    return meta.at(static_cast<std::size_t>(depth(path)));
  }

  const Node* find(const std::string& path) const {
    const Node* cur = &root_;
    for (const std::string& part : split_path(path)) {
      const auto it = cur->children.find(part);
      if (it == cur->children.end()) return nullptr;
      cur = it->second.get();
    }
    return cur;
  }
  Node* dir_of(const std::vector<std::string>& parts) {
    Node* cur = &root_;
    for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
      cur = cur->children.at(parts[i]).get();
    }
    return cur;
  }

  void list(const Node& n, const std::string& path,
            std::vector<std::string>* dirs,
            std::vector<std::string>* files) const {
    if (!n.is_dir) {
      if (!path.ends_with("/keep") && path != "keep") files->push_back(path);
      return;
    }
    dirs->push_back(path);
    for (const auto& [name, child] : n.children) {
      list(*child, join(path, name), dirs, files);
    }
  }

  /// Volume::node_digest's definition, with children in map order.
  Sha1Digest digest(const Node& n, const std::string& path) const {
    Sha1 h;
    h.update(n.frozen_path);
    h.update("|v");
    h.update(std::to_string(decode_block_key(meta_key(n, path)).version));
    if (n.is_dir) {
      for (const auto& [name, child] : n.children) {
        h.update("|child:");
        h.update(name);
        const Sha1Digest d = digest(*child, join(path, name));
        h.update(d.data(), d.size());
      }
    } else {
      h.update("|size:");
      h.update(std::to_string(v_.file_size(path)));
      for (const Key& k : chain(path).data) {
        h.update("|b");
        h.update(std::to_string(decode_block_key(k).version));
      }
    }
    return h.digest();
  }

  void removes(const Node& n, const std::string& path,
               std::vector<StoreOp>* out) const {
    if (n.is_dir) {
      for (const auto& [name, child] : n.children) {
        removes(*child, join(path, name), out);
      }
    } else {
      for (const Key& k : chain(path).data) {
        out->push_back(StoreOp{StoreOp::Kind::kRemove, k, 0});
      }
    }
    out->push_back(StoreOp{StoreOp::Kind::kRemove, meta_key(n, path), 0});
  }

  std::uint64_t count(const Node& n, bool dirs) const {
    std::uint64_t c = n.is_dir == dirs ? 1 : 0;
    for (const auto& [name, child] : n.children) c += count(*child, dirs);
    return c;
  }

  const Volume& v_;
  Node root_;
};

TEST(VolumeChildOrder, DigestRemoveAndRenameMatchMapOrderedReference) {
  // Names whose byte order differs from their numeric order ("f10" <
  // "f9"), plus case and punctuation, which also sort by byte value.
  const std::vector<std::string> names = {"f9",  "f10", "f1", "f100", "f09",
                                          "F2",  "g",   "10", "9",    "f10a",
                                          "a.b", "a-b", "a_b", "Z"};
  const std::vector<Bytes> sizes = {100, kB(4), kB(9), kB(20)};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Volume v("vol");
    MapOrderedTree ref(v);
    std::vector<StoreOp> ops;
    std::vector<std::string> dirs, files;
    SimTime now = 0;
    auto pick = [&rng](const std::vector<std::string>& from) {
      return from[rng.next_below(from.size())];
    };
    auto join = [](const std::string& dir, const std::string& name) {
      return dir.empty() ? name : dir + "/" + name;
    };
    auto remove_and_check = [&](const std::string& path) {
      // Committed first, so the remove emits exactly the current keys.
      v.flush(now, ops);
      ops.clear();
      const std::vector<StoreOp> want = ref.removes(path);
      v.remove(path, now, ops);
      ref.remove(path);
      EXPECT_EQ(ops, want) << "remove " << path;
    };
    v.write("keep", 0, 100, now, ops);
    ref.add("keep", false);
    int renames_across = 0;
    for (int step = 0; step < 300; ++step) {
      now += seconds(static_cast<std::int64_t>(rng.next_below(40)));
      ref.list(&dirs, &files);
      const std::string dir = pick(dirs);
      const std::string target = join(dir, pick(names));
      switch (rng.next_below(8)) {
        case 0:  // new directory
          if (!ref.exists(target)) {
            v.write(target + "/keep", 0, 100, now, ops);
            ref.add(target + "/keep", false);
          }
          break;
        case 1:
        case 2:  // new file, or an overwrite from its start
          if (!ref.is_dir(target)) {
            v.write(target, 0, sizes[rng.next_below(sizes.size())], now, ops);
            ref.add(target, false);
          }
          break;
        case 3: {  // a file moves to another (or its own) directory
          if (files.empty()) break;
          const std::string from = pick(files);
          const std::size_t slash = from.rfind('/');
          const std::string from_dir =
              slash == std::string::npos ? "" : from.substr(0, slash);
          std::string to = target;
          std::string new_dir;
          if (rng.bernoulli(0.3)) {
            // Into a new directory beside the file, which the rename
            // creates in the directory the file leaves.
            new_dir = join(from_dir, pick(names));
            to = join(new_dir, pick(names));
            if (ref.exists(new_dir)) break;
          }
          if (ref.exists(to)) break;
          renames_across += to.substr(0, to.rfind('/') + 1) !=
                            from.substr(0, slash + 1);
          v.rename(from, to, now, ops);
          if (!new_dir.empty()) {
            v.write(new_dir + "/keep", 0, 100, now, ops);
            ref.add(new_dir + "/keep", false);
          }
          ref.move(from, to);
          break;
        }
        case 4: {  // a directory moves, never below itself
          const std::string from = pick(dirs);
          if (!from.empty() && !ref.exists(target) && target != from &&
              !target.starts_with(from + "/")) {
            v.rename(from, target, now, ops);
            ref.move(from, target);
          }
          break;
        }
        case 5:
        case 6:
          if (!files.empty()) remove_and_check(pick(files));
          break;
        default:
          if (dirs.size() > 1 && rng.bernoulli(0.3)) {
            remove_and_check(dirs[1 + rng.next_below(dirs.size() - 1)]);
          }
          break;
      }
      ops.clear();
      ASSERT_EQ(v.integrity_digest(), ref.digest()) << "step " << step;
      ASSERT_EQ(v.file_count(), ref.count(false));
      ASSERT_EQ(v.dir_count(), ref.count(true));
      ref.list(&dirs, &files);
      for (const std::string& d : dirs) ASSERT_TRUE(v.is_directory(d)) << d;
      for (const std::string& f : files) ASSERT_TRUE(v.is_file(f)) << f;
    }
    EXPECT_GT(renames_across, 0);
  }
}

class VolumeSchemeSweep : public ::testing::TestWithParam<KeyScheme> {};

TEST_P(VolumeSchemeSweep, WriteReadRemoveLifecycle) {
  VolumeConfig config;
  config.scheme = GetParam();
  Volume v("vol", config);
  StoreMirror m;
  std::vector<StoreOp> ops;
  // Create 20 files across directories, read them, remove half.
  for (int i = 0; i < 20; ++i) {
    v.write("dir" + std::to_string(i % 4) + "/f" + std::to_string(i), 0,
            kB(4) * (1 + i % 5), static_cast<SimTime>(i) * seconds(1), ops);
  }
  v.flush(minutes(1), ops);
  m.apply(ops);
  ops.clear();
  for (int i = 0; i < 20; ++i) {
    v.read("dir" + std::to_string(i % 4) + "/f" + std::to_string(i), 0, kB(20),
           minutes(2) + static_cast<SimTime>(i) * seconds(1), ops);
  }
  m.apply(ops);
  EXPECT_GT(m.gets_, 0);
  ops.clear();
  for (int i = 0; i < 10; ++i) {
    v.remove("dir" + std::to_string(i % 4) + "/f" + std::to_string(i),
             hours(1) + static_cast<SimTime>(i) * seconds(1), ops);
  }
  v.flush(hours(2), ops);
  m.apply(ops);
  EXPECT_EQ(v.file_count(), 10u);
  EXPECT_GT(m.removes_, 0);
}

INSTANTIATE_TEST_SUITE_P(Schemes, VolumeSchemeSweep,
                         ::testing::Values(KeyScheme::kD2,
                                           KeyScheme::kTraditionalBlock,
                                           KeyScheme::kTraditionalFile),
                         [](const auto& info) {
                           return to_string(info.param) == "d2" ? "D2"
                                  : to_string(info.param) == "traditional"
                                      ? "TraditionalBlock"
                                      : "TraditionalFile";
                         });

}  // namespace
}  // namespace d2::fs
