#include "fs/volume.h"

#include <algorithm>

#include "common/assert.h"
#include "dht/consistent_hash.h"

namespace d2::fs {

std::string to_string(KeyScheme scheme) {
  switch (scheme) {
    case KeyScheme::kD2:
      return "d2";
    case KeyScheme::kTraditionalBlock:
      return "traditional";
    case KeyScheme::kTraditionalFile:
      return "traditional-file";
  }
  return "?";
}

struct Volume::Node {
  Node* parent = nullptr;
  std::string name;
  bool is_dir = false;
  EncodedPath epath;
  /// Path at creation time; key material is frozen across renames (§4.2).
  std::string frozen_path;
  /// Latest version of this node's metadata block (0 = none yet). For
  /// kTraditionalFile file nodes this is the whole-file object version.
  std::uint32_t meta_version = 0;
  // Directory state: the children, sorted by their own `name` (the order
  // the digest and recursive removal visit them in). Each name is stored
  // once, in its child.
  std::vector<std::unique_ptr<Node>> children;
  std::uint16_t next_slot = 1;
  // File state.
  Bytes size = 0;
  std::vector<std::uint32_t> data_versions;  // per 8 KB block; 0 = hole

  bool is_root() const { return parent == nullptr; }

  /// First child whose name is not below `n`: child `n`'s position, or
  /// where it would be inserted.
  std::vector<std::unique_ptr<Node>>::iterator child_pos(std::string_view n) {
    return std::lower_bound(
        children.begin(), children.end(), n,
        [](const std::unique_ptr<Node>& c, std::string_view v) {
          return std::string_view(c->name) < v;
        });
  }
  /// Child `n`, or nullptr.
  Node* child(std::string_view n) {
    const auto it = child_pos(n);
    return it != children.end() && (*it)->name == n ? it->get() : nullptr;
  }
  /// Inserts `c` in name order; no child of that name may exist.
  Node* adopt(std::unique_ptr<Node> c) {
    c->parent = this;
    return children.insert(child_pos(c->name), std::move(c))->get();
  }
};

namespace {

/// Calls f(node) for every node from the root down to `n`.
template <class Node, class F>
void walk_from_root(Node* n, const F& f) {
  if (n->parent != nullptr) walk_from_root(n->parent, f);
  f(n);
}

}  // namespace

Volume::Volume(std::string name, VolumeConfig config)
    : name_(std::move(name)),
      config_(config),
      volume_id_(make_volume_id(name_)),
      root_(std::make_unique<Node>()),
      cache_(config.writeback_ttl) {
  D2_REQUIRE(config_.inline_threshold >= 0 &&
             config_.inline_threshold <= kBlockSize);
  root_->is_dir = true;
  dirs_ = 1;
  dirty_meta(root_.get(), 0);
}

Volume::~Volume() = default;

// ---------------------------------------------------------------- keys --

Key Volume::meta_key(const Node& n, std::uint32_t version) const {
  switch (config_.scheme) {
    case KeyScheme::kD2:
      return encode_block_key(volume_id_, n.epath,
                              n.is_dir ? BlockType::kDirectory : BlockType::kInode,
                              0, version);
    case KeyScheme::kTraditionalBlock:
      return dht::hashed_key(name_ + "|" + n.frozen_path + "|m|" +
                             std::to_string(version));
    case KeyScheme::kTraditionalFile:
      return dht::hashed_key(name_ + "|" + n.frozen_path +
                             (n.is_dir ? "|d|" : "|f|") + std::to_string(version));
  }
  D2_ASSERT(false);
  return Key{};
}

Key Volume::data_key(const Node& n, std::uint64_t block_index,
                     std::uint32_t version) const {
  switch (config_.scheme) {
    case KeyScheme::kD2:
      return encode_block_key(volume_id_, n.epath, BlockType::kData, block_index,
                              version);
    case KeyScheme::kTraditionalBlock:
      return dht::hashed_key(name_ + "|" + n.frozen_path + "|b|" +
                             std::to_string(block_index) + "|" +
                             std::to_string(version));
    case KeyScheme::kTraditionalFile:
      break;
  }
  D2_ASSERT_MSG(false, "traditional-file has no per-block keys");
  return Key{};
}

Bytes Volume::meta_block_size(const Node& n) const {
  if (n.is_dir) {
    return std::min<Bytes>(kBlockSize,
                           64 + 32 * static_cast<Bytes>(n.children.size()));
  }
  if (config_.scheme == KeyScheme::kTraditionalFile) {
    return 64 + n.size;  // the whole-file object
  }
  if (n.data_versions.empty()) {
    return 64 + n.size;  // inline file data lives in the inode
  }
  return 256;  // inode with block pointers + content hashes
}

Bytes Volume::data_block_size(const Node& n, std::uint64_t block_index) const {
  const auto start = static_cast<Bytes>(block_index) * kBlockSize;
  D2_ASSERT(start < n.size);
  return std::min<Bytes>(kBlockSize, n.size - start);
}

Key Volume::root_key() const { return meta_key(*root_, 1); }

// ------------------------------------------------------------- resolve --

Volume::Node* Volume::resolve(std::string_view path) const {
  Node* cur = root_.get();
  std::size_t pos = 0;
  for (std::string_view c = next_path_component(path, &pos); !c.empty();
       c = next_path_component(path, &pos)) {
    if (!cur->is_dir) return nullptr;
    cur = cur->child(c);
    if (cur == nullptr) return nullptr;
  }
  return cur;
}

Volume::Node* Volume::resolve_parent(std::string_view path,
                                     std::string_view* leaf) const {
  std::size_t pos = 0;
  std::string_view c = next_path_component(path, &pos);
  if (c.empty()) return nullptr;
  Node* cur = root_.get();
  for (std::string_view next = next_path_component(path, &pos); !next.empty();
       c = next, next = next_path_component(path, &pos)) {
    if (!cur->is_dir) return nullptr;
    cur = cur->child(c);
    if (cur == nullptr) return nullptr;
  }
  *leaf = c;
  return cur->is_dir ? cur : nullptr;
}

bool Volume::exists(std::string_view path) const {
  return resolve(path) != nullptr;
}

bool Volume::is_directory(std::string_view path) const {
  const Node* n = resolve(path);
  return n != nullptr && n->is_dir;
}

bool Volume::is_file(std::string_view path) const {
  const Node* n = resolve(path);
  return n != nullptr && !n->is_dir;
}

Bytes Volume::file_size(std::string_view path) const {
  const Node* n = resolve(path);
  D2_REQUIRE_MSG(n != nullptr && !n->is_dir, "not a file: " + std::string(path));
  return n->size;
}

// ------------------------------------------------------------ dirtying --

std::uint16_t Volume::allocate_slot(Node* parent) {
  D2_REQUIRE_MSG(parent->next_slot != 0, "directory slot space exhausted");
  return parent->next_slot++;
}

void Volume::dirty_meta(Node* n, SimTime now) {
  const Bytes msize = meta_block_size(*n);
  if (n->is_root()) {
    // The root block is updated in place: constant key, no old version.
    n->meta_version = 1;
    const Key k = meta_key(*n, 1);
    if (cache_.has_pending(k)) {
      cache_.touch_put(k, msize, now);
    } else {
      cache_.stage_put(k, msize, now, std::nullopt);
    }
    return;
  }
  if (n->meta_version == 0) {
    n->meta_version = 1;
    cache_.stage_put(meta_key(*n, 1), msize, now, std::nullopt);
    return;
  }
  const Key cur = meta_key(*n, n->meta_version);
  if (cache_.has_pending(cur)) {
    cache_.touch_put(cur, msize, now);
  } else {
    const std::uint32_t old = n->meta_version++;
    cache_.stage_put(meta_key(*n, n->meta_version), msize, now,
                     meta_key(*n, old));
  }
}

void Volume::dirty_meta_chain(Node* n, SimTime now) {
  for (Node* cur = n; cur != nullptr; cur = cur->parent) {
    dirty_meta(cur, now);
  }
}

void Volume::dirty_data_block(Node* n, std::uint64_t block_index, SimTime now) {
  if (n->data_versions.size() <= block_index) {
    n->data_versions.resize(block_index + 1, 0);
  }
  std::uint32_t& ver = n->data_versions[block_index];
  const Bytes bsize = data_block_size(*n, block_index);
  if (ver == 0) {
    ver = 1;
    cache_.stage_put(data_key(*n, block_index, 1), bsize, now, std::nullopt);
    return;
  }
  const Key cur = data_key(*n, block_index, ver);
  if (cache_.has_pending(cur)) {
    cache_.touch_put(cur, bsize, now);
  } else {
    const std::uint32_t old = ver++;
    cache_.stage_put(data_key(*n, block_index, ver), bsize, now,
                     data_key(*n, block_index, old));
  }
}

void Volume::emit_remove_of_block(const Key& current_key, bool has_version,
                                  std::vector<StoreOp>& out) {
  if (!has_version) return;
  if (cache_.has_pending(current_key)) {
    // The latest version never committed; only its predecessor (if any)
    // lives in the store.
    std::optional<Key> old = cache_.cancel_put(current_key);
    if (old) out.push_back(StoreOp{StoreOp::Kind::kRemove, *old, 0});
  } else {
    out.push_back(StoreOp{StoreOp::Kind::kRemove, current_key, 0});
  }
}

// ------------------------------------------------------------ creation --

Volume::Node* Volume::create_child(Node* parent, std::string_view name,
                                   bool is_dir, SimTime now) {
  auto node = std::make_unique<Node>();
  node->name = name;
  node->is_dir = is_dir;
  const std::uint16_t slot = allocate_slot(parent);
  node->epath = extend_path(parent->epath, slot, name);
  node->frozen_path = parent->frozen_path;
  node->frozen_path += '/';
  node->frozen_path += name;
  Node* raw = parent->adopt(std::move(node));
  ++(is_dir ? dirs_ : files_);
  dirty_meta(raw, now);
  dirty_meta(parent, now);
  return raw;
}

Volume::Node* Volume::ensure_child_dir(Node* dir, std::string_view name,
                                       SimTime now) {
  D2_REQUIRE_MSG(dir->is_dir, "path component is a file: " + std::string(name));
  Node* child = dir->child(name);
  return child != nullptr ? child : create_child(dir, name, true, now);
}

Volume::Node* Volume::ensure_parent(std::string_view path, std::string_view* leaf,
                                    SimTime now) {
  std::size_t pos = 0;
  std::string_view c = next_path_component(path, &pos);
  Node* cur = root_.get();
  if (!c.empty()) {
    for (std::string_view next = next_path_component(path, &pos);
         !next.empty(); c = next, next = next_path_component(path, &pos)) {
      cur = ensure_child_dir(cur, c, now);
    }
  }
  *leaf = c;
  D2_REQUIRE_MSG(cur->is_dir, "not a directory");
  return cur;
}

// ------------------------------------------------------------- actions --

void Volume::write(std::string_view path, Bytes offset, Bytes len, SimTime now,
                   std::vector<StoreOp>& out) {
  D2_REQUIRE(offset >= 0 && len >= 0);
  cache_.collect_expired(now, out);
  std::string_view leaf;
  Node* parent = ensure_parent(path, &leaf, now);
  D2_REQUIRE_MSG(!leaf.empty(), "empty path");
  Node* file = parent->child(leaf);
  if (file == nullptr) {
    file = create_child(parent, leaf, false, now);
  } else {
    D2_REQUIRE_MSG(!file->is_dir, "write to a directory: " + std::string(path));
  }

  const Bytes old_size = file->size;
  const Bytes new_size = std::max(old_size, offset + len);
  file->size = new_size;

  if (config_.scheme == KeyScheme::kTraditionalFile) {
    dirty_meta(file, now);  // the whole-file object
  } else {
    const bool was_inline = file->data_versions.empty();
    const bool fits_inline = new_size <= config_.inline_threshold;
    if (was_inline && fits_inline) {
      // Data lives in the inode; dirtying the inode below covers it.
    } else if (was_inline) {
      // Spill out of the inode: materialize every data block.
      const auto nblocks =
          static_cast<std::uint64_t>((new_size + kBlockSize - 1) / kBlockSize);
      for (std::uint64_t i = 0; i < nblocks; ++i) {
        dirty_data_block(file, i, now);
      }
    } else {
      if (len > 0) {
        const auto first = static_cast<std::uint64_t>(offset / kBlockSize);
        const auto last =
            static_cast<std::uint64_t>((offset + len - 1) / kBlockSize);
        for (std::uint64_t i = first; i <= last; ++i) {
          dirty_data_block(file, i, now);
        }
      }
      if (new_size > old_size && old_size > 0) {
        // The old tail block's size changed, and any blocks appended
        // beyond the written range (holes) materialize as well.
        const auto first = static_cast<std::uint64_t>((old_size - 1) / kBlockSize);
        const auto last = static_cast<std::uint64_t>((new_size - 1) / kBlockSize);
        for (std::uint64_t i = first; i <= last; ++i) {
          dirty_data_block(file, i, now);
        }
      }
    }
    dirty_meta(file, now);  // inode: size / block pointers / inline data
  }
  dirty_meta_chain(file->parent, now);
}

void Volume::read_meta_chain(Node* leaf, SimTime now, std::vector<StoreOp>& out) {
  walk_from_root(leaf, [&](const Node* n) {
    if (config_.scheme == KeyScheme::kTraditionalFile && !n->is_dir) {
      return;  // the file object get carries the requested byte count
    }
    D2_ASSERT(n->meta_version > 0);
    const Key k = meta_key(*n, n->meta_version);
    if (!cache_.is_fresh(k, now)) {
      out.push_back(StoreOp{StoreOp::Kind::kGet, k, meta_block_size(*n)});
      cache_.mark_clean(k, now);
    }
  });
}

void Volume::read(std::string_view path, Bytes offset, Bytes len, SimTime now,
                  std::vector<StoreOp>& out) {
  D2_REQUIRE(offset >= 0 && len >= 0);
  cache_.collect_expired(now, out);
  Node* file = resolve(path);
  D2_REQUIRE_MSG(file != nullptr, "read of missing path: " + std::string(path));
  D2_REQUIRE_MSG(!file->is_dir, "read of a directory: " + std::string(path));

  read_meta_chain(file, now, out);

  if (offset >= file->size || len == 0) return;
  const Bytes end = std::min(file->size, offset + len);

  if (config_.scheme == KeyScheme::kTraditionalFile) {
    D2_ASSERT(file->meta_version > 0);
    const Key k = meta_key(*file, file->meta_version);
    if (!cache_.is_fresh(k, now)) {
      out.push_back(StoreOp{StoreOp::Kind::kGet, k, end - offset});
      cache_.mark_clean(k, now);
    }
    return;
  }

  if (file->data_versions.empty()) return;  // inline: the inode get covered it

  const auto first = static_cast<std::uint64_t>(offset / kBlockSize);
  const auto last = static_cast<std::uint64_t>((end - 1) / kBlockSize);
  for (std::uint64_t i = first; i <= last; ++i) {
    if (i >= file->data_versions.size() || file->data_versions[i] == 0) {
      continue;  // hole
    }
    const Key k = data_key(*file, i, file->data_versions[i]);
    if (!cache_.is_fresh(k, now)) {
      out.push_back(StoreOp{StoreOp::Kind::kGet, k, data_block_size(*file, i)});
      cache_.mark_clean(k, now);
    }
  }
}

void Volume::remove_node_blocks(Node* n, SimTime now, std::vector<StoreOp>& out) {
  D2_REQUIRE_MSG(n != nullptr, "removing a null tree node");
  if (n->is_dir) {
    for (const std::unique_ptr<Node>& child : n->children) {
      remove_node_blocks(child.get(), now, out);
    }
    n->children.clear();
    --dirs_;
  } else {
    --files_;
    if (config_.scheme != KeyScheme::kTraditionalFile) {
      for (std::uint64_t i = 0; i < n->data_versions.size(); ++i) {
        if (n->data_versions[i] == 0) continue;
        emit_remove_of_block(data_key(*n, i, n->data_versions[i]), true, out);
      }
    }
  }
  if (!n->is_root()) {
    emit_remove_of_block(meta_key(*n, std::max<std::uint32_t>(1, n->meta_version)),
                         n->meta_version > 0, out);
  }
}

void Volume::remove(std::string_view path, SimTime now,
                    std::vector<StoreOp>& out) {
  cache_.collect_expired(now, out);
  std::string_view leaf;
  Node* parent = resolve_parent(path, &leaf);
  D2_REQUIRE_MSG(parent != nullptr, "remove of missing path: " + std::string(path));
  const auto it = parent->child_pos(leaf);
  D2_REQUIRE_MSG(it != parent->children.end() && (*it)->name == leaf,
                 "remove of missing path: " + std::string(path));
  remove_node_blocks(it->get(), now, out);
  parent->children.erase(it);
  dirty_meta_chain(parent, now);
}

void Volume::rename(std::string_view from, std::string_view to, SimTime now,
                    std::vector<StoreOp>& out) {
  cache_.collect_expired(now, out);
  std::string_view from_leaf;
  Node* from_parent = resolve_parent(from, &from_leaf);
  D2_REQUIRE_MSG(from_parent != nullptr, "rename of missing path: " + std::string(from));
  D2_REQUIRE_MSG(from_parent->child(from_leaf) != nullptr,
                 "rename of missing path: " + std::string(from));

  std::string_view to_leaf;
  Node* to_parent = ensure_parent(to, &to_leaf, now);
  D2_REQUIRE_MSG(!to_leaf.empty(), "empty rename target");
  D2_REQUIRE_MSG(to_parent->child(to_leaf) == nullptr,
                 "rename target exists: " + std::string(to));

  // ensure_parent may have created directories in from_parent, so the
  // source is looked up again before it is moved out.
  const auto it = from_parent->child_pos(from_leaf);
  std::unique_ptr<Node> node = std::move(*it);
  from_parent->children.erase(it);
  node->name = to_leaf;
  // Keys (epath / frozen_path) intentionally unchanged: the new parent
  // points at the file's original location (§4.2).
  to_parent->adopt(std::move(node));

  dirty_meta_chain(from_parent, now);
  dirty_meta_chain(to_parent, now);
}

void Volume::mkdir(std::string_view path, SimTime now,
                   std::vector<StoreOp>& out) {
  cache_.collect_expired(now, out);
  std::string_view leaf;
  Node* dir = ensure_parent(path, &leaf, now);
  if (!leaf.empty()) dir = ensure_child_dir(dir, leaf, now);
  D2_REQUIRE_MSG(dir->is_dir, "not a directory");
  dirty_meta_chain(dir, now);
}

void Volume::flush(SimTime now, std::vector<StoreOp>& out) {
  cache_.collect_expired(now, out);
  cache_.flush_all(now, out);
}

Sha1Digest Volume::node_digest(const Node& n) const {
  // The "content hash" of a block in this simulation is a digest of its
  // identity (key material + version + size); a real implementation would
  // hash the bytes. Parents fold in their children's digests, giving the
  // CFS-style chain where the root digest authenticates everything.
  Sha1 h;
  h.update(n.frozen_path);
  h.update("|v");
  h.update(std::to_string(n.meta_version));
  if (n.is_dir) {
    for (const std::unique_ptr<Node>& child : n.children) {
      h.update("|child:");
      h.update(child->name);
      const Sha1Digest d = node_digest(*child);
      h.update(d.data(), d.size());
    }
  } else {
    h.update("|size:");
    h.update(std::to_string(n.size));
    for (std::uint32_t ver : n.data_versions) {
      h.update("|b");
      h.update(std::to_string(ver));
    }
  }
  return h.digest();
}

Sha1Digest Volume::integrity_digest() const { return node_digest(*root_); }

std::vector<StoreOp> Volume::uncached_read_ops(std::string_view path) const {
  Node* file = resolve(path);
  D2_REQUIRE_MSG(file != nullptr && !file->is_dir, "not a file: " + std::string(path));
  std::vector<StoreOp> out;
  walk_from_root(file, [&](const Node* n) {
    if (config_.scheme == KeyScheme::kTraditionalFile && !n->is_dir) return;
    if (n->meta_version == 0) return;
    out.push_back(StoreOp{StoreOp::Kind::kGet, meta_key(*n, n->meta_version),
                          meta_block_size(*n)});
  });
  if (config_.scheme == KeyScheme::kTraditionalFile) {
    if (file->meta_version > 0 && file->size > 0) {
      out.push_back(StoreOp{StoreOp::Kind::kGet,
                            meta_key(*file, file->meta_version), file->size});
    }
    return out;
  }
  for (std::uint64_t i = 0; i < file->data_versions.size(); ++i) {
    if (file->data_versions[i] == 0) continue;
    out.push_back(StoreOp{StoreOp::Kind::kGet,
                          data_key(*file, i, file->data_versions[i]),
                          data_block_size(*file, i)});
  }
  return out;
}

}  // namespace d2::fs
