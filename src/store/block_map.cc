#include "store/block_map.h"

#include <algorithm>

#include "common/assert.h"

namespace d2::store {

BlockMap::BlockMap(int node_count)
    : node_count_(node_count),
      primary_count_(static_cast<std::size_t>(node_count), 0),
      primary_bytes_(static_cast<std::size_t>(node_count), 0),
      physical_bytes_(static_cast<std::size_t>(node_count), 0) {
  D2_REQUIRE(node_count > 0);
}

void BlockMap::account_add_data(int node, Bytes size) {
  physical_bytes_[static_cast<std::size_t>(node)] += size;
}

void BlockMap::account_remove_data(int node, Bytes size) {
  physical_bytes_[static_cast<std::size_t>(node)] -= size;
  D2_ASSERT(physical_bytes_[static_cast<std::size_t>(node)] >= 0);
}

void BlockMap::account_add_primary(int node, Bytes size) {
  primary_count_[static_cast<std::size_t>(node)] += 1;
  primary_bytes_[static_cast<std::size_t>(node)] += size;
}

void BlockMap::account_remove_primary(int node, Bytes size) {
  primary_count_[static_cast<std::size_t>(node)] -= 1;
  primary_bytes_[static_cast<std::size_t>(node)] -= size;
  D2_ASSERT(primary_count_[static_cast<std::size_t>(node)] >= 0);
}

std::uint32_t BlockMap::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    BlockSlot& bs = slab_[slot];
    free_head_ = bs.next_free;
    bs.next_free = kLiveSlot;
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(slab_.size());
  D2_REQUIRE_MSG(slot < BlockHandle::kMaxSlots,
                 "block map slot space exhausted");
  slab_.emplace_back();
  return slot;
}

void BlockMap::release_slot(std::uint32_t slot) {
  BlockSlot& bs = slab_[slot];
  bs.state = BlockState{};  // frees the member vectors, as erasing did
  // Generation 0 is never issued, so the default handle names no block.
  bs.generation = bs.generation == BlockHandle::kGenerationMask
                      ? 1
                      : bs.generation + 1;
  bs.next_free = free_head_;
  free_head_ = slot;
}

BlockHandle BlockMap::insert(const Key& k, Bytes size,
                             const std::vector<int>& nodes,
                             Bytes member_bytes) {
  D2_REQUIRE(!nodes.empty());
  D2_REQUIRE_MSG(size >= 0, "negative block size");
  D2_REQUIRE_MSG(member_bytes <= size, "member bytes exceed block size");
  for (int n : nodes) D2_REQUIRE(n >= 0 && n < node_count_);
  // Index first: it REQUIREs the key is new, and neither the slot nor the
  // accounting below may be taken for a rejected duplicate.
  std::uint32_t& indexed = index_.insert(k, std::uint32_t{kNoSlot});
  const std::uint32_t slot = acquire_slot();
  indexed = slot;
  BlockSlot& bs = slab_[slot];
  BlockState& b = bs.state;
  b.size = size;
  b.member_bytes = member_bytes < 0 ? size : member_bytes;
  b.replicas.reserve(nodes.size());
  for (int n : nodes) {
    b.replicas.push_back(Replica{.fetch_timer = 0,
                                 .fetch_due = kSimTimeNever,
                                 .node = n,
                                 .has_data = true,
                                 .fetch_in_flight = false});
    account_add_data(n, b.member_bytes);
  }
  account_add_primary(nodes.front(), size);
  total_bytes_ += size;
  D2_PARANOID_AUDIT(if (audit_gate_.due(index_.size())) check_invariants());
  return BlockHandle(slot, bs.generation);
}

void BlockMap::erase(const Key& k) {
  const std::uint32_t* slot = index_.find(k);
  D2_REQUIRE_MSG(slot != nullptr, "erasing unknown block");
  const std::uint32_t freed = *slot;
  BlockState& b = slab_[freed].state;
  for (const Replica& r : b.replicas) {
    if (r.has_data) account_remove_data(r.node, b.member_bytes);
  }
  for (int n : b.stale_holders) account_remove_data(n, b.member_bytes);
  account_remove_primary(b.replicas.front().node, b.size);
  total_bytes_ -= b.size;
  index_.erase(k);
  release_slot(freed);
  D2_PARANOID_AUDIT(if (audit_gate_.due(index_.size())) check_invariants());
}

BlockHandle BlockMap::handle_of(const Key& k) const {
  const std::uint32_t* slot = index_.find(k);
  if (slot == nullptr) return BlockHandle{};
  return BlockHandle(*slot, slab_[*slot].generation);
}

std::int64_t BlockMap::primary_count(int node) const {
  D2_REQUIRE(node >= 0 && node < node_count_);
  return primary_count_[static_cast<std::size_t>(node)];
}

Bytes BlockMap::primary_bytes(int node) const {
  D2_REQUIRE(node >= 0 && node < node_count_);
  return primary_bytes_[static_cast<std::size_t>(node)];
}

Bytes BlockMap::physical_bytes(int node) const {
  D2_REQUIRE(node >= 0 && node < node_count_);
  return physical_bytes_[static_cast<std::size_t>(node)];
}

std::optional<Key> BlockMap::median_primary_key(const Key& from,
                                                const Key& to) const {
  // Two allocation-free walks: count, then select the median element.
  auto& self = const_cast<BlockMap&>(*this);
  std::size_t n = 0;
  self.walk_in_arc(from, to, [&n](const Key&, BlockState&) {
    ++n;
    return true;
  });
  if (n < 2) return std::nullopt;
  // The light node's new ID is the key of the last block in the first
  // half, so it takes ceil(half) blocks: keys (from, new_id].
  const std::size_t target = n / 2 - 1;
  std::size_t i = 0;
  Key mid;
  self.walk_in_arc(from, to, [&](const Key& k, BlockState&) {
    if (i == target) {
      mid = k;
      return false;
    }
    ++i;
    return true;
  });
  if (mid == to) return std::nullopt;  // would collide with the heavy node
  return mid;
}

bool BlockMap::reassign_replicas(const Key& k, BlockState& b,
                                 const std::vector<int>& nodes) {
  D2_REQUIRE(!nodes.empty());
  D2_DCHECK_MSG(find_mutable(k) == &b, "reassigning a state that is not k's");

  if (std::equal(b.replicas.begin(), b.replicas.end(), nodes.begin(),
                 nodes.end(),
                 [](const Replica& r, int n) { return r.node == n; })) {
    prune_stale(b);
    D2_PARANOID_AUDIT(if (audit_gate_.due(index_.size())) check_invariants());
    return false;
  }

  const int old_primary = b.replicas.front().node;
  const int new_primary = nodes.front();

  // Does any *new* member lack data? Old data copies may then be needed
  // as fetch sources.
  auto old_state = [&b](int node) -> const Replica* {
    for (const Replica& r : b.replicas) {
      if (r.node == node) return &r;
    }
    return nullptr;
  };
  bool new_set_missing_data = false;
  for (int n : nodes) {
    const Replica* r = old_state(n);
    if (r == nullptr || !r->has_data) {
      new_set_missing_data = true;
      break;
    }
  }

  std::vector<Replica>& new_replicas = next_replicas_;
  new_replicas.clear();
  for (int n : nodes) {
    if (const Replica* r = old_state(n)) {
      new_replicas.push_back(*r);
      continue;
    }
    // A joining member starts with no pending fetch timer, even if it
    // held this block's set before: timers belong to one membership.
    const auto stale =
        std::find(b.stale_holders.begin(), b.stale_holders.end(), n);
    const bool holds_copy = stale != b.stale_holders.end();
    // A rejoining stale holder already physically holds the block.
    if (holds_copy) b.stale_holders.erase(stale);
    new_replicas.push_back(Replica{.fetch_timer = 0,
                                   .fetch_due = kSimTimeNever,
                                   .node = n,
                                   .has_data = holds_copy,
                                   .fetch_in_flight = false});
  }

  // Departing members: keep data as stale holder only while needed.
  for (const Replica& r : b.replicas) {
    if (std::find(nodes.begin(), nodes.end(), r.node) != nodes.end()) continue;
    if (!r.has_data) continue;
    if (new_set_missing_data) {
      b.stale_holders.push_back(r.node);  // physical bytes stay accounted
    } else {
      account_remove_data(r.node, b.member_bytes);
    }
  }

  b.replicas.assign(new_replicas.begin(), new_replicas.end());

  if (old_primary != new_primary) {
    account_remove_primary(old_primary, b.size);
    account_add_primary(new_primary, b.size);
  }
  prune_stale(b);
  D2_PARANOID_AUDIT(if (audit_gate_.due(index_.size())) check_invariants());
  return true;
}

void BlockMap::mark_data(BlockHandle h, BlockState& b, int node) {
  D2_DCHECK_MSG(at(h) == &b, "marking a state that is not the handle's");
  for (Replica& r : b.replicas) {
    if (r.node == node) {
      D2_REQUIRE_MSG(!r.has_data, "replica already has data");
      r.has_data = true;
      r.fetch_in_flight = false;
      account_add_data(node, b.member_bytes);
      prune_stale(b);
      D2_PARANOID_AUDIT(if (audit_gate_.due(index_.size()))
                            check_invariants());
      return;
    }
  }
  D2_REQUIRE_MSG(false, "mark_data on non-replica node");
}

void BlockMap::mark_missing(const Key& k, int node) {
  BlockState* bp = find_mutable(k);
  D2_REQUIRE_MSG(bp != nullptr, "mark_missing on unknown block");
  BlockState& b = *bp;
  for (Replica& r : b.replicas) {
    if (r.node == node) {
      D2_REQUIRE_MSG(r.has_data, "replica already missing data");
      r.has_data = false;
      r.fetch_in_flight = false;
      account_remove_data(node, b.member_bytes);
      D2_PARANOID_AUDIT(if (audit_gate_.due(index_.size()))
                            check_invariants());
      return;
    }
  }
  D2_REQUIRE_MSG(false, "mark_missing on non-replica node");
}

void BlockMap::drop_stale(const Key& k, int node) {
  BlockState* bp = find_mutable(k);
  D2_REQUIRE_MSG(bp != nullptr, "drop_stale on unknown block");
  BlockState& b = *bp;
  const auto it =
      std::find(b.stale_holders.begin(), b.stale_holders.end(), node);
  if (it == b.stale_holders.end()) return;
  b.stale_holders.erase(it);
  account_remove_data(node, b.member_bytes);
  D2_PARANOID_AUDIT(if (audit_gate_.due(index_.size())) check_invariants());
}

void BlockMap::prune_stale(BlockState& b) {
  if (b.stale_holders.empty()) return;
  for (const Replica& r : b.replicas) {
    if (!r.has_data) return;  // still needed as fetch sources
  }
  for (int n : b.stale_holders) account_remove_data(n, b.member_bytes);
  b.stale_holders.clear();
}

void BlockMap::check_slab() const {
  const std::size_t slots = slab_.size();
  // Free list: in-range links, no cycles, only free slots on it.
  std::vector<char> on_free(slots, 0);
  std::size_t free_count = 0;
  for (std::uint32_t i = free_head_; i != kNoSlot; i = slab_[i].next_free) {
    D2_ASSERT_MSG(i < slots, "block map: slab free-list link out of range");
    D2_ASSERT_MSG(on_free[i] == 0, "block map: slab free-list cycle");
    on_free[i] = 1;
    ++free_count;
  }
  // Every index entry names its own live slot.
  std::vector<char> indexed(slots, 0);
  const_cast<SortedKeyIndex<std::uint32_t>&>(index_).for_each(
      [&](const Key&, std::uint32_t slot) {
        D2_ASSERT_MSG(slot < slots, "block map: index names a slot past the slab");
        D2_ASSERT_MSG(slab_[slot].next_free == kLiveSlot,
                      "block map: index names a free slab slot");
        D2_ASSERT_MSG(indexed[slot] == 0,
                      "block map: two keys share a slab slot");
        indexed[slot] = 1;
      });
  for (std::size_t i = 0; i < slots; ++i) {
    const BlockSlot& bs = slab_[i];
    D2_ASSERT_MSG(bs.generation != 0 &&
                      bs.generation <= BlockHandle::kGenerationMask,
                  "block map: slab generation out of range");
    if (bs.next_free == kLiveSlot) {
      D2_ASSERT_MSG(indexed[i] == 1,
                    "block map: live slab slot not in the index");
    } else {
      D2_ASSERT_MSG(on_free[i] == 1,
                    "block map: orphaned slab slot (neither live nor free)");
      D2_ASSERT_MSG(bs.state.replicas.empty() && bs.state.stale_holders.empty(),
                    "block map: free slab slot still holds members");
    }
  }
  D2_ASSERT_MSG(free_count + index_.size() == slots,
                "block map: slab slots disagree with the index and free list");
}

void BlockMap::check_invariants() const {
  index_.check_invariants();
  check_slab();

  const auto n = static_cast<std::size_t>(node_count_);
  std::vector<std::int64_t> primary_count(n, 0);
  std::vector<Bytes> primary_bytes(n, 0);
  std::vector<Bytes> physical_bytes(n, 0);
  Bytes total = 0;

  for_each_block([&](const Key&, const BlockState& b) {
    D2_ASSERT_MSG(b.size >= 0 && b.member_bytes >= 0,
                  "block map: negative block size");
    D2_ASSERT_MSG(!b.replicas.empty(), "block map: block with no replicas");
    bool all_have_data = true;
    for (std::size_t i = 0; i < b.replicas.size(); ++i) {
      const Replica& r = b.replicas[i];
      D2_ASSERT_MSG(r.node >= 0 && r.node < node_count_,
                    "block map: replica node out of range");
      for (std::size_t j = 0; j < i; ++j) {
        D2_ASSERT_MSG(b.replicas[j].node != r.node,
                      "block map: duplicate node in replica set");
      }
      if (r.has_data) {
        physical_bytes[static_cast<std::size_t>(r.node)] += b.member_bytes;
      } else {
        all_have_data = false;
      }
    }
    for (std::size_t i = 0; i < b.stale_holders.size(); ++i) {
      const int sh = b.stale_holders[i];
      D2_ASSERT_MSG(sh >= 0 && sh < node_count_,
                    "block map: stale holder out of range");
      D2_ASSERT_MSG(!b.is_replica(sh),
                    "block map: stale holder also in replica set");
      for (std::size_t j = 0; j < i; ++j) {
        D2_ASSERT_MSG(b.stale_holders[j] != sh,
                      "block map: duplicate stale holder");
      }
      physical_bytes[static_cast<std::size_t>(sh)] += b.member_bytes;
    }
    D2_ASSERT_MSG(b.stale_holders.empty() || !all_have_data,
                  "block map: stale holders outlived their fetch sources");
    const auto primary = static_cast<std::size_t>(b.replicas.front().node);
    primary_count[primary] += 1;
    primary_bytes[primary] += b.size;
    total += b.size;
  });

  D2_ASSERT_MSG(total == total_bytes_,
                "block map: total bytes counter out of sync");
  for (std::size_t i = 0; i < n; ++i) {
    D2_ASSERT_MSG(primary_count[i] == primary_count_[i],
                  "block map: primary count accounting out of sync");
    D2_ASSERT_MSG(primary_bytes[i] == primary_bytes_[i],
                  "block map: primary bytes accounting out of sync");
    D2_ASSERT_MSG(physical_bytes[i] == physical_bytes_[i],
                  "block map: physical bytes accounting out of sync");
  }
}

}  // namespace d2::store
