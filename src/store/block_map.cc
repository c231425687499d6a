#include "store/block_map.h"

#include <algorithm>

#include "common/assert.h"
#include "common/lane.h"

namespace d2::store {

bool BlockState::any_data() const {
  for (const Replica& r : replicas) {
    if (r.has_data) return true;
  }
  return !stale_holders.empty();
}

bool BlockState::node_has_data(int node) const {
  for (const Replica& r : replicas) {
    if (r.node == node) return r.has_data;
  }
  return std::find(stale_holders.begin(), stale_holders.end(), node) !=
         stale_holders.end();
}

bool BlockState::is_replica(int node) const {
  for (const Replica& r : replicas) {
    if (r.node == node) return true;
  }
  return false;
}

BlockMap::BlockMap(int node_count, int arcs)
    : node_count_(node_count), plan_(arcs) {
  D2_REQUIRE(node_count > 0);
  slices_.resize(static_cast<std::size_t>(arcs));
  for (Slice& s : slices_) {
    s.primary_count.assign(static_cast<std::size_t>(node_count), 0);
    s.primary_bytes.assign(static_cast<std::size_t>(node_count), 0);
    s.physical_bytes.assign(static_cast<std::size_t>(node_count), 0);
  }
}

void BlockMap::account_add_data(Slice& s, int node, Bytes size) {
  s.physical_bytes[static_cast<std::size_t>(node)] += size;
}

void BlockMap::account_remove_data(Slice& s, int node, Bytes size) {
  s.physical_bytes[static_cast<std::size_t>(node)] -= size;
  D2_ASSERT(s.physical_bytes[static_cast<std::size_t>(node)] >= 0);
}

void BlockMap::account_add_primary(Slice& s, int node, Bytes size) {
  s.primary_count[static_cast<std::size_t>(node)] += 1;
  s.primary_bytes[static_cast<std::size_t>(node)] += size;
}

void BlockMap::account_remove_primary(Slice& s, int node, Bytes size) {
  s.primary_count[static_cast<std::size_t>(node)] -= 1;
  s.primary_bytes[static_cast<std::size_t>(node)] -= size;
  D2_ASSERT(s.primary_count[static_cast<std::size_t>(node)] >= 0);
}

void BlockMap::insert(const Key& k, Bytes size, const std::vector<int>& nodes,
                      Bytes member_bytes) {
  D2_REQUIRE(!nodes.empty());
  D2_REQUIRE_MSG(size >= 0, "negative block size");
  D2_REQUIRE_MSG(member_bytes <= size, "member bytes exceed block size");
  for (int n : nodes) D2_REQUIRE(n >= 0 && n < node_count_);
  D2_ASSERT_OWNER_LANE(plan_.arc_of(k));
  Slice& s = slice_of(k);
  BlockState b;
  b.size = size;
  b.member_bytes = member_bytes < 0 ? size : member_bytes;
  b.replicas.reserve(nodes.size());
  for (int n : nodes) {
    b.replicas.push_back(Replica{.pointer_since = 0,
                                 .fetch_due = kSimTimeNever,
                                 .node = n,
                                 .has_data = true,
                                 .fetch_in_flight = false});
  }
  // Insert first: it REQUIREs the key is new, and the accounting below
  // must not run for a rejected duplicate.
  const BlockState& stored = s.index.insert(k, std::move(b));
  for (const Replica& r : stored.replicas) {
    account_add_data(s, r.node, stored.member_bytes);
  }
  account_add_primary(s, nodes.front(), size);
  s.total_bytes += size;
  D2_PARANOID_AUDIT(if (s.audit_gate.due(s.index.size()))
                        check_slice_invariants(plan_.arc_of(k)));
}

void BlockMap::erase(const Key& k) {
  D2_ASSERT_OWNER_LANE(plan_.arc_of(k));
  Slice& s = slice_of(k);
  BlockState* bp = s.index.find(k);
  D2_REQUIRE_MSG(bp != nullptr, "erasing unknown block");
  BlockState& b = *bp;
  for (const Replica& r : b.replicas) {
    if (r.has_data) account_remove_data(s, r.node, b.member_bytes);
  }
  for (int n : b.stale_holders) account_remove_data(s, n, b.member_bytes);
  account_remove_primary(s, b.replicas.front().node, b.size);
  s.total_bytes -= b.size;
  s.index.erase(k);
  D2_PARANOID_AUDIT(if (s.audit_gate.due(s.index.size()))
                        check_slice_invariants(plan_.arc_of(k)));
}

std::size_t BlockMap::block_count() const {
  std::size_t n = 0;
  for (const Slice& s : slices_) n += s.index.size();
  return n;
}

Bytes BlockMap::total_bytes() const {
  Bytes n = 0;
  for (const Slice& s : slices_) n += s.total_bytes;
  return n;
}

std::int64_t BlockMap::primary_count(int node) const {
  D2_REQUIRE(node >= 0 && node < node_count_);
  std::int64_t n = 0;
  for (const Slice& s : slices_) {
    n += s.primary_count[static_cast<std::size_t>(node)];
  }
  return n;
}

Bytes BlockMap::primary_bytes(int node) const {
  D2_REQUIRE(node >= 0 && node < node_count_);
  Bytes n = 0;
  for (const Slice& s : slices_) {
    n += s.primary_bytes[static_cast<std::size_t>(node)];
  }
  return n;
}

Bytes BlockMap::physical_bytes(int node) const {
  D2_REQUIRE(node >= 0 && node < node_count_);
  Bytes n = 0;
  for (const Slice& s : slices_) {
    n += s.physical_bytes[static_cast<std::size_t>(node)];
  }
  return n;
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

bool BlockMap::reassign_replicas(const Key& k, const std::vector<int>& nodes,
                                 SimTime now) {
  D2_ASSERT_OWNER_LANE(plan_.arc_of(k));
  BlockState* b = slice_of(k).index.find(k);
  D2_REQUIRE_MSG(b != nullptr, "reassigning unknown block");
  return reassign_replicas(k, *b, nodes, now);
}

bool BlockMap::reassign_replicas(const Key& k, BlockState& b,
                                 const std::vector<int>& nodes, SimTime now) {
  D2_REQUIRE(!nodes.empty());
  D2_ASSERT_OWNER_LANE(plan_.arc_of(k));
  Slice& s = slice_of(k);
  D2_DCHECK_MSG(s.index.find(k) == &b, "reassigning a state that is not k's");

  if (std::equal(b.replicas.begin(), b.replicas.end(), nodes.begin(),
                 nodes.end(),
                 [](const Replica& r, int n) { return r.node == n; })) {
    prune_stale(s, b);
    D2_PARANOID_AUDIT(if (s.audit_gate.due(s.index.size()))
                          check_slice_invariants(plan_.arc_of(k)));
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

  std::vector<Replica> new_replicas;
  new_replicas.reserve(nodes.size());
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
    new_replicas.push_back(Replica{.pointer_since = now,
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
      account_remove_data(s, r.node, b.member_bytes);
    }
  }

  b.replicas = std::move(new_replicas);

  if (old_primary != new_primary) {
    account_remove_primary(s, old_primary, b.size);
    account_add_primary(s, new_primary, b.size);
  }
  prune_stale(s, b);
  D2_PARANOID_AUDIT(if (s.audit_gate.due(s.index.size()))
                        check_slice_invariants(plan_.arc_of(k)));
  return true;
}

void BlockMap::mark_data(const Key& k, int node) {
  D2_ASSERT_OWNER_LANE(plan_.arc_of(k));
  Slice& s = slice_of(k);
  BlockState* bp = s.index.find(k);
  D2_REQUIRE_MSG(bp != nullptr, "mark_data on unknown block");
  BlockState& b = *bp;
  for (Replica& r : b.replicas) {
    if (r.node == node) {
      D2_REQUIRE_MSG(!r.has_data, "replica already has data");
      r.has_data = true;
      r.fetch_in_flight = false;
      account_add_data(s, node, b.member_bytes);
      prune_stale(s, b);
      D2_PARANOID_AUDIT(if (s.audit_gate.due(s.index.size()))
                            check_slice_invariants(plan_.arc_of(k)));
      return;
    }
  }
  D2_REQUIRE_MSG(false, "mark_data on non-replica node");
}

void BlockMap::mark_missing(const Key& k, int node) {
  D2_ASSERT_OWNER_LANE(plan_.arc_of(k));
  Slice& s = slice_of(k);
  BlockState* bp = s.index.find(k);
  D2_REQUIRE_MSG(bp != nullptr, "mark_missing on unknown block");
  BlockState& b = *bp;
  for (Replica& r : b.replicas) {
    if (r.node == node) {
      D2_REQUIRE_MSG(r.has_data, "replica already missing data");
      r.has_data = false;
      r.fetch_in_flight = false;
      account_remove_data(s, node, b.member_bytes);
      D2_PARANOID_AUDIT(if (s.audit_gate.due(s.index.size()))
                            check_slice_invariants(plan_.arc_of(k)));
      return;
    }
  }
  D2_REQUIRE_MSG(false, "mark_missing on non-replica node");
}

void BlockMap::drop_stale(const Key& k, int node) {
  D2_ASSERT_OWNER_LANE(plan_.arc_of(k));
  Slice& s = slice_of(k);
  BlockState* bp = s.index.find(k);
  D2_REQUIRE_MSG(bp != nullptr, "drop_stale on unknown block");
  BlockState& b = *bp;
  const auto it =
      std::find(b.stale_holders.begin(), b.stale_holders.end(), node);
  if (it == b.stale_holders.end()) return;
  b.stale_holders.erase(it);
  account_remove_data(s, node, b.member_bytes);
  D2_PARANOID_AUDIT(if (s.audit_gate.due(s.index.size()))
                        check_slice_invariants(plan_.arc_of(k)));
}

void BlockMap::prune_stale(Slice& s, BlockState& b) {
  if (b.stale_holders.empty()) return;
  for (const Replica& r : b.replicas) {
    if (!r.has_data) return;  // still needed as fetch sources
  }
  for (int n : b.stale_holders) account_remove_data(s, n, b.member_bytes);
  b.stale_holders.clear();
}

void BlockMap::check_slice_invariants(int arc) const {
  D2_REQUIRE(arc >= 0 && arc < plan_.arcs());
  const Slice& s = slices_[static_cast<std::size_t>(arc)];
  s.index.check_invariants();

  const auto n = static_cast<std::size_t>(node_count_);
  std::vector<std::int64_t> primary_count(n, 0);
  std::vector<Bytes> primary_bytes(n, 0);
  std::vector<Bytes> physical_bytes(n, 0);
  Bytes total = 0;

  const_cast<SortedKeyIndex<BlockState>&>(s.index).for_each([&](const Key& k,
                                                                BlockState& b) {
    D2_ASSERT_MSG(plan_.arc_of(k) == arc,
                  "block map: key stored in a slice that does not own it");
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

  D2_ASSERT_MSG(total == s.total_bytes,
                "block map: slice total bytes counter out of sync");
  for (std::size_t i = 0; i < n; ++i) {
    D2_ASSERT_MSG(primary_count[i] == s.primary_count[i],
                  "block map: primary count accounting out of sync");
    D2_ASSERT_MSG(primary_bytes[i] == s.primary_bytes[i],
                  "block map: primary bytes accounting out of sync");
    D2_ASSERT_MSG(physical_bytes[i] == s.physical_bytes[i],
                  "block map: physical bytes accounting out of sync");
  }
}

void BlockMap::check_invariants() const {
  for (int a = 0; a < plan_.arcs(); ++a) check_slice_invariants(a);
}

}  // namespace d2::store
