#include "dht/ring.h"

#include <algorithm>

#include "common/assert.h"

namespace d2::dht {

void Ring::add(int node, const Key& id) {
  D2_REQUIRE_MSG(!contains(node), "node already on ring");
  D2_REQUIRE_MSG(!id_taken(id), "ID collision");
  by_id_.emplace(id, node);
  ids_.emplace(node, id);
  D2_PARANOID_AUDIT(check_invariants());
}

void Ring::remove(int node) {
  auto it = ids_.find(node);
  D2_REQUIRE_MSG(it != ids_.end(), "node not on ring");
  by_id_.erase(it->second);
  ids_.erase(it);
  D2_PARANOID_AUDIT(check_invariants());
}

// Preconditions (membership, ID uniqueness) are enforced by remove() and
// add().  d2-lint: allow(unguarded-mutator)
void Ring::move(int node, const Key& new_id) {
  remove(node);
  add(node, new_id);
}

const Key& Ring::id_of(int node) const {
  auto it = ids_.find(node);
  D2_REQUIRE_MSG(it != ids_.end(), "node not on ring");
  return it->second;
}

int Ring::owner(const Key& k) const {
  D2_REQUIRE(!empty());
  auto it = by_id_.lower_bound(k);  // smallest id >= k
  if (it == by_id_.end()) it = by_id_.begin();
  return it->second;
}

std::map<Key, int>::const_iterator Ring::iter_of(int node) const {
  auto idit = ids_.find(node);
  D2_REQUIRE_MSG(idit != ids_.end(), "node not on ring");
  auto it = by_id_.find(idit->second);
  D2_ASSERT(it != by_id_.end());
  return it;
}

int Ring::successor(int node) const {
  auto it = iter_of(node);
  ++it;
  if (it == by_id_.end()) it = by_id_.begin();
  return it->second;
}

int Ring::predecessor(int node) const {
  auto it = iter_of(node);
  if (it == by_id_.begin()) it = by_id_.end();
  --it;
  return it->second;
}

int Ring::nth_clockwise(int node, std::size_t steps) const {
  auto it = iter_of(node);
  steps %= by_id_.size();
  for (std::size_t i = 0; i < steps; ++i) {
    ++it;
    if (it == by_id_.end()) it = by_id_.begin();
  }
  return it->second;
}

std::pair<Key, Key> Ring::owned_arc(int node) const {
  const Key& id = id_of(node);
  const Key& pred_id = id_of(predecessor(node));
  return {pred_id, id};
}

bool Ring::owns(int node, const Key& k) const {
  if (by_id_.size() == 1) return contains(node);
  auto [from, to] = owned_arc(node);
  return Key::in_arc(k, from, to);
}

std::vector<int> Ring::nodes_in_order() const {
  std::vector<int> out;
  out.reserve(by_id_.size());
  for (const auto& [id, node] : by_id_) out.push_back(node);
  return out;
}

void Ring::check_invariants() const {
  D2_ASSERT_MSG(by_id_.size() == ids_.size(),
                "ring: id maps disagree in size");
  for (const auto& [id, node] : by_id_) {
    const auto it = ids_.find(node);
    D2_ASSERT_MSG(it != ids_.end() && it->second == id,
                  "ring: id maps are not inverse bijections");
  }
  if (by_id_.empty()) return;

  // Successor / owner / replica-set consistency against clockwise order.
  const std::vector<int> order = nodes_in_order();
  const int r = static_cast<int>(std::min<std::size_t>(order.size(), 3));
  const auto all_up = [](int) { return true; };
  std::vector<int> replicas;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const int node = order[i];
    const int succ = order[(i + 1) % order.size()];
    D2_ASSERT_MSG(successor(node) == succ,
                  "ring: successor disagrees with clockwise order");
    D2_ASSERT_MSG(predecessor(succ) == node,
                  "ring: predecessor is not successor's inverse");
    D2_ASSERT_MSG(owner(id_of(node)) == node,
                  "ring: node does not own its own ID");
    successors(node, r, all_up, replicas);
    D2_ASSERT_MSG(replicas.size() == static_cast<std::size_t>(r),
                  "ring: replica set has wrong cardinality");
    for (int j = 0; j < r; ++j) {
      D2_ASSERT_MSG(
          replicas[static_cast<std::size_t>(j)] ==
              order[(i + static_cast<std::size_t>(j)) % order.size()],
          "ring: replica set disagrees with successor chain");
    }
  }
}

std::size_t Ring::rank_distance(int a, int b) const {
  auto it = iter_of(a);
  std::size_t steps = 0;
  while (it->second != b) {
    ++it;
    if (it == by_id_.end()) it = by_id_.begin();
    ++steps;
    D2_ASSERT_MSG(steps <= by_id_.size(), "node b not on ring");
  }
  return steps;
}

}  // namespace d2::dht
