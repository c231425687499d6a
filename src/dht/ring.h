// DHT ring geometry: node IDs on the 2^512 circle and key ownership.
//
// The node responsible for key k is the *successor* of k — the node with
// the smallest ID >= k, wrapping around (paper §1: "the node whose ID is
// the immediate successor of its key"). A block is replicated on the r
// immediate successors of its key (§3, D2-Store). Load balancing moves
// node IDs (leave + rejoin), which this class supports directly.
#pragma once

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/assert.h"
#include "common/key.h"

namespace d2::dht {

class Ring {
 public:
  /// Adds a node with the given ID. IDs must be unique; the node index
  /// must not already be present.
  void add(int node, const Key& id);

  /// Removes a node from the ring.
  void remove(int node);

  /// Atomically moves a node to a new ID (leave + rejoin).
  void move(int node, const Key& new_id);

  bool contains(int node) const { return ids_.count(node) > 0; }
  bool id_taken(const Key& id) const { return by_id_.count(id) > 0; }

  std::size_t size() const { return by_id_.size(); }
  bool empty() const { return by_id_.empty(); }

  const Key& id_of(int node) const;

  /// The node responsible for `k` (successor of k). Requires non-empty.
  int owner(const Key& k) const;

  /// How many nodes `successors` may pass over past the first r while
  /// looking for up ones.
  static constexpr int kMaxSkipped = 6;

  /// Clears `out` and fills it with `owner` and its clockwise successors,
  /// continuing past nodes `up` rejects until r accepted ones are in:
  /// at most r + kMaxSkipped nodes, and never more than the ring holds.
  /// The replica set of every key `owner` owns (§3), for both
  /// core::System and core::RepairEngine. `up` is any `bool(int node)`
  /// callable.
  template <typename Up>
  void successors(int owner, int r, const Up& up, std::vector<int>& out) const {
    D2_REQUIRE(r > 0);
    out.clear();
    const std::size_t cap =
        std::min(by_id_.size(), static_cast<std::size_t>(r + kMaxSkipped));
    auto it = iter_of(owner);
    int accepted = 0;
    while (out.size() < cap) {
      out.push_back(it->second);
      if (up(it->second) && ++accepted == r) return;
      if (++it == by_id_.end()) it = by_id_.begin();
    }
  }

  /// Ring neighbours of a node.
  int successor(int node) const;
  int predecessor(int node) const;

  /// The node `steps` positions clockwise of `node` (0 = itself).
  int nth_clockwise(int node, std::size_t steps) const;

  /// The half-open key arc (pred_id, id] owned by `node`. With a single
  /// node the arc is the whole ring.
  std::pair<Key, Key> owned_arc(int node) const;

  /// True iff `node` is responsible for key `k` as primary.
  bool owns(int node, const Key& k) const;

  /// All nodes in clockwise ID order.
  std::vector<int> nodes_in_order() const;

  /// Clockwise rank distance from node a to node b (0 if a == b).
  std::size_t rank_distance(int a, int b) const;

  /// Full-structure audit; throws InvariantError naming the violated
  /// invariant. Checks that by_id_ and ids_ are inverse bijections and
  /// that successor/predecessor/owner/successors agree with the clockwise
  /// ID order. O(n log n); wired into add/remove/move in paranoid builds
  /// and callable from tests in any build.
  void check_invariants() const;

 private:
  /// Corruption-injection hook for tests (tests/test_invariants.cc).
  friend struct RingTestPeer;

  std::map<Key, int> by_id_;
  /// Node -> ID lookup only; never iterated (iteration would be
  /// hash-order, i.e. nondeterministic across platforms).
  std::unordered_map<int, Key> ids_;  // d2-lint: allow(unordered-container)

  std::map<Key, int>::const_iterator iter_of(int node) const;
};

}  // namespace d2::dht
