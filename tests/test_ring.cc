#include "dht/ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "dht/consistent_hash.h"

namespace d2::dht {
namespace {

Ring make_ring(std::initializer_list<std::pair<int, std::uint64_t>> nodes) {
  Ring r;
  for (const auto& [node, id] : nodes) r.add(node, Key::from_uint64(id));
  return r;
}

Ring random_ring(int n, Rng& rng) {
  Ring r;
  for (int i = 0; i < n; ++i) {
    Key id = random_node_id(rng);
    while (r.id_taken(id)) id = random_node_id(rng);
    r.add(i, id);
  }
  return r;
}

const auto all_up = [](int) { return true; };

/// `successors` into a fresh vector.
std::vector<int> successors_of(const Ring& ring, int owner, int r) {
  std::vector<int> out;
  ring.successors(owner, r, all_up, out);
  return out;
}

TEST(Ring, OwnerIsSuccessor) {
  Ring r = make_ring({{0, 100}, {1, 200}, {2, 300}});
  EXPECT_EQ(r.owner(Key::from_uint64(150)), 1);
  EXPECT_EQ(r.owner(Key::from_uint64(200)), 1);  // inclusive
  EXPECT_EQ(r.owner(Key::from_uint64(201)), 2);
  EXPECT_EQ(r.owner(Key::from_uint64(100)), 0);
}

TEST(Ring, OwnerWrapsAround) {
  Ring r = make_ring({{0, 100}, {1, 200}});
  // Keys beyond the largest ID wrap to the smallest.
  EXPECT_EQ(r.owner(Key::from_uint64(250)), 0);
  EXPECT_EQ(r.owner(Key::from_uint64(50)), 0);
}

TEST(Ring, SingleNodeOwnsEverything) {
  Ring r = make_ring({{7, 1000}});
  EXPECT_EQ(r.owner(Key::min()), 7);
  EXPECT_EQ(r.owner(Key::max()), 7);
  EXPECT_TRUE(r.owns(7, Key::from_uint64(123456)));
  EXPECT_EQ(r.successor(7), 7);
  EXPECT_EQ(r.predecessor(7), 7);
}

TEST(Ring, ReplicaSetFollowsSuccessors) {
  Ring r = make_ring({{0, 100}, {1, 200}, {2, 300}, {3, 400}});
  EXPECT_EQ(successors_of(r, r.owner(Key::from_uint64(150)), 3),
            (std::vector<int>{1, 2, 3}));
  // Wraps.
  EXPECT_EQ(successors_of(r, r.owner(Key::from_uint64(350)), 3),
            (std::vector<int>{3, 0, 1}));
  // Skips past rejected nodes until r are accepted.
  std::vector<int> out;
  r.successors(1, 2, [](int node) { return node != 2; }, out);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(Ring, ReplicaSetCappedAtRingSize) {
  Ring r = make_ring({{0, 100}, {1, 200}});
  EXPECT_EQ(successors_of(r, r.owner(Key::from_uint64(50)), 5).size(), 2u);
}

/// The successor()-chained scan core::System and core::RepairEngine ran
/// before Ring::successors: from `owner`, take nodes until r are up, at
/// most r + 6 and never more than the ring holds.
std::vector<int> successor_chain(const Ring& ring, int owner, int r,
                                 const std::vector<bool>& up) {
  std::vector<int> out;
  const int cap = std::min<int>(static_cast<int>(ring.size()), r + 6);
  int node = owner;
  int up_count = 0;
  for (int i = 0; i < cap; ++i) {
    out.push_back(node);
    if (up[static_cast<std::size_t>(node)]) ++up_count;
    if (up_count >= r && static_cast<int>(out.size()) >= r) break;
    node = ring.successor(node);
  }
  return out;
}

TEST(Ring, SuccessorsMatchSuccessorChain) {
  Rng rng(29);
  std::size_t extended = 0;
  for (const int n : {1, 2, 3, 7, 64}) {
    const Ring ring = random_ring(n, rng);
    for (int trial = 0; trial < 40; ++trial) {
      // Random up masks at a random density; every fifth one all down.
      const double p_up = trial % 5 == 4 ? 0.0 : rng.next_double();
      std::vector<bool> up(static_cast<std::size_t>(n));
      for (std::size_t i = 0; i < up.size(); ++i) up[i] = rng.bernoulli(p_up);
      const auto is_up = [&up](int node) {
        return static_cast<bool>(up[static_cast<std::size_t>(node)]);
      };
      const int owner = ring.owner(Key::random(rng));
      for (int r = 1; r <= 8; ++r) {
        std::vector<int> out;
        ring.successors(owner, r, is_up, out);
        EXPECT_EQ(out, successor_chain(ring, owner, r, up))
            << "n=" << n << " r=" << r << " trial=" << trial;
        if (static_cast<int>(out.size()) > r) ++extended;
      }
    }
  }
  EXPECT_GT(extended, 0u);  // the masks did make the walk skip nodes
}

TEST(Ring, SuccessorPredecessorInverse) {
  Ring r = make_ring({{0, 100}, {1, 200}, {2, 300}});
  for (int n : {0, 1, 2}) {
    EXPECT_EQ(r.predecessor(r.successor(n)), n);
    EXPECT_EQ(r.successor(r.predecessor(n)), n);
  }
}

TEST(Ring, OwnedArcCoversOwnKeys) {
  Ring r = make_ring({{0, 100}, {1, 200}, {2, 300}});
  auto [from, to] = r.owned_arc(1);
  EXPECT_EQ(from, Key::from_uint64(100));
  EXPECT_EQ(to, Key::from_uint64(200));
  EXPECT_TRUE(r.owns(1, Key::from_uint64(150)));
  EXPECT_FALSE(r.owns(1, Key::from_uint64(250)));
  // Node 0's arc wraps.
  EXPECT_TRUE(r.owns(0, Key::from_uint64(50)));
  EXPECT_TRUE(r.owns(0, Key::from_uint64(350)));
}

TEST(Ring, MoveRelocatesNode) {
  Ring r = make_ring({{0, 100}, {1, 200}, {2, 300}});
  r.move(0, Key::from_uint64(250));
  EXPECT_EQ(r.owner(Key::from_uint64(240)), 0);
  EXPECT_EQ(r.owner(Key::from_uint64(90)), 1);  // old arc fell to node 1
  EXPECT_EQ(r.id_of(0), Key::from_uint64(250));
}

TEST(Ring, AddDuplicateNodeThrows) {
  Ring r = make_ring({{0, 100}});
  EXPECT_THROW(r.add(0, Key::from_uint64(200)), PreconditionError);
}

TEST(Ring, AddDuplicateIdThrows) {
  Ring r = make_ring({{0, 100}});
  EXPECT_THROW(r.add(1, Key::from_uint64(100)), PreconditionError);
  EXPECT_TRUE(r.id_taken(Key::from_uint64(100)));
}

TEST(Ring, RemoveUnknownThrows) {
  Ring r = make_ring({{0, 100}});
  EXPECT_THROW(r.remove(5), PreconditionError);
}

TEST(Ring, NthClockwiseWraps) {
  Ring r = make_ring({{0, 100}, {1, 200}, {2, 300}});
  EXPECT_EQ(r.nth_clockwise(0, 0), 0);
  EXPECT_EQ(r.nth_clockwise(0, 1), 1);
  EXPECT_EQ(r.nth_clockwise(0, 3), 0);
  EXPECT_EQ(r.nth_clockwise(2, 2), 1);
}

TEST(Ring, RankDistance) {
  Ring r = make_ring({{0, 100}, {1, 200}, {2, 300}});
  EXPECT_EQ(r.rank_distance(0, 0), 0u);
  EXPECT_EQ(r.rank_distance(0, 2), 2u);
  EXPECT_EQ(r.rank_distance(2, 0), 1u);
}

TEST(Ring, NodesInOrderSortedById) {
  Ring r = make_ring({{5, 300}, {9, 100}, {2, 200}});
  EXPECT_EQ(r.nodes_in_order(), (std::vector<int>{9, 2, 5}));
}

// Property: for random rings, every key's owner's arc contains it, and
// replica sets are consecutive.
class RingProperty : public ::testing::TestWithParam<int> {};

TEST_P(RingProperty, OwnershipConsistent) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Ring r = random_ring(GetParam(), rng);
  for (int trial = 0; trial < 100; ++trial) {
    const Key k = Key::random(rng);
    const int owner = r.owner(k);
    EXPECT_TRUE(r.owns(owner, k));
    const auto set = successors_of(r, owner, 3);
    ASSERT_EQ(set.size(), std::min<std::size_t>(r.size(), 3));
    EXPECT_EQ(set[0], owner);
    for (std::size_t i = 0; i + 1 < set.size(); ++i) {
      EXPECT_EQ(r.successor(set[i]), set[i + 1]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RingProperty,
                         ::testing::Values(2, 3, 5, 16, 64, 257));

}  // namespace
}  // namespace d2::dht
