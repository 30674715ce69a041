// Behaviour of the count-driven refinement knobs (SplitPolicy::max_leaf_count
// and count_growth) — the storage/detail trade-off the examples tune.
#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "hist/bintree.hpp"

namespace photon {
namespace {

BinCoords uniform_coords(Lcg48& rng) {
  BinCoords c;
  c.s = static_cast<float>(rng.uniform());
  c.t = static_cast<float>(rng.uniform());
  c.u = static_cast<float>(rng.uniform());
  c.theta = static_cast<float>(rng.uniform() * kTwoPi);
  return c;
}

std::size_t leaves_after(SplitPolicy policy, int photons, std::uint64_t seed = 3) {
  BinTree tree;
  Lcg48 rng(seed);
  for (int i = 0; i < photons; ++i) tree.record(uniform_coords(rng), 0, policy);
  return tree.leaf_count();
}

TEST(RefinementPolicy, SmallerThresholdMeansMoreLeaves) {
  SplitPolicy coarse, fine;
  coarse.max_leaf_count = 2048;
  fine.max_leaf_count = 128;
  EXPECT_GT(leaves_after(fine, 20000), leaves_after(coarse, 20000));
}

TEST(RefinementPolicy, FlatGrowthRefinesDeeper) {
  SplitPolicy doubling, flat;
  doubling.count_growth = 2.0;
  flat.count_growth = 1.0;
  EXPECT_GT(leaves_after(flat, 30000), leaves_after(doubling, 30000));
}

TEST(RefinementPolicy, FlatGrowthBoundsLeafResidency) {
  // With count_growth = 1 every leaf splits once it accumulates
  // max_leaf_count photons since creation; no leaf's split_n can exceed the
  // next power-of-two checkpoint above the threshold.
  SplitPolicy policy;
  policy.max_leaf_count = 256;
  policy.count_growth = 1.0;
  BinTree tree;
  Lcg48 rng(4);
  for (int i = 0; i < 20000; ++i) tree.record(uniform_coords(rng), 0, policy);
  for (std::size_t i = 0; i < tree.node_count(); ++i) {
    const BinNode& n = tree.node(static_cast<int>(i));
    if (n.is_leaf()) EXPECT_LT(n.split_n, 512u);
  }
}

TEST(RefinementPolicy, GrowthExponentControlsNodeScaling) {
  // Doubling thresholds give ~sqrt(n) nodes; the ratio of node counts when
  // n quadruples should be far below 4 (the flat-policy ratio).
  SplitPolicy doubling;
  doubling.count_growth = 2.0;
  const double small = static_cast<double>(leaves_after(doubling, 10000));
  const double large = static_cast<double>(leaves_after(doubling, 40000));
  EXPECT_LT(large / small, 3.0);
  EXPECT_GT(large / small, 1.2);  // but it does keep refining
}

TEST(RefinementPolicy, DepthTracksSplits) {
  SplitPolicy policy;
  policy.max_leaf_count = 128;
  policy.count_growth = 1.0;
  BinTree tree;
  Lcg48 rng(5);
  for (int i = 0; i < 10000; ++i) tree.record(uniform_coords(rng), 0, policy);
  // Node::depth must equal the number of ancestors.
  for (std::size_t i = 0; i < tree.node_count(); ++i) {
    const BinNode& n = tree.node(static_cast<int>(i));
    if (n.is_leaf()) continue;
    EXPECT_EQ(tree.node(n.left).depth, n.depth + 1);
    EXPECT_EQ(tree.node(n.right()).depth, n.depth + 1);
  }
}

}  // namespace
}  // namespace photon
