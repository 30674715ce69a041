#include "hist/bintree.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.hpp"
#include "core/sampling.hpp"

namespace photon {
namespace {

BinCoords coords(double s, double t, double u, double theta) {
  BinCoords c;
  c.s = static_cast<float>(s);
  c.t = static_cast<float>(t);
  c.u = static_cast<float>(u);
  c.theta = static_cast<float>(theta);
  return c;
}

TEST(BinRegion, FullDomain) {
  const BinRegion r = BinRegion::full();
  EXPECT_FLOAT_EQ(r.extent(0), 1.0f);
  EXPECT_FLOAT_EQ(r.extent(3), static_cast<float>(kTwoPi));
  EXPECT_NEAR(r.measure(), kTwoPi, 1e-5);
}

TEST(BinRegion, ChildrenPartitionMeasure) {
  const BinRegion r = BinRegion::full();
  for (int axis = 0; axis < kBinDims; ++axis) {
    const BinRegion lo = r.child(axis, 0);
    const BinRegion hi = r.child(axis, 1);
    EXPECT_NEAR(lo.measure() + hi.measure(), r.measure(), 1e-5);
    EXPECT_FLOAT_EQ(lo.hi[static_cast<std::size_t>(axis)], r.mid(axis));
    EXPECT_FLOAT_EQ(hi.lo[static_cast<std::size_t>(axis)], r.mid(axis));
  }
}

TEST(BinRegion, HalfOf) {
  const BinRegion r = BinRegion::full();
  EXPECT_EQ(r.half_of(0, 0.25f), 0);
  EXPECT_EQ(r.half_of(0, 0.75f), 1);
  EXPECT_EQ(r.half_of(3, 1.0f), 0);
  EXPECT_EQ(r.half_of(3, 5.0f), 1);
}

TEST(BinCoords, FromLocalDir) {
  // Straight up: r^2 = 0.
  BinCoords c = BinCoords::from_local_dir(0.3, 0.7, Vec3{0, 0, 1});
  EXPECT_FLOAT_EQ(c.s, 0.3f);
  EXPECT_FLOAT_EQ(c.t, 0.7f);
  EXPECT_FLOAT_EQ(c.u, 0.0f);

  // 45 degrees toward +x: u = sin^2(45) = 0.5, theta = 0.
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  c = BinCoords::from_local_dir(0, 0, Vec3{inv_sqrt2, 0, inv_sqrt2});
  EXPECT_NEAR(c.u, 0.5, 1e-6);
  EXPECT_NEAR(c.theta, 0.0, 1e-6);

  // Toward -y: theta = 3*pi/2.
  c = BinCoords::from_local_dir(0, 0, Vec3{0, -inv_sqrt2, inv_sqrt2});
  EXPECT_NEAR(c.theta, 3.0 * kTwoPi / 4.0, 1e-6);
}

TEST(BinCoords, ThetaStaysInsideHalfOpenInterval) {
  // Regression: a direction a hair below the +x axis gives a tiny negative
  // atan2; th + 2pi is then a double just under 2pi whose float rounding is
  // exactly float(2pi) — on the closed upper edge of the root region rather
  // than inside the half-open [0, 2pi). from_local_dir must wrap it to the
  // periodically equivalent 0.
  const BinCoords c = BinCoords::from_local_dir(0.5, 0.5, Vec3{0.7, -1e-18, 0.5});
  EXPECT_GE(c.theta, 0.0f);
  EXPECT_LT(c.theta, static_cast<float>(kTwoPi));
  EXPECT_FLOAT_EQ(c.theta, 0.0f);

  // The wrap must not disturb angles genuinely close to (but below) 2pi.
  const BinCoords lo = BinCoords::from_local_dir(0.5, 0.5, Vec3{0.7, -1e-4, 0.5});
  EXPECT_LT(lo.theta, static_cast<float>(kTwoPi));
  EXPECT_GT(lo.theta, 6.28f);
}

TEST(BinTree, StartsAsSingleLeaf) {
  const BinTree tree;
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_EQ(tree.depth(), 0);
  EXPECT_EQ(tree.total_tally(0), 0u);
}

TEST(BinTree, RecordTallies) {
  BinTree tree;
  tree.record(coords(0.5, 0.5, 0.5, 1.0), 0);
  tree.record(coords(0.5, 0.5, 0.5, 1.0), 0);
  tree.record(coords(0.5, 0.5, 0.5, 1.0), 2);
  EXPECT_EQ(tree.total_tally(0), 2u);
  EXPECT_EQ(tree.total_tally(1), 0u);
  EXPECT_EQ(tree.total_tally(2), 1u);
}

TEST(BinTree, UniformInputSplitsOnlyByCount) {
  BinTree tree;
  Lcg48 rng(1);
  for (int i = 0; i < 5000; ++i) {
    tree.record(coords(rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform() * kTwoPi), 0);
  }
  // No significant gradient anywhere: only the count-driven refinement rule
  // may split (once at the root for 5000 photons with the default 1024
  // threshold, as the depth-1 children never reach their 2048 threshold).
  // Allow a little slack for rare significance false positives.
  EXPECT_LE(tree.node_count(), 9u);
  // Count-driven splits (split_n at the 1024 threshold or beyond) must be
  // balanced: at the moment of the split, the speculative half-count along
  // the chosen axis was close to 50%. Smaller splits are the occasional
  // significance false positive and are legitimately imbalanced.
  for (std::size_t i = 0; i < tree.node_count(); ++i) {
    const BinNode& n = tree.node(static_cast<int>(i));
    if (n.is_leaf() || n.split_n < 1024) continue;
    const double frac = static_cast<double>(n.split_left[static_cast<std::size_t>(n.axis)]) /
                        static_cast<double>(n.split_n);
    EXPECT_NEAR(frac, 0.5, 0.1);
  }
}

TEST(BinTree, StepInSCausesSplitOnS) {
  BinTree tree;
  Lcg48 rng(2);
  // All photons in s < 0.5; other coordinates uniform.
  for (int i = 0; i < 500; ++i) {
    tree.record(coords(rng.uniform() * 0.5, rng.uniform(), rng.uniform(),
                       rng.uniform() * kTwoPi),
                0);
  }
  EXPECT_GT(tree.node_count(), 1u);
  EXPECT_EQ(tree.node(0).axis, static_cast<std::int8_t>(BinAxis::kS));
}

TEST(BinTree, StepInThetaSplitsOnTheta) {
  BinTree tree;
  Lcg48 rng(3);
  for (int i = 0; i < 500; ++i) {
    tree.record(coords(rng.uniform(), rng.uniform(), rng.uniform(),
                       kTwoPi / 2.0 + rng.uniform() * kTwoPi / 2.0),
                0);
  }
  EXPECT_EQ(tree.node(0).axis, static_cast<std::int8_t>(BinAxis::kTheta));
}

TEST(BinTree, SplitRedistributesTallies) {
  BinTree tree;
  Lcg48 rng(4);
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    // 80/20 split in t.
    const double t = rng.uniform() < 0.8 ? rng.uniform() * 0.5 : 0.5 + rng.uniform() * 0.5;
    tree.record(coords(rng.uniform(), t, rng.uniform(), rng.uniform() * kTwoPi), 0);
  }
  // Total conserved across all splits (up to rounding: one photon per split).
  const std::uint64_t total = tree.total_tally(0);
  EXPECT_NEAR(static_cast<double>(total), n, static_cast<double>(tree.node_count()));
}

TEST(BinTree, ConservationIsExactPerChannel) {
  BinTree tree;
  Lcg48 rng(5);
  std::uint64_t pushed[3] = {0, 0, 0};
  for (int i = 0; i < 3000; ++i) {
    const int ch = static_cast<int>(rng.uniform_int(3));
    ++pushed[ch];
    const double s = rng.uniform() < 0.9 ? rng.uniform() * 0.3 : rng.uniform();
    tree.record(coords(s, rng.uniform(), rng.uniform(), rng.uniform() * kTwoPi), ch);
  }
  for (int ch = 0; ch < 3; ++ch) {
    // Proportional redistribution rounds; allow one photon per split event.
    EXPECT_NEAR(static_cast<double>(tree.total_tally(ch)), static_cast<double>(pushed[ch]),
                static_cast<double>(tree.node_count()))
        << "channel " << ch;
  }
}

TEST(BinTree, FindLeafDescendsCorrectly) {
  BinTree tree;
  Lcg48 rng(6);
  for (int i = 0; i < 2000; ++i) {
    tree.record(coords(rng.uniform() * 0.5, rng.uniform(), rng.uniform(),
                       rng.uniform() * kTwoPi),
                0);
  }
  ASSERT_GT(tree.node_count(), 1u);
  // Leaf found must contain the query point.
  for (int i = 0; i < 200; ++i) {
    const BinCoords c =
        coords(rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform() * kTwoPi);
    const int leaf = tree.find_leaf(c);
    EXPECT_TRUE(tree.node(leaf).region.contains(c));
    EXPECT_TRUE(tree.node(leaf).is_leaf());
  }
}

TEST(BinTree, LambertianDirectionsDoNotSplitAngularAxes) {
  // The whole point of binning (r^2, theta): a Lambertian distribution is
  // uniform there, so a diffuse surface should split on position only.
  BinTree tree;
  Lcg48 rng(7);
  for (int i = 0; i < 4000; ++i) {
    const Vec3 d = sample_hemisphere_rejection(rng);
    // Position concentrated in one corner to force positional splits.
    tree.record(BinCoords::from_local_dir(rng.uniform() * 0.25, rng.uniform() * 0.25, d), 0);
  }
  int angular_splits = 0, positional_splits = 0;
  for (std::size_t i = 0; i < tree.node_count(); ++i) {
    const BinNode& n = tree.node(static_cast<int>(i));
    if (n.is_leaf()) continue;
    if (n.axis >= 2) {
      ++angular_splits;
    } else {
      ++positional_splits;
    }
  }
  EXPECT_GT(positional_splits, 0);
  EXPECT_LE(angular_splits, positional_splits / 4);
}

TEST(BinTree, CollimatedDirectionsSplitAngularAxes) {
  // A specular-like angular spike must drive angular subdivision.
  BinTree tree;
  Lcg48 rng(8);
  for (int i = 0; i < 4000; ++i) {
    const Vec3 d = sample_hemisphere_rejection(rng, 0.15);  // tight cone
    tree.record(BinCoords::from_local_dir(rng.uniform(), rng.uniform(), d), 0);
  }
  int u_splits = 0;
  for (std::size_t i = 0; i < tree.node_count(); ++i) {
    const BinNode& n = tree.node(static_cast<int>(i));
    if (!n.is_leaf() && n.axis == static_cast<std::int8_t>(BinAxis::kU)) ++u_splits;
  }
  EXPECT_GT(u_splits, 0);
}

TEST(BinTree, RespectsMaxNodes) {
  BinTree tree(SplitPolicy{}, /*max_nodes=*/5);
  Lcg48 rng(9);
  for (int i = 0; i < 20000; ++i) {
    tree.record(coords(rng.uniform() * 0.1, rng.uniform() * 0.1, rng.uniform() * 0.1,
                       rng.uniform() * 0.1),
                0);
  }
  EXPECT_LE(tree.node_count(), 5u);
}

TEST(BinTree, MemoryGrowsWithNodes) {
  BinTree small, large;
  Lcg48 rng(10);
  for (int i = 0; i < 4000; ++i) {
    large.record(coords(rng.uniform() < 0.9 ? 0.1 : 0.9, rng.uniform(), rng.uniform(),
                        rng.uniform() * kTwoPi),
                 0);
  }
  EXPECT_GT(large.memory_bytes(), small.memory_bytes());
}

TEST(BinTree, SerializationRoundTrip) {
  BinTree tree;
  Lcg48 rng(11);
  for (int i = 0; i < 3000; ++i) {
    tree.record(coords(rng.uniform() * 0.4, rng.uniform(), rng.uniform(),
                       rng.uniform() * kTwoPi),
                static_cast<int>(rng.uniform_int(3)));
  }
  Bytes buf;
  tree.save(buf);
  EXPECT_EQ(buf.size(), tree.serialized_bytes());
  const std::uint8_t* p = buf.data();
  const BinTree loaded = BinTree::load(p, p + buf.size());
  EXPECT_EQ(p, buf.data() + buf.size());
  EXPECT_TRUE(tree == loaded);
  EXPECT_EQ(tree.node_count(), loaded.node_count());
  EXPECT_EQ(tree.total_tally(1), loaded.total_tally(1));
}

TEST(BinTree, DeterministicForSameInput) {
  auto build = [] {
    BinTree tree;
    Lcg48 rng(12);
    for (int i = 0; i < 2000; ++i) {
      tree.record(coords(rng.uniform() * 0.6, rng.uniform(), rng.uniform(),
                         rng.uniform() * kTwoPi),
                  0);
    }
    return tree;
  };
  EXPECT_TRUE(build() == build());
}

TEST(BinTree, CountEstimateUsesLeafMeasure) {
  BinTree tree;
  for (int i = 0; i < 10; ++i) tree.record(coords(0.5, 0.5, 0.5, 1.0), 0);
  const BinTree::Estimate est = tree.count_estimate(coords(0.5, 0.5, 0.5, 1.0), 0);
  EXPECT_DOUBLE_EQ(est.count, 10.0);
  EXPECT_NEAR(est.measure, kTwoPi, 1e-5);
}

TEST(BinTree, DegenerateZeroPolicyDoesNotExplode) {
  // A (mis)configured min_count = max_leaf_count = 0 must not divide 0/0 in
  // the split redistribution or split recursively on the first record.
  SplitPolicy policy;
  policy.min_count = 0;
  policy.max_leaf_count = 0;
  BinTree tree(policy);
  for (int i = 0; i < 100; ++i) tree.record(coords(0.3, 0.6, 0.2, 2.0), 1);
  EXPECT_EQ(tree.total_tally(1), 100u);
  EXPECT_LT(tree.node_count(), 1000u);
}

}  // namespace
}  // namespace photon
