#include "par/spatial.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <tuple>

#include "geom/scenes.hpp"
#include "sim/simulator.hpp"
#include "sim/tracer.hpp"

namespace photon {
namespace {

TEST(PartitionSpace, TilesTheSceneBounds) {
  const Scene s = scenes::cornell_box();
  for (const int P : {1, 2, 3, 4, 8}) {
    const std::vector<Aabb> regions = partition_space(s, P);
    ASSERT_EQ(regions.size(), static_cast<std::size_t>(P));
    // Volumes sum to the root volume.
    Aabb root;
    double volume = 0.0;
    for (const Aabb& r : regions) {
      root.expand(r);
      const Vec3 e = r.extent();
      volume += e.x * e.y * e.z;
    }
    const Vec3 re = root.extent();
    EXPECT_NEAR(volume, re.x * re.y * re.z, 1e-6 * volume) << "P=" << P;
  }
}

TEST(PartitionSpace, BalancesPatchCounts) {
  const Scene s = scenes::computer_lab();
  const int P = 8;
  const std::vector<Aabb> regions = partition_space(s, P);
  std::vector<int> counts(static_cast<std::size_t>(P), 0);
  for (const Patch& p : s.patches()) {
    const int r = region_of(regions, p.point_at(0.5, 0.5));
    ASSERT_GE(r, 0);
    ++counts[static_cast<std::size_t>(r)];
  }
  const int total = std::accumulate(counts.begin(), counts.end(), 0);
  EXPECT_EQ(total, static_cast<int>(s.patch_count()));
  for (const int c : counts) {
    // Median splits: no region should hold more than ~2x its fair share.
    EXPECT_LT(c, 2 * total / P + 32);
  }
}

TEST(RegionOf, BoundaryPointsResolveUniquely) {
  const Scene s = scenes::cornell_box();
  const std::vector<Aabb> regions = partition_space(s, 4);
  Lcg48 rng(5);
  const Aabb bounds = s.bounds();
  const Vec3 e = bounds.extent();
  for (int i = 0; i < 2000; ++i) {
    const Vec3 p = bounds.lo +
                   Vec3{rng.uniform() * e.x, rng.uniform() * e.y, rng.uniform() * e.z};
    int containing = 0;
    for (const Aabb& r : regions) {
      if (r.contains(p)) ++containing;
    }
    EXPECT_GE(containing, 1);
    EXPECT_GE(region_of(regions, p), 0);
  }
  // Outside point.
  EXPECT_EQ(region_of(regions, bounds.hi + Vec3{10, 10, 10}), -1);
}

TEST(PhotonStream, BlocksAreDisjoint) {
  std::set<std::uint64_t> seen;
  const int photons = 50, draws = 400;
  for (int i = 0; i < photons; ++i) {
    Lcg48 rng = photon_stream(42, static_cast<std::uint64_t>(i));
    for (int d = 0; d < draws; ++d) seen.insert(rng.next_bits());
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(photons * draws));
}

TEST(PhotonStream, Deterministic) {
  Lcg48 a = photon_stream(7, 123);
  Lcg48 b = photon_stream(7, 123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_bits(), b.next_bits());
}

class SpatialSimTest : public ::testing::TestWithParam<int> {};

TEST_P(SpatialSimTest, MatchesFullOctreeReference) {
  // The defining property of the distributed-geometry mode: partitioning
  // space (and routing photons across region boundaries) must not change the
  // answer. Per-photon RNG streams, one ray per path segment and the ordered
  // apply make the comparison exact.
  const int P = GetParam();
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 4000;
  cfg.batch = 500;

  cfg.workers = P;
  const RunResult spatial = run_spatial(s, cfg);
  const RunResult reference = run_serial(s, cfg);

  EXPECT_EQ(spatial.counters.emitted, reference.counters.emitted);
  EXPECT_EQ(spatial.counters.bounces, reference.counters.bounces);
  EXPECT_EQ(spatial.counters.absorbed, reference.counters.absorbed);
  EXPECT_TRUE(spatial.forest == reference.forest);
}

TEST_P(SpatialSimTest, OpenSceneEscapesAreCounted) {
  const int P = GetParam();
  const Scene s = scenes::floor_and_light();
  RunConfig cfg;
  cfg.photons = 2000;
  cfg.batch = 250;
  cfg.workers = P;
  const RunResult spatial = run_spatial(s, cfg);
  const RunResult reference = run_serial(s, cfg);
  EXPECT_EQ(spatial.counters.escaped, reference.counters.escaped);
  EXPECT_EQ(spatial.counters.absorbed, reference.counters.absorbed);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, SpatialSimTest, ::testing::Values(1, 2, 4));

TEST(SpatialSim, GeometryIsActuallyDistributed) {
  // The point of the exercise (chapter 6): each rank indexes only part of
  // the scene.
  const Scene s = scenes::computer_lab();
  RunConfig cfg;
  cfg.photons = 2000;
  cfg.workers = 8;
  const RunResult r = run_spatial(s, cfg);
  std::uint64_t max_local = 0;
  for (const RankReport& rep : r.ranks) {
    max_local = std::max(max_local, rep.local_patches);
  }
  // Boundary-straddling patches are duplicated, but nobody should hold the
  // whole scene.
  EXPECT_LT(max_local, s.patch_count() * 3 / 4);
}

// The region indexes follow the scene's structure: at one rank the region
// holds every patch, so its index is the scene's own, node for node (octree
// nodes or grid cells).
TEST(SpatialSim, RegionIndexesFollowTheScenesStructure) {
  for (const AccelKind kind : accel_kinds()) {
    Scene s = scenes::cornell_box();
    s.set_accel(kind);
    s.build();
    RunConfig cfg;
    cfg.photons = 500;
    cfg.workers = 1;
    const RunResult r = run_spatial(s, cfg);
    ASSERT_EQ(r.ranks.size(), 1u);
    EXPECT_EQ(r.ranks[0].local_patches, s.patch_count()) << accel_kind_name(kind);
    EXPECT_EQ(r.ranks[0].local_nodes, s.accel().node_count()) << accel_kind_name(kind);
  }
}

TEST(SpatialSim, PhotonsAreRoutedBetweenRegions) {
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 3000;
  cfg.workers = 4;
  const RunResult r = run_spatial(s, cfg);
  std::uint64_t routed = 0, received = 0;
  for (const RankReport& rep : r.ranks) {
    routed += rep.photons_out;
    received += rep.photons_in;
  }
  EXPECT_GT(routed, 0u) << "photons should cross region boundaries";
  EXPECT_EQ(routed, received);
}

TEST(SpatialSim, TalliesLandOnOwners) {
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 3000;
  cfg.workers = 4;
  const RunResult r = run_spatial(s, cfg);
  std::uint64_t tallies = 0;
  for (const RankReport& rep : r.ranks) tallies += rep.tallies;
  // Every record (emission + bounce) applied exactly once.
  EXPECT_EQ(tallies, r.counters.emitted + r.counters.bounces);
}

// Determinism through the keyed, overlapped record path: rank count x
// injection batch size must never make a run irreproducible.
class SpatialDeterminismTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(SpatialDeterminismTest, RepeatedRunsAreBitwiseIdentical) {
  const auto [P, batch] = GetParam();
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 600;
  cfg.batch = batch;
  cfg.workers = P;
  const RunResult a = run_spatial(s, cfg);
  const RunResult b = run_spatial(s, cfg);
  EXPECT_TRUE(a.forest == b.forest) << "P=" << P << " batch=" << batch;
  EXPECT_EQ(a.counters.bounces, b.counters.bounces);
}

INSTANTIATE_TEST_SUITE_P(RanksAndBatches, SpatialDeterminismTest,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(1u, 64u, 4096u)));

TEST(SpatialSim, AnyRankCountIsBitwiseReferenceAtAnyBatch) {
  const Scene s = scenes::cornell_box();
  for (const int P : {1, 2, 3, 4, 8}) {
    for (const std::uint64_t batch : {1ull, 64ull, 4096ull}) {
      RunConfig cfg;
      cfg.photons = 1000;
      cfg.batch = batch;
      cfg.workers = P;
      const RunResult spatial = run_spatial(s, cfg);
      const RunResult reference = run_serial(s, cfg);
      EXPECT_TRUE(spatial.forest == reference.forest) << "P=" << P << " batch=" << batch;
    }
  }
}

TEST(SpatialSim, ResumeContinuesThePhotonSequence) {
  // Spatial resume continues the per-photon id sequence, so leg1 + resumed
  // leg2 must reproduce a straight run of the combined budget bit for bit.
  const Scene s = scenes::cornell_box();
  RunConfig leg1_cfg;
  leg1_cfg.photons = 1500;
  leg1_cfg.batch = 250;
  leg1_cfg.workers = 4;
  const RunResult leg1 = run_spatial(s, leg1_cfg);

  RunConfig leg2_cfg = leg1_cfg;
  leg2_cfg.photons = 1500;
  const RunResult resumed = run_spatial(s, leg2_cfg, &leg1);

  RunConfig straight_cfg = leg1_cfg;
  straight_cfg.photons = 3000;
  const RunResult straight = run_spatial(s, straight_cfg);

  EXPECT_EQ(resumed.counters.emitted, straight.counters.emitted);
  EXPECT_EQ(resumed.counters.bounces, straight.counters.bounces);
  EXPECT_EQ(resumed.forest.emitted_total(), 3000u);
  EXPECT_TRUE(resumed.forest == straight.forest);
}

// A room with two-sided screens on the faces `partition_space` picks for P
// regions, a surface nudge before them and a surface nudge past them — the
// hits a region hand-off that restarts the ray past the face would skip.
// Each interior face gets the three screens side by side. They are
// symmetric about the split coordinates (one on, one either side), so the
// medians — and with them the planes — do not move; the test asserts it.
Scene boundary_scene(int P) {
  Scene s = scenes::tessellated_room(4.0, 2.0, 3.0, 0.5);
  Material screen_mat = Material::lambertian({0.6, 0.6, 0.6});
  screen_mat.two_sided = true;
  const int screen = s.add_material(screen_mat);
  const double delta = 0.25 * surface_epsilon(s.bounds());
  const std::vector<Aabb> regions = partition_space(s, P);
  Aabb root;
  for (const Aabb& r : regions) root.expand(r);
  const auto set = [](Vec3& v, int axis, double value) {
    (axis == 0 ? v.x : axis == 1 ? v.y : v.z) = value;
  };
  for (const Aabb& r : regions) {
    for (int axis = 0; axis < 3; ++axis) {
      if (!(r.hi[axis] < root.hi[axis])) continue;  // outer face
      // The face's other two axes, and three side-by-side slots on it.
      const int u = (axis + 1) % 3, v = (axis + 2) % 3;
      const double du = (r.hi[u] - r.lo[u]) / 4, dv = (r.hi[v] - r.lo[v]) / 4;
      const double offsets[3] = {0.0, delta, -delta};
      for (int k = 0; k < 3; ++k) {
        Vec3 origin, eu, ev;
        set(origin, axis, r.hi[axis] + offsets[k]);
        set(origin, u, r.lo[u] + du * (k == 1 ? 2.0 : 0.5));
        set(origin, v, r.lo[v] + dv * (k == 2 ? 2.0 : 0.5));
        set(eu, u, du);
        set(ev, v, dv);
        s.add_patch(Patch(origin, eu, ev, screen));
      }
    }
  }
  s.build();
  return s;
}

TEST(SpatialSim, ScreensOnAndPastTheSplitPlanesMatchTheSerialRun) {
  for (const int P : {2, 4}) {
    const Scene s = boundary_scene(P);
    const std::vector<Aabb> regions = partition_space(s, P);
    const std::vector<Aabb> planned =
        partition_space(scenes::tessellated_room(4.0, 2.0, 3.0, 0.5), P);
    ASSERT_EQ(regions.size(), planned.size());
    for (std::size_t r = 0; r < regions.size(); ++r) {
      for (int axis = 0; axis < 3; ++axis) {
        ASSERT_EQ(regions[r].lo[axis], planned[r].lo[axis]) << "the screens moved a plane";
        ASSERT_EQ(regions[r].hi[axis], planned[r].hi[axis]) << "the screens moved a plane";
      }
    }
    RunConfig cfg;
    cfg.photons = 6000;
    cfg.batch = 500;
    cfg.workers = P;
    const RunResult spatial = run_spatial(s, cfg);
    const RunResult reference = run_serial(s, cfg);
    EXPECT_TRUE(spatial.forest == reference.forest) << "P=" << P;
    EXPECT_EQ(spatial.counters.bounces, reference.counters.bounces) << "P=" << P;
    EXPECT_EQ(spatial.counters.escaped, 0u) << "P=" << P << ": the room is closed";
  }
}

}  // namespace
}  // namespace photon
