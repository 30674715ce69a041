// Cross-structure equivalence suite for the AccelStructure seam
// (geom/accel.hpp): every registered structure — octree and nested uniform
// grid — must answer closest-hit queries bitwise-identically to the brute
// linear scan on every bundled scene, and its parallel build must produce
// bitwise-identical packed arrays at any worker count. The
// octree additionally keeps its own long-standing suite (test_octree.cpp);
// this file pins the seam contract uniformly across kinds.
#include "geom/accel.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "engine/pool.hpp"
#include "geom/grid.hpp"
#include "geom/leaf_kernel.hpp"
#include "geom/scenes.hpp"

namespace photon {
namespace {

std::vector<Patch> random_patch_soup(int n, std::uint64_t seed) {
  std::vector<Patch> patches;
  Lcg48 rng(seed);
  for (int i = 0; i < n; ++i) {
    const Vec3 origin{rng.uniform() * 10, rng.uniform() * 10, rng.uniform() * 10};
    const Vec3 e1{rng.uniform() * 2 - 1, rng.uniform() * 2 - 1, rng.uniform() * 2 - 1};
    const Vec3 e2{rng.uniform() * 2 - 1, rng.uniform() * 2 - 1, rng.uniform() * 2 - 1};
    if (cross(e1, e2).length() < 1e-6) continue;  // skip degenerate
    patches.emplace_back(origin, e1, e2, 0);
  }
  return patches;
}

// (structure kind, scene) matrix over the bundled scenes plus "room", the
// tessellated room: thousands of coplanar tiles meeting edge to edge.
class AccelEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<AccelKind, const char*>> {};

Scene equivalence_scene(const std::string& name) {
  return name == "room" ? scenes::tessellated_room() : scenes::by_name(name);
}

std::string accel_param_name(
    const ::testing::TestParamInfo<std::tuple<AccelKind, const char*>>& info) {
  return std::string(accel_kind_name(std::get<0>(info.param))) + "_" +
         std::get<1>(info.param);
}

// The seam's core promise: patch, dist, s, t and front agree with the brute
// scan bit for bit — every structure runs the identical kernel arithmetic
// over its own leaf decomposition, so any divergence means the decomposition
// dropped a reference or the traversal's front-to-back pruning is unsound.
TEST_P(AccelEquivalenceTest, MatchesBruteForceBitwiseOnScenes) {
  Scene scene = equivalence_scene(std::get<1>(GetParam()));
  scene.set_accel(std::get<0>(GetParam()));
  scene.build();
  ASSERT_TRUE(scene.built());

  Lcg48 rng(999);
  int hits = 0;
  for (int i = 0; i < 1500; ++i) {
    const Aabb b = scene.bounds();
    const Vec3 e = b.extent();
    const Vec3 origin = b.lo + Vec3{rng.uniform() * e.x, rng.uniform() * e.y, rng.uniform() * e.z};
    Vec3 dir{rng.uniform() * 2 - 1, rng.uniform() * 2 - 1, rng.uniform() * 2 - 1};
    if (dir.length_squared() < 1e-9) continue;
    const Ray ray(origin, dir.normalized());

    const auto fast = scene.intersect(ray);
    const auto slow = scene.intersect_brute(ray);
    ASSERT_EQ(fast.has_value(), slow.has_value()) << "ray " << i;
    if (fast) {
      ++hits;
      ASSERT_EQ(fast->patch, slow->patch) << "ray " << i;
      EXPECT_EQ(fast->dist, slow->dist) << "ray " << i;
      EXPECT_EQ(fast->s, slow->s) << "ray " << i;
      EXPECT_EQ(fast->t, slow->t) << "ray " << i;
      EXPECT_EQ(fast->front, slow->front) << "ray " << i;
    }
  }
  EXPECT_GT(hits, 300) << "test exercised too few hits to be meaningful";
}

// Outside origins, grazing directions and capped tmax — the pruning paths
// (root slab miss, DDA segment clipping, per-child slab clipped by the
// running best, early-out at a confirmed nearest hit) all have to agree.
TEST_P(AccelEquivalenceTest, MatchesBruteForceOnFuzzedRays) {
  Scene scene = equivalence_scene(std::get<1>(GetParam()));
  scene.set_accel(std::get<0>(GetParam()));
  scene.build();

  const Aabb b = scene.bounds();
  const Vec3 c = b.center();
  const Vec3 e = b.extent();
  const double diag = e.length();
  Lcg48 rng(77);
  for (int i = 0; i < 1500; ++i) {
    const double scale = 0.2 + 2.0 * rng.uniform();
    const Vec3 origin = c + Vec3{(rng.uniform() - 0.5) * e.x * scale,
                                 (rng.uniform() - 0.5) * e.y * scale,
                                 (rng.uniform() - 0.5) * e.z * scale};
    Vec3 dir{rng.uniform() * 2 - 1, rng.uniform() * 2 - 1, rng.uniform() * 2 - 1};
    if (i % 3 == 0) dir.z *= 1e-4;  // grazing, nearly axis-parallel
    if (dir.length_squared() < 1e-9) continue;
    const Ray ray(origin, dir.normalized());
    const double tmax = i % 2 == 0 ? kNoHit : diag * rng.uniform();

    const auto fast = scene.intersect(ray, tmax);
    const auto slow = scene.intersect_brute(ray, tmax);
    ASSERT_EQ(fast.has_value(), slow.has_value()) << "ray " << i;
    if (fast) {
      ASSERT_EQ(fast->patch, slow->patch) << "ray " << i;
      EXPECT_EQ(fast->dist, slow->dist) << "ray " << i;
      EXPECT_EQ(fast->s, slow->s) << "ray " << i;
      EXPECT_EQ(fast->t, slow->t) << "ray " << i;
      EXPECT_EQ(fast->front, slow->front) << "ray " << i;
    }
  }
}

// The counted traversal must agree with the fast path and actually prune:
// the seam's work meters (patch tests, cells/nodes visited) feed the bench
// shootout, so they must be deterministic and meaningful for every kind.
TEST_P(AccelEquivalenceTest, CountedTraversalAgreesAndPrunes) {
  Scene scene = equivalence_scene(std::get<1>(GetParam()));
  scene.set_accel(std::get<0>(GetParam()));
  scene.build();

  const Aabb b = scene.bounds();
  const Vec3 e = b.extent();
  Lcg48 rng(31);
  TraversalStats stats;
  const int rays = 400;
  for (int i = 0; i < rays; ++i) {
    const Vec3 origin = b.lo + Vec3{rng.uniform() * e.x, rng.uniform() * e.y, rng.uniform() * e.z};
    Vec3 dir{rng.uniform() * 2 - 1, rng.uniform() * 2 - 1, rng.uniform() * 2 - 1};
    if (dir.length_squared() < 1e-9) continue;
    const Ray ray(origin, dir.normalized());
    SceneHit counted;
    const bool hit = scene.accel().intersect_counted(ray, kNoHit, counted, stats);
    const auto fast = scene.intersect(ray);
    ASSERT_EQ(hit, fast.has_value()) << "ray " << i;
    if (hit) {
      EXPECT_EQ(counted.patch, fast->patch);
      EXPECT_EQ(counted.dist, fast->dist);
    }
  }
  const double tests_per_ray = static_cast<double>(stats.patch_tests) / rays;
  EXPECT_LT(tests_per_ray, static_cast<double>(scene.patch_count()) / 2.0)
      << "structure is testing most of the scene per ray";
  EXPECT_GT(stats.nodes_visited, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AccelEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(accel_kinds()),
                       ::testing::Values("cornell", "harpsichord", "lab", "room")),
    accel_param_name);

// Per-kind behaviors that don't need a scene.
class AccelKindTest : public ::testing::TestWithParam<AccelKind> {};

std::string kind_param_name(const ::testing::TestParamInfo<AccelKind>& info) {
  return accel_kind_name(info.param);
}

TEST_P(AccelKindTest, EmptyInput) {
  const auto tree = make_accel(GetParam());
  tree->build(std::vector<Patch>{});
  EXPECT_FALSE(tree->built());
  EXPECT_FALSE(tree->intersect(Ray({0, 0, 0}, {0, 0, 1})).has_value());
}

TEST_P(AccelKindTest, SinglePatch) {
  std::vector<Patch> patches{Patch({0, 0, 0}, {1, 0, 0}, {0, 1, 0}, 0)};
  const auto tree = make_accel(GetParam());
  tree->build(patches);
  ASSERT_TRUE(tree->built());
  EXPECT_EQ(tree->kind(), GetParam());
  const auto hit = tree->intersect(Ray({0.5, 0.5, 1}, {0, 0, -1}));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->patch, 0);
  EXPECT_NEAR(hit->dist, 1.0, 1e-12);
}

TEST_P(AccelKindTest, TmaxCutsOffDistantHits) {
  std::vector<Patch> patches{Patch({0, 0, 0}, {1, 0, 0}, {0, 1, 0}, 0)};
  const auto tree = make_accel(GetParam());
  tree->build(patches);
  EXPECT_FALSE(tree->intersect(Ray({0.5, 0.5, 5}, {0, 0, -1}), 1.0).has_value());
  EXPECT_TRUE(tree->intersect(Ray({0.5, 0.5, 5}, {0, 0, -1}), 6.0).has_value());
}

TEST_P(AccelKindTest, MatchesBruteForceOnRandomSoup) {
  const auto patches = random_patch_soup(300, 2024);
  const auto tree = make_accel(GetParam());
  tree->build(patches);

  // Scalar reference loop over the raw patch array.
  const auto brute = [&](const Ray& ray) {
    SceneHit best;
    PatchHit hit;
    for (std::size_t i = 0; i < patches.size(); ++i) {
      if (patches[i].intersect(ray, best.dist, hit)) {
        best.patch = static_cast<int>(i);
        best.dist = hit.dist;
        best.s = hit.s;
        best.t = hit.t;
        best.front = hit.front;
      }
    }
    return best;
  };

  Lcg48 rng(555);
  for (int i = 0; i < 2000; ++i) {
    const Vec3 origin{rng.uniform() * 12 - 1, rng.uniform() * 12 - 1, rng.uniform() * 12 - 1};
    Vec3 dir{rng.uniform() * 2 - 1, rng.uniform() * 2 - 1, rng.uniform() * 2 - 1};
    if (dir.length_squared() < 1e-6) continue;
    const Ray ray(origin, dir.normalized());
    SceneHit fast;
    tree->intersect(ray, kNoHit, fast);
    const SceneHit slow = brute(ray);
    ASSERT_EQ(fast.patch, slow.patch) << "ray " << i;
    EXPECT_EQ(fast.dist, slow.dist) << "ray " << i;
  }
}

std::vector<Patch> patches_of(const Scene& scene) {
  return {scene.patches().begin(), scene.patches().end()};
}

// The inputs the build pins run on: random soups below and above the
// auto-width threshold, the tessellated room (thousands of coplanar tiles
// meeting edge to edge) and the lab.
std::vector<std::pair<std::string, std::vector<Patch>>> build_inputs() {
  std::vector<std::pair<std::string, std::vector<Patch>>> inputs;
  for (const int n : {64, 700, 2500}) {
    inputs.emplace_back("soup" + std::to_string(n),
                        random_patch_soup(n, 1000 + static_cast<std::uint64_t>(n)));
  }
  inputs.emplace_back("room", patches_of(scenes::tessellated_room()));
  inputs.emplace_back("lab", patches_of(scenes::computer_lab()));
  return inputs;
}

// The parallel-build determinism pin for every kind: the packed arrays must
// be bitwise-identical at any worker count (explicit workers always takes
// the task-decomposed path) — also under adversarial pool schedules, every
// helper stealing from slot 0 or a shuffled claim order, since the tasks and
// leaf-pack blocks write only their own arenas and ranges.
TEST_P(AccelKindTest, ParallelBuildIsBitwiseIdenticalToSerial) {
  for (const auto& [name, patches] : build_inputs()) {
    AccelBuildParams params;
    params.workers = 1;
    const auto serial = make_accel(GetParam());
    serial->build(patches, params);
    for (const auto schedule : {WorkerPool::TestSchedule::kNone,
                                WorkerPool::TestSchedule::kForceSteal,
                                WorkerPool::TestSchedule::kShuffle}) {
      const WorkerPool::ScheduleGuard guard(schedule, 2024);
      for (const int workers : {1, 2, 3, 4, 8}) {
        params.workers = workers;
        const auto parallel = make_accel(GetParam());
        parallel->build(patches, params);
        EXPECT_TRUE(parallel->identical_to(*serial))
            << accel_kind_name(GetParam()) << " " << name << " workers=" << workers
            << " schedule=" << static_cast<int>(schedule);
      }
    }
  }
}

// The pack allocates its lanes without zero-filling them, so it must write
// every padding lane itself: all-zero constants (a zero normal, which the
// kernel's denom != 0 test rejects) and id -1. Real lanes hold their item's
// id and constants, in CSR order.
TEST_P(AccelKindTest, EveryLaneIsAnItemOrASentinel) {
  for (const auto& [name, patches] : build_inputs()) {
    for (const int workers : {1, 4}) {
      AccelBuildParams params;
      params.workers = workers;
      const auto accel = make_accel(GetParam());
      accel->build(patches, params);
      const auto items = accel->item_offsets();
      const auto ids = accel->item_ids();
      const auto lanes = accel->lane_offsets();
      const LeafSoA& soa = accel->leaf_soa();
      ASSERT_EQ(lanes.size(), items.size());
      ASSERT_EQ(lanes.back(), soa.size());
      std::size_t sentinels = 0;
      for (std::size_t n = 0; n + 1 < items.size(); ++n) {
        std::size_t lane = lanes[n];
        for (std::uint32_t i = items[n]; i < items[n + 1]; ++i, ++lane) {
          const Patch::HitConstants c = patches[static_cast<std::size_t>(ids[i])].hit_constants();
          ASSERT_EQ(soa.id[lane], ids[i]) << name << " node " << n;
          ASSERT_EQ(soa.nx[lane], c.normal.x) << name << " node " << n;
          ASSERT_EQ(soa.t_base[lane], c.t_base) << name << " node " << n;
        }
        for (; lane < lanes[n + 1]; ++lane, ++sentinels) {
          ASSERT_EQ(soa.id[lane], -1) << name << " node " << n << " lane " << lane;
          for (const auto* array : {&soa.nx, &soa.ny, &soa.nz, &soa.plane_d, &soa.sx, &soa.sy,
                                    &soa.sz, &soa.s_base, &soa.tx, &soa.ty, &soa.tz,
                                    &soa.t_base}) {
            ASSERT_EQ((*array)[lane], 0.0) << name << " node " << n << " lane " << lane;
          }
        }
      }
      EXPECT_EQ(sentinels, soa.size() - ids.size()) << name;
      if (kernel_lane_width() > 1) EXPECT_GT(sentinels, 0u) << name;
    }
  }
}

TEST_P(AccelKindTest, IdenticalToRejectsOtherKinds) {
  const auto patches = random_patch_soup(100, 42);
  const auto mine = make_accel(GetParam());
  mine->build(patches);
  for (const AccelKind other_kind : accel_kinds()) {
    if (other_kind == GetParam()) continue;
    const auto other = make_accel(other_kind);
    other->build(patches);
    EXPECT_FALSE(mine->identical_to(*other));
  }
}

TEST_P(AccelKindTest, LanePaddingInvariants) {
  const Scene scene = scenes::computer_lab();
  const auto tree = make_accel(GetParam());
  tree->build(scene.patches());
  const auto W = static_cast<std::size_t>(kernel_lane_width());
  EXPECT_EQ(tree->lane_count() % W, 0u);
  EXPECT_GE(tree->lane_count(), tree->item_ref_count());
  EXPECT_LE(tree->lane_count(), tree->item_ref_count() + tree->node_count() * (W - 1));
  EXPECT_GT(tree->memory_bytes(), 0u);
  EXPECT_GT(tree->node_count(), 0u);
  EXPECT_GE(tree->depth(), 1);
}

INSTANTIATE_TEST_SUITE_P(Kinds, AccelKindTest,
                         ::testing::ValuesIn(accel_kinds()),
                         kind_param_name);

TEST(AccelFactory, KindNamesRoundTrip) {
  for (const AccelKind kind : accel_kinds()) {
    EXPECT_EQ(parse_accel_kind(accel_kind_name(kind)), kind);
    EXPECT_EQ(make_accel(kind)->kind(), kind);
  }
}

// An unknown name is a typed config error listing every supported kind, so
// the CLI's --accel and the service's accel= share one message.
TEST(AccelFactory, UnknownNamesListTheSupportedKinds) {
  for (const char* name : {"kdtree", "", "OCTREE"}) {
    try {
      (void)parse_accel_kind(name);
      FAIL() << "accepted '" << name << "'";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("(supported: octree | grid)"), std::string::npos)
          << e.what();
    }
  }
}

TEST(AccelFactory, CanonicalOrder) {
  const auto kinds = accel_kinds();
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], AccelKind::kOctree);
  EXPECT_EQ(kinds[1], AccelKind::kGrid);
}

TEST(HashGrid, RefinesHotCellsWhenCoarseCellsOverflow) {
  const Scene scene = scenes::computer_lab();
  HashGrid grid;
  AccelBuildParams params;
  params.grid_density = 0.5;          // coarse grid concentrates refs per cell
  params.grid_refine_threshold = 8;   // low bar: clustered furniture overflows
  grid.build(scene.patches(), params);
  EXPECT_GT(grid.refined_cell_count(), 0u);
  EXPECT_EQ(grid.depth(), 2);
  const auto res = grid.resolution();
  EXPECT_GE(res[0], 1);
  EXPECT_GE(res[1], 1);
  EXPECT_GE(res[2], 1);

  // The refined grid still answers bitwise-identically to the brute scan.
  Lcg48 rng(4242);
  const Aabb b = scene.bounds();
  const Vec3 e = b.extent();
  for (int i = 0; i < 500; ++i) {
    const Vec3 origin = b.lo + Vec3{rng.uniform() * e.x, rng.uniform() * e.y, rng.uniform() * e.z};
    Vec3 dir{rng.uniform() * 2 - 1, rng.uniform() * 2 - 1, rng.uniform() * 2 - 1};
    if (dir.length_squared() < 1e-9) continue;
    const Ray ray(origin, dir.normalized());
    SceneHit fast;
    grid.intersect(ray, kNoHit, fast);
    const auto slow = scene.intersect_brute(ray);
    ASSERT_EQ(fast.patch >= 0, slow.has_value()) << "ray " << i;
    if (slow) {
      ASSERT_EQ(fast.patch, slow->patch) << "ray " << i;
      EXPECT_EQ(fast.dist, slow->dist) << "ray " << i;
    }
  }
}

TEST(HashGrid, RefinementThresholdDisablesNesting) {
  const auto patches = random_patch_soup(200, 11);
  HashGrid grid;
  AccelBuildParams params;
  params.grid_refine_threshold = 1 << 20;  // nothing is hot
  grid.build(patches, params);
  EXPECT_EQ(grid.refined_cell_count(), 0u);
  EXPECT_EQ(grid.depth(), 1);
}

TEST(Scene, SwitchingAccelKindRebuildsAndAnswersIdentically) {
  Scene scene = scenes::cornell_box();
  ASSERT_EQ(scene.accel_kind(), AccelKind::kOctree);
  const Ray ray({0.5, 0.5, 2.5}, Vec3{0.1, -0.2, -1.0}.normalized());
  const auto reference = scene.intersect(ray);
  ASSERT_TRUE(reference.has_value());

  for (const AccelKind kind : {AccelKind::kGrid, AccelKind::kOctree}) {
    scene.set_accel(kind);
    EXPECT_FALSE(scene.built());  // switching discards the old index
    scene.build();
    ASSERT_TRUE(scene.built());
    EXPECT_EQ(scene.accel_kind(), kind);
    const auto hit = scene.intersect(ray);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->patch, reference->patch);
    EXPECT_EQ(hit->dist, reference->dist);
  }
}

}  // namespace
}  // namespace photon
