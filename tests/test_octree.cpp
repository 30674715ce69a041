#include "geom/octree.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/rng.hpp"
#include "geom/scenes.hpp"
#include "sim/checkpoint.hpp"

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

// n x n tiles covering [0, size]^2 of the y = 0 plane, meeting edge to edge.
std::vector<Patch> tessellated_floor(int n, double size) {
  std::vector<Patch> tiles;
  const double step = size / n;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      tiles.emplace_back(Vec3{j * step, 0, i * step}, Vec3{0, 0, step}, Vec3{step, 0, 0}, 0);
    }
  }
  return tiles;
}

Ray random_ray(Lcg48& rng) {
  const Vec3 origin{rng.uniform() * 12 - 1, rng.uniform() * 12 - 1, rng.uniform() * 12 - 1};
  Vec3 dir{rng.uniform() * 2 - 1, rng.uniform() * 2 - 1, rng.uniform() * 2 - 1};
  while (dir.length_squared() < 1e-6) {
    dir = Vec3{rng.uniform() * 2 - 1, rng.uniform() * 2 - 1, rng.uniform() * 2 - 1};
  }
  return Ray(origin, dir.normalized());
}

TEST(Octree, EmptyInput) {
  Octree tree;
  tree.build(std::vector<Patch>{});
  EXPECT_FALSE(tree.built());
  EXPECT_FALSE(tree.intersect(Ray({0, 0, 0}, {0, 0, 1})).has_value());
}

TEST(Octree, SinglePatch) {
  std::vector<Patch> patches{Patch({0, 0, 0}, {1, 0, 0}, {0, 1, 0}, 0)};
  Octree tree;
  tree.build(patches);
  ASSERT_TRUE(tree.built());
  const auto hit = tree.intersect(Ray({0.5, 0.5, 1}, {0, 0, -1}));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->patch, 0);
  EXPECT_NEAR(hit->dist, 1.0, 1e-12);
}

TEST(Octree, ReturnsClosestOfStackedPatches) {
  std::vector<Patch> patches;
  for (int i = 0; i < 5; ++i) {
    patches.emplace_back(Vec3{0, 0, static_cast<double>(i)}, Vec3{1, 0, 0}, Vec3{0, 1, 0}, 0);
  }
  Octree tree;
  tree.build(patches);
  const auto hit = tree.intersect(Ray({0.5, 0.5, 10}, {0, 0, -1}));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->patch, 4);  // top-most (z=4) patch is closest from above
  EXPECT_NEAR(hit->dist, 6.0, 1e-12);
}

TEST(Octree, SubdividesLargeInputs) {
  const auto patches = random_patch_soup(500, 123);
  Octree tree;
  tree.build(patches);
  EXPECT_GT(tree.node_count(), 8u);  // actually split
  EXPECT_GT(tree.depth(), 0);
}

TEST(Octree, RespectsMaxDepth) {
  const auto patches = random_patch_soup(500, 321);
  Octree tree;
  AccelBuildParams params;
  params.max_depth = 2;
  tree.build(patches, params);
  EXPECT_LE(tree.depth(), 2);
}

class OctreeEquivalenceTest : public ::testing::TestWithParam<const char*> {};

// The bundled scenes plus "room": thousands of coplanar tiles whose edges
// fall on octant midplanes, where the assignment rule decides which child
// gets a tile that only touches the plane.
Scene equivalence_scene(const std::string& name) {
  return name == "room" ? scenes::tessellated_room() : scenes::by_name(name);
}

// The flattened traversal runs the exact same hit arithmetic as
// Patch::intersect on its packed per-leaf constants, so against the brute
// scan the agreement must be bitwise — patch, dist, s, t and front — not
// merely approximate. Any divergence means the packed copy or the traversal
// pruning drifted from the reference.
TEST_P(OctreeEquivalenceTest, MatchesBruteForceBitwiseOnScenes) {
  const Scene scene = equivalence_scene(GetParam());
  Lcg48 rng(999);
  int hits = 0;
  for (int i = 0; i < 1500; ++i) {
    // Rays from inside the scene bounds.
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

// Rays from *outside* the bounds and grazing directions, plus a capped-tmax
// sweep — the pruning paths (root slab miss, child slab clipped by the
// running best, early pop-time rejection) all have to agree with brute force.
TEST_P(OctreeEquivalenceTest, MatchesBruteForceOnFuzzedRays) {
  const Scene scene = equivalence_scene(GetParam());
  const Aabb b = scene.bounds();
  const Vec3 c = b.center();
  const Vec3 e = b.extent();
  const double diag = e.length();
  Lcg48 rng(77);
  for (int i = 0; i < 1500; ++i) {
    // Origins in a shell around the scene (some inside, some far outside).
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
  // Origins on the floor plane (y = b.lo.y in every scene here), where the
  // floor's tiles and their midplane-touching edges are, with every other
  // direction near-grazing to that plane.
  for (int i = 0; i < 1000; ++i) {
    const Vec3 origin{b.lo.x + rng.uniform() * e.x, b.lo.y, b.lo.z + rng.uniform() * e.z};
    Vec3 dir{rng.uniform() * 2 - 1, rng.uniform() * 2 - 1, rng.uniform() * 2 - 1};
    if (i % 2 == 0) dir.y *= 1e-4;
    if (dir.length_squared() < 1e-9) continue;
    const Ray ray(origin, dir.normalized());
    const auto fast = scene.intersect(ray);
    const auto slow = scene.intersect_brute(ray);
    ASSERT_EQ(fast.has_value(), slow.has_value()) << "floor ray " << i;
    if (fast) {
      ASSERT_EQ(fast->patch, slow->patch) << "floor ray " << i;
      EXPECT_EQ(fast->dist, slow->dist) << "floor ray " << i;
      EXPECT_EQ(fast->s, slow->s) << "floor ray " << i;
      EXPECT_EQ(fast->t, slow->t) << "floor ray " << i;
      EXPECT_EQ(fast->front, slow->front) << "floor ray " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scenes, OctreeEquivalenceTest,
                         ::testing::Values("cornell", "harpsichord", "lab", "room"));

TEST(Octree, FlatTessellatedFloorReferencesEachTileOnce) {
  // Every node's items are coplanar, so every box is flat on y and the flat
  // axis must send each tile to one half, not both. The floor's midplanes
  // land on tile edges, so no tile crosses one: each is referenced once.
  const auto floor = tessellated_floor(32, 8.0);
  Octree tree;
  tree.build(floor);
  EXPECT_GT(tree.depth(), 0);
  EXPECT_EQ(tree.item_ref_count(), floor.size());
}

TEST(Octree, TessellatedRoomStaysUnderTwoReferencesPerPatch) {
  const Scene room = scenes::tessellated_room();
  ASSERT_GE(room.patch_count(), 2880u);
  Octree tree;
  tree.build(room.patches());
  EXPECT_LE(tree.item_ref_count(), 2 * room.patch_count());
}

TEST(Octree, CoplanarStackOverTheCentreStaysOneLeaf) {
  // More items than a leaf holds, all covering the node's centre in one
  // plane: the flat axis sends them to four octants that each hold all of
  // them, so subdividing can never separate them and must stop.
  std::vector<Patch> stack;
  for (int i = 0; i < 20; ++i) {
    const double r = 1.0 + 0.1 * i;
    stack.emplace_back(Vec3{-r, 0, -r}, Vec3{0, 0, 2 * r}, Vec3{2 * r, 0, 0}, 0);
  }
  Octree tree;
  tree.build(stack);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.item_ref_count(), stack.size());
  const auto hit = tree.intersect(Ray({0.05, 1, 0.05}, {0, -1, 0}));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->patch, 0);
}

TEST(Octree, MatchesBruteForceOnRandomSoup) {
  const auto patches = random_patch_soup(300, 2024);
  Octree tree;
  tree.build(patches);
  Lcg48 rng(555);
  for (int i = 0; i < 800; ++i) {
    const Ray ray = random_ray(rng);
    const auto fast = tree.intersect(ray);

    SceneHit best;
    best.dist = kNoHit;
    for (std::size_t p = 0; p < patches.size(); ++p) {
      if (auto hit = patches[p].intersect(ray, best.dist)) {
        best.patch = static_cast<int>(p);
        best.dist = hit->dist;
      }
    }
    ASSERT_EQ(fast.has_value(), best.patch >= 0) << "ray " << i;
    if (fast) {
      EXPECT_EQ(fast->patch, best.patch);
      EXPECT_NEAR(fast->dist, best.dist, 1e-9);
    }
  }
}

TEST(Octree, RebuildReplacesAllFlattenedState) {
  // Regression: build() must clear the packed hit-test array along with the
  // node/CSR arrays — a rebuild that appends to stale packed entries makes
  // every leaf read the previous build's constants.
  const auto patches = random_patch_soup(300, 4711);
  Octree tree;
  tree.build(patches);  // first build, default params
  AccelBuildParams params;
  params.max_leaf_items = 2;
  params.max_depth = 8;
  tree.build(patches, params);  // rebuild in place with a different shape

  Lcg48 rng(808);
  for (int i = 0; i < 400; ++i) {
    const Ray ray = random_ray(rng);
    const auto fast = tree.intersect(ray);

    SceneHit best;
    best.dist = kNoHit;
    PatchHit hit;
    for (std::size_t p = 0; p < patches.size(); ++p) {
      if (patches[p].intersect(ray, best.dist, hit)) {
        best.patch = static_cast<int>(p);
        best.dist = hit.dist;
      }
    }
    ASSERT_EQ(fast.has_value(), best.patch >= 0) << "ray " << i;
    if (fast) {
      EXPECT_EQ(fast->patch, best.patch) << "ray " << i;
      EXPECT_EQ(fast->dist, best.dist) << "ray " << i;
    }
  }
}

TEST(Octree, CountedTraversalPrunesMostPatchTests) {
  // The whole point of the index: far fewer patch tests than the linear scan.
  // The counted traversal is the deterministic work meter the bench uses;
  // pin that it (a) agrees with the fast path and (b) actually prunes.
  const Scene scene = scenes::computer_lab();
  Lcg48 rng(31);
  const Aabb b = scene.bounds();
  const Vec3 e = b.extent();
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
  EXPECT_LT(tests_per_ray, static_cast<double>(scene.patch_count()) / 10.0)
      << "octree is testing a large fraction of the scene per ray";
  EXPECT_GT(stats.nodes_visited, 0u);
}

TEST(Octree, TmaxCutsOffDistantHits) {
  std::vector<Patch> patches{Patch({0, 0, 0}, {1, 0, 0}, {0, 1, 0}, 0)};
  Octree tree;
  tree.build(patches);
  EXPECT_FALSE(tree.intersect(Ray({0.5, 0.5, 5}, {0, 0, -1}), 4.0).has_value());
  EXPECT_TRUE(tree.intersect(Ray({0.5, 0.5, 5}, {0, 0, -1}), 6.0).has_value());
}

TEST(Octree, ParallelBuildIsBitwiseIdenticalToSerial) {
  // A parallel build cuts its depth-2 nodes into tasks, each built into its
  // own arena; flattened, they must give the same node/CSR/SoA arrays for
  // ANY worker count — not approximately, bitwise. Cover a real
  // architectural scene and a random soup, at widths from 2 to past the
  // task count.
  const Scene lab = scenes::computer_lab();
  const auto soup = random_patch_soup(600, 909);
  for (const auto& patches : {std::vector<Patch>(lab.patches().begin(), lab.patches().end()),
                              soup}) {
    Octree serial;
    AccelBuildParams params;
    params.workers = 1;
    serial.build(patches, params);
    for (const int workers : {2, 4, 8, 16}) {
      Octree parallel;
      params.workers = workers;
      parallel.build(patches, params);
      ASSERT_TRUE(parallel.identical_to(serial)) << "workers=" << workers;
      EXPECT_EQ(parallel.node_count(), serial.node_count());
      EXPECT_EQ(parallel.depth(), serial.depth());
      EXPECT_EQ(parallel.item_ref_count(), serial.item_ref_count());
    }
  }
}

// The topology on the bundled scenes and the tessellated room, pinned to the
// values recorded from the build before it was rewritten around per-task
// index arenas: node count, depth, reference count and XXH64 digests of the
// CSR arrays (which do not depend on the kernel lane width), at the serial
// and at a parallel width.
TEST(Octree, TopologyMatchesThePinnedBuild) {
  struct Pin {
    const char* scene;
    std::size_t nodes;
    int depth;
    std::size_t refs;
    std::uint64_t offsets_xxh64;
    std::uint64_t ids_xxh64;
  };
  constexpr Pin kPins[] = {
      {"cornell", 17, 2, 90, 0x3a532bf6f1b6f970ull, 0x60e00c2ee076dc89ull},
      {"harpsichord", 83, 3, 337, 0xac6d37bf4d3b4a16ull, 0x3b6480c20d0e0affull},
      {"lab", 1555, 5, 7428, 0x40f5c260db6f8f70ull, 0xe5691c96be81ca43ull},
      {"room", 1045, 4, 5048, 0x3c8b427fc83c4df9ull, 0x1ac07d3ba3676a94ull},
  };
  for (const Pin& pin : kPins) {
    const Scene scene = equivalence_scene(pin.scene);
    for (const int workers : {1, 4}) {
      AccelBuildParams params;
      params.workers = workers;
      Octree tree;
      tree.build(scene.patches(), params);
      const auto offsets = tree.item_offsets();
      const auto ids = tree.item_ids();
      EXPECT_EQ(tree.node_count(), pin.nodes) << pin.scene << " workers=" << workers;
      EXPECT_EQ(tree.depth(), pin.depth) << pin.scene << " workers=" << workers;
      EXPECT_EQ(tree.item_ref_count(), pin.refs) << pin.scene << " workers=" << workers;
      EXPECT_EQ(xxh64(offsets.data(), offsets.size_bytes()), pin.offsets_xxh64)
          << pin.scene << " workers=" << workers;
      EXPECT_EQ(xxh64(ids.data(), ids.size_bytes()), pin.ids_xxh64)
          << pin.scene << " workers=" << workers;
    }
  }
}

TEST(Octree, ParallelBuildAnswersIdenticalQueries) {
  // Belt and braces over the structural pin: traversal through a
  // parallel-built tree returns the same hits as through the serial build.
  const auto patches = random_patch_soup(400, 1234);
  AccelBuildParams params;
  params.workers = 1;
  Octree serial;
  serial.build(patches, params);
  params.workers = 4;
  Octree parallel;
  parallel.build(patches, params);
  Lcg48 rng(42);
  for (int i = 0; i < 500; ++i) {
    const Ray ray = random_ray(rng);
    const auto a = serial.intersect(ray);
    const auto b = parallel.intersect(ray);
    ASSERT_EQ(a.has_value(), b.has_value()) << "ray " << i;
    if (a) {
      EXPECT_EQ(a->patch, b->patch);
      EXPECT_EQ(a->dist, b->dist);
      EXPECT_EQ(a->s, b->s);
      EXPECT_EQ(a->t, b->t);
    }
  }
}

TEST(Octree, SoALanePaddingInvariants) {
  // Every leaf block is padded up to the kernel lane width, so the total lane
  // count is a multiple of the width, at least the real reference count, and
  // at most one-partial-block-per-node above it. The kernel itself must
  // report a sane compile-time configuration.
  const int W = kernel_lane_width();
  ASSERT_GE(W, 1);
  ASSERT_LE(W, 8);
  EXPECT_STRNE(kernel_backend(), "");
  const Scene scene = scenes::computer_lab();
  Octree tree;
  tree.build(scene.patches());
  EXPECT_EQ(tree.lane_count() % static_cast<std::size_t>(W), 0u);
  EXPECT_GE(tree.lane_count(), tree.item_ref_count());
  EXPECT_LE(tree.lane_count(),
            tree.item_ref_count() + tree.node_count() * static_cast<std::size_t>(W - 1));
  // CSR and lane layouts describe the same item partition.
  const auto offsets = tree.item_offsets();
  ASSERT_EQ(offsets.size(), tree.node_count() + 1);
  EXPECT_EQ(offsets.back(), tree.item_ref_count());
  ASSERT_EQ(tree.item_ids().size(), tree.item_ref_count());
}

TEST(Octree, SceneBoundsCoverAllPatches) {
  const Scene scene = scenes::cornell_box();
  const Aabb root = scene.accel().bounds();
  for (const Patch& p : scene.patches()) {
    const Aabb pb = p.bounds();
    EXPECT_TRUE(root.contains(pb.lo));
    EXPECT_TRUE(root.contains(pb.hi));
  }
}

}  // namespace
}  // namespace photon
