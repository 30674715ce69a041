// Cross-module integration tests: behaviours the paper demonstrates that
// need the whole pipeline (simulate -> answer file -> view), not one module.
#include <gtest/gtest.h>

#include <cstdio>

#include "geom/scene_io.hpp"
#include "geom/scenes.hpp"
#include "sim/simulator.hpp"
#include "view/viewer.hpp"

namespace photon {
namespace {

TEST(Integration, AnswerFileWorkflow) {
  // Simulate, save the answer file, load it back, render two viewpoints —
  // the full Fig 4.10 workflow.
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 50000;
  const RunResult r = run_serial(s, cfg);

  const std::string path = ::testing::TempDir() + "/cornell.answer";
  ASSERT_TRUE(r.forest.save(path));

  BinForest loaded;
  ASSERT_TRUE(BinForest::load(path, loaded));
  EXPECT_TRUE(loaded == r.forest);

  const Camera v1({2.75, 2.75, 5.2}, {2.75, 2.75, 0}, {0, 1, 0}, 55.0, 24, 24);
  const Camera v2({4.8, 4.2, 4.8}, {1.5, 1.0, 1.5}, {0, 1, 0}, 55.0, 24, 24);
  EXPECT_GT(render(s, loaded, v1).mean_luminance(), 0.0);
  EXPECT_GT(render(s, loaded, v2).mean_luminance(), 0.0);
  std::remove(path.c_str());
}

// Shadow sharpness as a function of occluder height (Fig 4.4 / the
// harpsichord-vs-skylight discussion): with a collimated (but non-point)
// source, an occluder close to the floor casts a crisp dark shadow; a distant
// one casts a blurred shadow whose core partially fills in. Verified via the
// floor's photon density inside vs outside the geometric shadow.

// Average photon density (tallies per unit s-t area) over a spatial
// rectangle, integrating leaves by their overlap with the region.
double region_density(const BinTree& tree, float s0, float s1, float t0, float t1) {
  double total = 0.0;
  const double region_area = static_cast<double>(s1 - s0) * (t1 - t0);
  const std::vector<BinRegion> regions = tree.regions();
  for (std::size_t i = 0; i < tree.node_count(); ++i) {
    const BinNode& n = tree.node(static_cast<int>(i));
    if (!n.is_leaf()) continue;
    const BinRegion& r = regions[i];
    const double os = std::max(0.0f, std::min(s1, r.hi[0]) - std::max(s0, r.lo[0]));
    const double ot = std::max(0.0f, std::min(t1, r.hi[1]) - std::max(t0, r.lo[1]));
    const double overlap = os * ot;
    if (overlap <= 0.0) continue;
    const double leaf_area = static_cast<double>(r.extent(0)) * r.extent(1);
    if (leaf_area > 0.0) total += static_cast<double>(n.total_tally()) / leaf_area * overlap;
  }
  return total / region_area;
}

// The occluder scene's floor spans [-4,4]^2; world (x,z) -> (s,t).
float floor_coord(double x) { return static_cast<float>((x + 4.0) / 8.0); }

double shadow_contrast(double occluder_height) {
  const Scene s = scenes::occluder_scene(occluder_height, 0.5, /*angular_scale=*/0.2);
  RunConfig cfg;
  cfg.photons = 150000;
  cfg.batch = 50000;
  const RunResult r = run_serial(s, cfg);
  const BinTree& floor_tree = r.forest.tree(0, true);
  // Average density inside the geometric shadow square vs a lit strip that
  // is inside the beam footprint but clear of the shadow.
  const double core = region_density(floor_tree, floor_coord(-0.4), floor_coord(0.4),
                                     floor_coord(-0.4), floor_coord(0.4));
  // Fully lit reference: outside the widest penumbra (<= 1.1 for height 3),
  // inside the fully illuminated radius (source half-width 3 minus the
  // collimation spread 6*0.2 ~ 1.2 => |x| < 1.8).
  const double lit = region_density(floor_tree, floor_coord(1.25), floor_coord(1.7),
                                    floor_coord(-1.0), floor_coord(1.0));
  return lit > 0.0 ? core / lit : 1.0;
}

class PenumbraTest : public ::testing::TestWithParam<double> {};

TEST_P(PenumbraTest, ShadowCoreIsDarkerThanLitFloor) {
  EXPECT_LT(shadow_contrast(GetParam()), 0.9);
}

INSTANTIATE_TEST_SUITE_P(OccluderHeights, PenumbraTest, ::testing::Values(0.3, 3.0));

TEST(Integration, NearOccluderCastsSharperShadowThanFarOccluder) {
  // Occluder resting just above the floor blocks nearly everything at the
  // core; lifted toward the wide source, the collimation spread (half-angle
  // asin(0.2)) fills the core in: blur radius ~ height * 0.2 exceeds the
  // occluder half-width 0.5 for the far case.
  const double near_contrast = shadow_contrast(0.3);
  const double far_contrast = shadow_contrast(3.0);
  EXPECT_LT(near_contrast, 0.5);
  EXPECT_LT(near_contrast, far_contrast);
}

TEST(Integration, MirrorIsViewableFromAllAngles) {
  // Chapter 4: "this mirror can be viewed from all angles correctly as the
  // radiance for all angles is stored in the bin tree for the mirror."
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 150000;
  cfg.batch = 50000;
  const RunResult r = run_serial(s, cfg);

  int mirror = -1;
  for (std::size_t i = 0; i < s.patch_count(); ++i) {
    if (s.material_of(static_cast<int>(i)).specular.max_component() > 0.5) {
      mirror = static_cast<int>(i);
    }
  }
  ASSERT_GE(mirror, 0);
  const Vec3 center = s.patch(mirror).point_at(0.5, 0.5);

  // View the mirror from several directions on its front side; each look-up
  // must return some radiance (the mirror reflects the lit room everywhere).
  int lit_views = 0;
  const Vec3 eyes[] = {{2.75, 2.75, 5.0}, {1.0, 1.0, 4.5}, {4.5, 4.0, 4.4}, {2.0, 4.5, 4.8}};
  for (const Vec3& eye : eyes) {
    const Rgb c = radiance_along(s, r.forest, Ray(eye, (center - eye).normalized()));
    if (c.sum() > 0.0) ++lit_views;
  }
  EXPECT_GE(lit_views, 3);
}

TEST(Integration, SceneFileToRenderPipeline) {
  // Save a scene to its text format, reload, simulate and render.
  const Scene original = scenes::floor_and_light();
  const std::string path = ::testing::TempDir() + "/pipeline_scene.txt";
  ASSERT_TRUE(save_scene(original, path));

  Scene loaded;
  ASSERT_TRUE(load_scene(path, loaded));
  loaded.build();

  RunConfig cfg;
  cfg.photons = 20000;
  const RunResult r = run_serial(loaded, cfg);
  const Camera cam({2, 1.2, 3.8}, {2, 0, 2}, {0, 1, 0}, 60.0, 24, 24);
  EXPECT_GT(render(loaded, r.forest, cam).mean_luminance(), 0.0);
  std::remove(path.c_str());
}

TEST(Integration, PolarizedSkylightStaysPhysical) {
  // End-to-end run on the harpsichord room (glossy wood + mirror + collimated
  // sun): energies must stay finite and counters consistent.
  const Scene s = scenes::harpsichord_room();
  RunConfig cfg;
  cfg.photons = 30000;
  const RunResult r = run_serial(s, cfg);
  EXPECT_EQ(r.counters.emitted, 30000u);
  EXPECT_EQ(r.counters.absorbed + r.counters.escaped + r.counters.terminated,
            r.counters.emitted);
  EXPECT_GT(r.forest.total_tally_all(), 30000u);  // at least the emission records
}

}  // namespace
}  // namespace photon
