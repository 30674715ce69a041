// Parameterized physics sweeps: the analytic validations of the simulator
// across their parameter spaces (the single-point versions live in
// test_simulator.cpp).
#include <gtest/gtest.h>

#include <cmath>

#include "core/sampling.hpp"
#include "geom/scenes.hpp"
#include "sim/simulator.hpp"

namespace photon {
namespace {

constexpr double kPi = 3.14159265358979323846;

// --- furnace equilibrium over the albedo range ---

class FurnaceSweep : public ::testing::TestWithParam<double> {};

TEST_P(FurnaceSweep, PathLengthMatchesGeometricSeries) {
  const double rho = GetParam();
  const Scene s = scenes::furnace_box(rho);
  RunConfig cfg;
  cfg.photons = 30000;
  const RunResult r = run_serial(s, cfg);
  // E[bounces] = rho / (1 - rho); tolerance grows with the tail at high rho.
  const double expected = rho / (1.0 - rho);
  EXPECT_NEAR(r.counters.bounces_per_photon(), expected, 0.05 * (1.0 + expected));
  EXPECT_EQ(r.counters.escaped, 0u);
}

TEST_P(FurnaceSweep, EquilibriumRadianceMatchesAnalytic) {
  const double rho = GetParam();
  const Scene s = scenes::furnace_box(rho);
  RunConfig cfg;
  cfg.photons = 120000;
  cfg.batch = 40000;
  const RunResult r = run_serial(s, cfg);

  const double expected = 1.0 / ((1.0 - rho) * kPi);
  Lcg48 rng(17);
  RunningStats stats;
  for (int i = 0; i < 600; ++i) {
    const int wall = static_cast<int>(rng.uniform_int(6));
    const Vec3 d = sample_hemisphere_rejection(rng);
    const BinCoords c = BinCoords::from_local_dir(rng.uniform(), rng.uniform(), d);
    double l = 0.0;
    for (int ch = 0; ch < 3; ++ch) {
      l += r.forest.radiance(wall, true, c, ch, s.patch(wall).area());
    }
    stats.add(l / 3.0);
  }
  EXPECT_NEAR(stats.mean(), expected, 0.1 * expected) << "rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(Albedos, FurnaceSweep, ::testing::Values(0.2, 0.4, 0.6, 0.8));

// --- parallel-plates form factor over the gap range ---

class PlatesSweep : public ::testing::TestWithParam<double> {};

double plates_form_factor(double gap) {
  // Howell C-11, directly opposed equal rectangles, X = Y = 1/gap.
  const double X = 1.0 / gap, Y = 1.0 / gap;
  const double x2 = 1 + X * X, y2 = 1 + Y * Y;
  return 2.0 / (kPi * X * Y) *
         (std::log(std::sqrt(x2 * y2 / (x2 + Y * Y))) +
          X * std::sqrt(y2) * std::atan(X / std::sqrt(y2)) +
          Y * std::sqrt(x2) * std::atan(Y / std::sqrt(x2)) - X * std::atan(X) -
          Y * std::atan(Y));
}

TEST_P(PlatesSweep, CaptureFractionMatchesFormFactor) {
  const double gap = GetParam();
  const Scene s = scenes::parallel_plates(gap);
  RunConfig cfg;
  cfg.photons = 150000;
  cfg.batch = 50000;
  const RunResult r = run_serial(s, cfg);

  const double f = plates_form_factor(gap);
  const double caught =
      static_cast<double>(r.counters.absorbed) / static_cast<double>(r.counters.emitted);
  EXPECT_NEAR(caught, f, 0.03 * f + 0.004) << "gap=" << gap;
}

INSTANTIATE_TEST_SUITE_P(Gaps, PlatesSweep, ::testing::Values(0.5, 1.0, 2.0));

// --- collimated emission cones over the scale range ---

class SunScaleSweep : public ::testing::TestWithParam<double> {};

TEST_P(SunScaleSweep, BeamFootprintMatchesCone) {
  // A collimated source at height h illuminates its footprint expanded by
  // h * tan(asin(scale)); essentially no photons land beyond it.
  const double scale = GetParam();
  Scene s;
  const int white = s.add_material(Material::lambertian({0.7, 0.7, 0.7}));
  const int light_mat = s.add_material(Material::emitter({10, 10, 10}));
  s.add_patch(Patch({-20, 0, -20}, {0, 0, 40}, {40, 0, 0}, white));  // huge floor
  const double h = 4.0;
  const int light = s.add_patch(Patch({-0.5, h, -0.5}, {1, 0, 0}, {0, 0, 1}, light_mat));
  s.add_luminaire(light, {}, scale);
  s.build();

  RunConfig cfg;
  cfg.photons = 30000;
  const RunResult r = run_serial(s, cfg);

  // Maximum distance from the source footprint edge a photon can land:
  const double spread = h * std::tan(std::asin(scale));
  const double max_half = 0.5 + spread + 1e-6;

  // Walk the floor tree's leaves; tallies wholly outside the footprint must
  // be (nearly) zero.
  const BinTree& tree = r.forest.tree(0, true);
  std::uint64_t outside = 0, total = 0;
  const std::vector<BinRegion> regions = tree.regions();
  for (std::size_t i = 0; i < tree.node_count(); ++i) {
    const BinNode& n = tree.node(static_cast<int>(i));
    if (!n.is_leaf()) continue;
    total += n.total_tally();
    // Leaf's floor-coordinate box: s,t in [0,1] -> world [-20,20].
    const BinRegion& r = regions[i];
    const double lo_x = r.lo[1] * 40.0 - 20.0;  // t maps to x (edge_t)
    const double hi_x = r.hi[1] * 40.0 - 20.0;
    const double lo_z = r.lo[0] * 40.0 - 20.0;  // s maps to z (edge_s)
    const double hi_z = r.hi[0] * 40.0 - 20.0;
    const bool beyond = lo_x > max_half || hi_x < -max_half || lo_z > max_half ||
                        hi_z < -max_half;
    if (beyond) outside += n.total_tally();
  }
  ASSERT_GT(total, 10000u);
  // Direct light cannot leave the cone; only multi-bounce photons can (and
  // this scene has a single reflective surface, so re-hits are rare).
  EXPECT_LT(static_cast<double>(outside) / static_cast<double>(total), 0.002)
      << "scale=" << scale;
}

INSTANTIATE_TEST_SUITE_P(Scales, SunScaleSweep, ::testing::Values(0.005, 0.1, 0.4));

// --- russian-roulette unbiasedness at the simulator level ---

class AbsorptionSweep : public ::testing::TestWithParam<double> {};

TEST_P(AbsorptionSweep, FloorReflectionCountMatchesAlbedo) {
  const double albedo = GetParam();
  Scene s;
  const int mat = s.add_material(Material::lambertian(Rgb::splat(albedo)));
  const int light_mat = s.add_material(Material::emitter({10, 10, 10}));
  s.add_patch(Patch({-50, 0, -50}, {0, 0, 100}, {100, 0, 0}, mat));  // effectively infinite
  const int light = s.add_patch(Patch({-1, 2, -1}, {2, 0, 0}, {0, 0, 2}, light_mat));
  s.add_luminaire(light, {}, 0.2);  // narrow beam: everything hits the floor
  s.build();

  RunConfig cfg;
  cfg.photons = 40000;
  const RunResult r = run_serial(s, cfg);
  // One bounce per photon with probability `albedo` (re-hits of the floor
  // are impossible: reflected photons fly up and escape).
  EXPECT_NEAR(r.counters.bounces_per_photon(), albedo, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Albedos, AbsorptionSweep, ::testing::Values(0.25, 0.5, 0.75));

}  // namespace
}  // namespace photon
