#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/sampling.hpp"
#include "geom/scenes.hpp"

namespace photon {
namespace {

constexpr double kPi = 3.14159265358979323846;

TEST(Simulator, RunsRequestedPhotons) {
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 5000;
  cfg.batch = 1000;
  const RunResult r = run_serial(s, cfg);
  EXPECT_EQ(r.counters.emitted, 5000u);
  EXPECT_EQ(r.trace.total_photons, 5000u);
  EXPECT_EQ(r.forest.emitted_total(), 5000u);
  EXPECT_EQ(r.trace.points.size(), 5u);
  EXPECT_EQ(r.memory.size(), 5u);
}

TEST(Simulator, DeterministicForSameSeed) {
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 3000;
  const RunResult a = run_serial(s, cfg);
  const RunResult b = run_serial(s, cfg);
  EXPECT_TRUE(a.forest == b.forest);
  EXPECT_EQ(a.counters.bounces, b.counters.bounces);
}

TEST(Simulator, DifferentSeedsDiffer) {
  const Scene s = scenes::cornell_box();
  RunConfig a_cfg, b_cfg;
  a_cfg.photons = b_cfg.photons = 2000;
  b_cfg.seed = a_cfg.seed + 1;
  const RunResult a = run_serial(s, a_cfg);
  const RunResult b = run_serial(s, b_cfg);
  EXPECT_FALSE(a.forest == b.forest);
}

TEST(Simulator, FurnaceRadianceIsAnalytic) {
  // Closed box, every wall emits M=1 and reflects rho: equilibrium exitance
  // B = M / (1 - rho), radiance L = B / pi, identical everywhere.
  const double rho = 0.5;
  const Scene s = scenes::furnace_box(rho);
  RunConfig cfg;
  cfg.photons = 150000;
  cfg.batch = 50000;
  const RunResult r = run_serial(s, cfg);

  const double expected = 1.0 / ((1.0 - rho) * kPi);
  Lcg48 rng(4711);
  for (std::size_t wall = 0; wall < s.patch_count(); ++wall) {
    RunningStats stats;
    for (int i = 0; i < 400; ++i) {
      const Vec3 d = sample_hemisphere_rejection(rng);
      const BinCoords c = BinCoords::from_local_dir(rng.uniform(), rng.uniform(), d);
      double l = 0.0;
      for (int ch = 0; ch < 3; ++ch) {
        l += r.forest.radiance(static_cast<int>(wall), true, c, ch,
                               s.patch(static_cast<int>(wall)).area());
      }
      stats.add(l / 3.0);
    }
    EXPECT_NEAR(stats.mean(), expected, 0.1 * expected) << "wall " << wall;
  }
}

TEST(Simulator, FurnaceEnergyBalance) {
  // Mean path length of a photon with survival probability rho is the
  // geometric series: E[bounces] = rho / (1 - rho).
  const double rho = 0.6;
  const Scene s = scenes::furnace_box(rho);
  RunConfig cfg;
  cfg.photons = 40000;
  const RunResult r = run_serial(s, cfg);
  EXPECT_NEAR(r.counters.bounces_per_photon(), rho / (1.0 - rho), 0.05);
  EXPECT_EQ(r.counters.escaped, 0u);
}

TEST(Simulator, ParallelPlatesFormFactor) {
  // Fraction of diffusely emitted photons caught by a coaxial parallel unit
  // square equals the analytic form factor (Howell C-11).
  const double gap = 1.0;
  const Scene s = scenes::parallel_plates(gap);
  RunConfig cfg;
  cfg.photons = 200000;
  cfg.batch = 50000;
  const RunResult r = run_serial(s, cfg);

  // Analytic form factor between directly opposed unit squares, distance c:
  // with X = a/c = 1, Y = b/c = 1:
  const double X = 1.0 / gap, Y = 1.0 / gap;
  const double x2 = 1 + X * X, y2 = 1 + Y * Y;
  const double f =
      2.0 / (kPi * X * Y) *
      (std::log(std::sqrt(x2 * y2 / (x2 + Y * Y))) +
       X * std::sqrt(y2) * std::atan(X / std::sqrt(y2)) +
       Y * std::sqrt(x2) * std::atan(Y / std::sqrt(x2)) - X * std::atan(X) - Y * std::atan(Y));

  // Receiver is black and one-sided: every photon that hits it is absorbed;
  // everything else escapes the open scene.
  const double caught =
      static_cast<double>(r.counters.absorbed) / static_cast<double>(r.counters.emitted);
  EXPECT_NEAR(caught, f, 0.02 * f + 0.003);
}

TEST(Simulator, MemoryGrowthSlowsAfterBuildup) {
  // Fig 5.4: "after an initial buildup of memory, the size of the bin forest
  // tends to increase sub-linearly." Compare bin-node growth over the first
  // and last thirds of the run (node counts are smoother than capacity
  // bytes, which jump by powers of two).
  const Scene s = scenes::harpsichord_room();
  const SplitPolicy policy;
  BinForest forest(s.patch_count(), policy);
  const Emitter emitter(s);
  const Tracer tracer(s);
  ForestSink sink(forest);
  Lcg48 rng(1);

  const int batches = 12;
  const std::uint64_t per_batch = 10000;
  std::vector<std::uint64_t> nodes;
  for (int b = 0; b < batches; ++b) {
    for (std::uint64_t i = 0; i < per_batch; ++i) tracer.trace(emitter.emit(rng), rng, sink);
    nodes.push_back(forest.total_nodes());
  }
  const std::uint64_t first_third = nodes[3] - 2 * forest.patch_count();  // minus empty roots
  const std::uint64_t last_third = nodes[11] - nodes[7];
  EXPECT_GT(nodes[11], nodes[3]);  // still growing...
  EXPECT_LT(last_third, first_third);  // ...but slower than the initial buildup
}

TEST(Simulator, SpeedTraceIsMonotone) {
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 8000;
  cfg.batch = 1000;
  const RunResult r = run_serial(s, cfg);
  for (std::size_t i = 1; i < r.trace.points.size(); ++i) {
    EXPECT_GE(r.trace.points[i].time_s, r.trace.points[i - 1].time_s);
    EXPECT_GT(r.trace.points[i].photons, r.trace.points[i - 1].photons);
  }
  EXPECT_GT(r.trace.final_rate(), 0.0);
}

TEST(Simulator, MirrorSceneBinsAngularly) {
  // Chapter 4: "A purely diffuse surface requires only planar bin
  // subdivisions while a specular surface requires more angular bin
  // subdivisions." Compare the mirror's split axes against the walls'.
  const Scene s = scenes::cornell_box();
  int mirror_patch = -1;
  for (std::size_t i = 0; i < s.patch_count(); ++i) {
    const Material& m = s.material_of(static_cast<int>(i));
    if (m.specular.max_component() > 0.5) mirror_patch = static_cast<int>(i);
  }
  ASSERT_GE(mirror_patch, 0);

  RunConfig cfg;
  cfg.photons = 120000;
  cfg.batch = 40000;
  const RunResult r = run_serial(s, cfg);

  auto angular_fraction = [&](int patch) {
    int angular = 0, total = 0;
    for (int side = 0; side < 2; ++side) {
      const BinTree& tree = r.forest.tree(patch, side == 0);
      for (std::size_t i = 0; i < tree.node_count(); ++i) {
        const BinNode& n = tree.node(static_cast<int>(i));
        if (n.is_leaf()) continue;
        ++total;
        if (n.axis >= 2) ++angular;
      }
    }
    return total > 0 ? static_cast<double>(angular) / total : 0.0;
  };

  const double mirror_frac = angular_fraction(mirror_patch);
  const double floor_frac = angular_fraction(0);
  EXPECT_GT(mirror_frac, floor_frac);
}

}  // namespace
}  // namespace photon
