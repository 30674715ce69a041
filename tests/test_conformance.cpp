// Cross-backend conformance suite: every backend name is run through the
// same matrix — repeat-determinism, conservation, bitwise equality against
// the serial reference at every shape it lists, and bitwise checkpoint-resume
// across a leg boundary.
//
// One contract, one reference: every name answers bitwise-equal to the
// serial run, on per-photon RNG streams, at every shape. A backend's entry
// in shapes_for() only says which shapes the matrix runs.
//
// The suite is additionally parameterized over the acceleration structure
// behind the AccelStructure seam: every backend runs the matrix on
// octree-built scenes, and serial, shared and dist-spatial repeat it on
// grid-built ones (dist-spatial builds its per-region local indexes with the
// scene's structure). The bitwise reference is ALWAYS computed on the octree
// scenes, so those cells pin the structures' closest-hit equivalence through
// an entire simulation, not just per-ray.
//
// CI runs this suite under the `conformance` ctest label on both the SIMD
// and the scalar-fallback build.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/backend.hpp"
#include "geom/scenes.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulator.hpp"

namespace photon {
namespace {

struct Shape {
  int groups = 1;
  int workers = 1;
};

// Every shape the matrix runs per name; the last is the widest.
std::vector<Shape> shapes_for(const std::string& name) {
  if (name == "serial") return {{1, 1}};
  // The particle engine at 1 × workers, the oversubscribed 1x8 included.
  if (name == "shared") return {{1, 1}, {1, 2}, {1, 4}, {1, 8}};
  // The particle engine at workers × 1; dist-spatial at workers regions.
  if (name == "dist-particle" || name == "dist-spatial") return {{1, 1}, {1, 2}, {1, 4}};
  // The particle engine at groups × workers (hybrid).
  return {{1, 1}, {1, 4}, {2, 2}, {4, 1}, {4, 2}};
}

struct NamedScene {
  const char* name;
  const Scene* scene;
  std::uint64_t photons;  // budget scaled to the scene's cost
};

// Scenes are built once per process; the suite runs dozens of simulations
// against them. These are the octree-built instances the references use.
const std::vector<NamedScene>& bundled_scenes() {
  static const Scene cornell = scenes::cornell_box();
  static const Scene harpsichord = scenes::harpsichord_room();
  static const Scene lab = scenes::computer_lab();
  static const std::vector<NamedScene> all = {
      {"cornell", &cornell, 2000}, {"harpsichord", &harpsichord, 1200}, {"lab", &lab, 600}};
  return all;
}

// The same scene rebuilt behind a different acceleration structure, cached
// per (scene, structure) cell.
const Scene& scene_for(const NamedScene& cell, AccelKind kind) {
  if (kind == AccelKind::kOctree) return *cell.scene;
  static std::map<std::pair<std::string, int>, Scene> cache;
  const std::pair<std::string, int> key{cell.name, static_cast<int>(kind)};
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  Scene scene = scenes::by_name(cell.name);
  scene.set_accel(kind);
  scene.build();
  return cache.emplace(key, std::move(scene)).first->second;
}

RunConfig config_for(const Shape& shape, std::uint64_t photons) {
  RunConfig cfg;
  cfg.photons = photons;
  cfg.batch = 500;
  cfg.adapt_batch = false;
  cfg.groups = shape.groups;
  cfg.workers = shape.workers;
  return cfg;
}

RunResult run_named(const std::string& backend, const Scene& scene, const RunConfig& cfg,
                    const RunResult* resume = nullptr) {
  const auto b = make_backend(backend);
  EXPECT_NE(b, nullptr) << backend;
  return b->run(scene, cfg, resume);
}

// The serial reference for one (scene, budget) cell, computed once.
const RunResult& reference_run(const NamedScene& cell) {
  static std::map<std::string, RunResult> cache;
  const auto it = cache.find(cell.name);
  if (it != cache.end()) return it->second;
  return cache.emplace(cell.name, run_serial(*cell.scene, config_for({1, 1}, cell.photons)))
      .first->second;
}

// (backend, acceleration structure) cell. Every backend runs with the
// octree; a subset repeats the matrix behind the grid.
using ConformanceParam = std::pair<std::string, AccelKind>;

class ConformanceTest : public ::testing::TestWithParam<ConformanceParam> {};

TEST_P(ConformanceTest, RepeatRunsAreBitwiseIdentical) {
  const auto& [backend, accel] = GetParam();
  const NamedScene& cell = bundled_scenes()[0];  // cornell
  const Scene& scene = scene_for(cell, accel);
  for (const Shape& shape : shapes_for(backend)) {
    const RunConfig cfg = config_for(shape, cell.photons);
    const RunResult a = run_named(backend, scene, cfg);
    const RunResult b = run_named(backend, scene, cfg);
    EXPECT_TRUE(a.forest == b.forest)
        << backend << " @ " << shape.groups << "x" << shape.workers;
    EXPECT_EQ(a.counters.bounces, b.counters.bounces);
  }
}

TEST_P(ConformanceTest, ConservesEmissionsAndRecords) {
  const auto& [backend, accel] = GetParam();
  const NamedScene& cell = bundled_scenes()[0];
  const Scene& scene = scene_for(cell, accel);
  for (const Shape& shape : shapes_for(backend)) {
    const RunConfig cfg = config_for(shape, cell.photons);
    const RunResult r = run_named(backend, scene, cfg);
    // Every photon in the budget is emitted exactly once...
    EXPECT_GE(r.counters.emitted, cfg.photons)
        << backend << " @ " << shape.groups << "x" << shape.workers;
    EXPECT_EQ(r.forest.emitted_total(), r.counters.emitted);
    // ...and every record — one per emission, one per bounce — is tallied
    // exactly once, wherever its tree lives.
    EXPECT_EQ(r.forest.total_tally_all(), r.counters.emitted + r.counters.bounces)
        << backend << " @ " << shape.groups << "x" << shape.workers;
  }
}

TEST_P(ConformanceTest, BitwiseEqualToTheSerialReference) {
  const auto& [backend, accel] = GetParam();
  for (const NamedScene& cell : bundled_scenes()) {
    // The reference is always the octree-built serial run: a non-octree cell
    // passing this pin means the structure's closest hits are bitwise-equal
    // through the whole simulation.
    const RunResult& reference = reference_run(cell);
    const Scene& scene = scene_for(cell, accel);
    for (const Shape& shape : shapes_for(backend)) {
      const RunConfig cfg = config_for(shape, cell.photons);
      const RunResult r = run_named(backend, scene, cfg);
      EXPECT_TRUE(r.forest == reference.forest)
          << backend << " @ " << shape.groups << "x" << shape.workers << " on " << cell.name;
      EXPECT_EQ(r.counters.bounces, reference.counters.bounces)
          << backend << " @ " << shape.groups << "x" << shape.workers << " on " << cell.name;
    }
  }
}

TEST_P(ConformanceTest, ResumeContinuesAcrossALegBoundary) {
  const auto& [backend, accel] = GetParam();
  const NamedScene& cell = bundled_scenes()[0];
  const Scene& scene = scene_for(cell, accel);
  const Shape shape = shapes_for(backend).back();  // the widest shape

  RunConfig leg1 = config_for(shape, 2000);
  RunConfig leg2 = config_for(shape, 1000);
  RunConfig straight = config_for(shape, 3000);
  const RunResult first = run_named(backend, scene, leg1);
  const RunResult resumed = run_named(backend, scene, leg2, &first);
  EXPECT_EQ(resumed.forest.emitted_total(), straight.photons);
  EXPECT_EQ(resumed.counters.emitted, straight.photons);
  const RunResult uninterrupted = run_named(backend, scene, straight);
  EXPECT_TRUE(resumed.forest == uninterrupted.forest)
      << backend << " @ " << shape.groups << "x" << shape.workers;
  EXPECT_EQ(resumed.counters.bounces, uninterrupted.counters.bounces);
}

// Every backend × octree, plus a cross-structure band: serial (the
// reference loop), shared (the pool-scheduled particle engine) and
// dist-spatial (per-region local indexes built with the scene's structure)
// × grid.
std::vector<ConformanceParam> conformance_cells() {
  std::vector<ConformanceParam> cells;
  for (const std::string& backend : backend_names()) {
    cells.emplace_back(backend, AccelKind::kOctree);
  }
  for (const char* backend : {"serial", "shared", "dist-spatial"}) {
    cells.emplace_back(backend, AccelKind::kGrid);
  }
  return cells;
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ConformanceTest,
                         ::testing::ValuesIn(conformance_cells()),
                         [](const ::testing::TestParamInfo<ConformanceParam>& info) {
                           std::string name = info.param.first;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name + "_" + accel_kind_name(info.param.second);
                         });

// --- A room above kGridMinPatches: the size rule indexes it with the grid.
// Its serial answer equals the explicit-octree serial answer bit for bit,
// and every parallel name at its benchmark-like shape equals that answer.
// CI's scalar-kernel job runs these cells too.
TEST(ConformanceBigRoom, SizePickedGridEqualsTheOctreeAtEveryShape) {
  const Scene grid_room = scenes::tessellated_room(10.0, 3.0, 10.0, 0.1);
  ASSERT_EQ(grid_room.accel_kind(), AccelKind::kGrid);
  Scene octree_room = scenes::tessellated_room(10.0, 3.0, 10.0, 0.1);
  octree_room.set_accel(AccelKind::kOctree);
  octree_room.build();

  constexpr std::uint64_t kPhotons = 1000;
  const RunResult reference = run_serial(octree_room, config_for({1, 1}, kPhotons));
  const RunResult serial = run_serial(grid_room, config_for({1, 1}, kPhotons));
  EXPECT_TRUE(serial.forest == reference.forest);
  EXPECT_EQ(serial.counters.bounces, reference.counters.bounces);
  const std::vector<std::pair<std::string, Shape>> cells = {
      {"shared", {1, 4}}, {"dist-particle", {1, 4}}, {"hybrid", {2, 2}}, {"dist-spatial", {1, 4}}};
  for (const auto& [backend, shape] : cells) {
    const RunResult r = run_named(backend, grid_room, config_for(shape, kPhotons));
    EXPECT_TRUE(r.forest == reference.forest) << backend;
    EXPECT_EQ(r.counters.bounces, reference.counters.bounces) << backend;
  }
}

// --- Elastic resume across a CHANGED shape: checkpoint at width P0, resume
// at width P1 through the checkpoint byte-format round-trip. Every (P0, P1)
// cell conserves and equals the straight run bit for bit.
class ElasticResumeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ElasticResumeTest, CheckpointAtOneWidthResumesAtAnother) {
  const std::string backend = GetParam();
  const bool width_is_groups = backend == "hybrid";
  const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> budgets = {
      {"cornell", {1200, 600}}, {"harpsichord", {800, 400}}, {"lab", {400, 200}}};
  for (const NamedScene& cell : bundled_scenes()) {
    const auto [leg1_photons, leg2_photons] = budgets.at(cell.name);
    const std::uint64_t total = leg1_photons + leg2_photons;
    for (const int P0 : {2, 4}) {
      for (const int P1 : {1, 2, 3, 8}) {
        const std::string label = backend + " " + cell.name + " P0=" +
                                  std::to_string(P0) + " P1=" + std::to_string(P1);
        const Shape shape0 = width_is_groups ? Shape{P0, 2} : Shape{1, P0};
        const Shape shape1 = width_is_groups ? Shape{P1, 2} : Shape{1, P1};
        RunConfig leg1 = config_for(shape0, leg1_photons);
        RunConfig leg2 = config_for(shape1, leg2_photons);
        leg1.batch = 100;
        leg2.batch = 100;
        const RunResult first = run_named(backend, *cell.scene, leg1);

        // Through the checkpoint byte format, not just the in-memory object: this is
        // the rank/group-count elasticity photon_cli's --resume exercises.
        const Bytes buf = encode_checkpoint(first);
        RunResult loaded;
        ASSERT_EQ(decode_checkpoint(buf.data(), buf.data() + buf.size(), loaded),
                  CheckpointStatus::kOk)
            << label;

        const RunResult resumed = run_named(backend, *cell.scene, leg2, &loaded);
        EXPECT_GE(resumed.counters.emitted, total) << label;
        EXPECT_EQ(resumed.forest.emitted_total(), resumed.counters.emitted) << label;
        EXPECT_EQ(resumed.forest.total_tally_all(),
                  resumed.counters.emitted + resumed.counters.bounces)
            << label;

        RunConfig straight_cfg = config_for(shape1, total);
        straight_cfg.batch = 100;
        const RunResult straight = run_named(backend, *cell.scene, straight_cfg);
        EXPECT_TRUE(resumed.forest == straight.forest) << label;
        EXPECT_EQ(resumed.counters.bounces, straight.counters.bounces) << label;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DistributedBackends, ElasticResumeTest,
                         ::testing::Values("dist-particle", "dist-spatial", "hybrid"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// --- Resume at ANY leg boundary: a leg may end mid-window (the elastic
// runner cuts legs at any photon count, and a governed stop ends one
// wherever the window ends), and the continuation must still equal the
// uninterrupted run bit for bit — on every name, at every shape, on every
// bundled scene.
std::vector<Shape> leg_resume_shapes(const std::string& backend) {
  if (backend == "serial") return {{1, 1}};
  if (backend == "shared") return {{1, 1}, {1, 2}};
  if (backend == "dist-particle" || backend == "dist-spatial") return {{1, 1}, {1, 2}, {1, 4}};
  std::vector<Shape> shapes;
  for (const int G : {1, 2, 4}) {
    for (const int T : {1, 2}) shapes.push_back({G, T});
  }
  return shapes;
}

class LegBoundaryResumeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(LegBoundaryResumeTest, AnyLegBoundaryResumesBitwise) {
  const std::string backend = GetParam();
  constexpr std::uint64_t kTotal = 2000;  // four windows of 500
  for (const NamedScene& cell : bundled_scenes()) {
    const RunResult straight = run_serial(*cell.scene, config_for({1, 1}, kTotal));
    for (const Shape& shape : leg_resume_shapes(backend)) {
      for (const std::uint64_t leg1_photons : {1ull, 333ull, 1234ull, 1999ull}) {
        const std::string label = backend + " " + cell.name + " @ " +
                                  std::to_string(shape.groups) + "x" +
                                  std::to_string(shape.workers) + " leg1=" +
                                  std::to_string(leg1_photons);
        const RunResult first =
            run_named(backend, *cell.scene, config_for(shape, leg1_photons));
        const RunResult resumed = run_named(
            backend, *cell.scene, config_for(shape, kTotal - leg1_photons), &first);
        EXPECT_TRUE(resumed.forest == straight.forest) << label;
        EXPECT_EQ(resumed.counters.bounces, straight.counters.bounces) << label;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllNames, LegBoundaryResumeTest,
                         ::testing::Values("serial", "shared", "dist-particle", "hybrid",
                                           "dist-spatial"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// --- A resumed run keeps its split policy. A tree's checkpoint record
// stores only z and min_count, so a run that adopts the loaded forest (one
// group) must put its own max_leaf_count and count_growth back, as the
// partitioned groups' fresh trees have them. Every name at one group and at
// several, through the checkpoint byte format.
std::vector<Shape> policy_resume_shapes(const std::string& backend) {
  if (backend == "serial") return {{1, 1}};
  if (backend == "hybrid") return {{1, 2}, {2, 2}};
  return {{1, 1}, {1, 4}};  // shared threads, dist-particle ranks, dist-spatial regions
}

class PolicyResumeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PolicyResumeTest, ResumeKeepsANonDefaultSplitPolicy) {
  const std::string backend = GetParam();
  const Scene& scene = *bundled_scenes()[0].scene;
  SplitPolicy policy;
  policy.max_leaf_count = 128;
  policy.count_growth = 1.25;
  for (const Shape& shape : policy_resume_shapes(backend)) {
    const std::string label =
        backend + " @ " + std::to_string(shape.groups) + "x" + std::to_string(shape.workers);
    RunConfig leg1 = config_for(shape, 5000);
    RunConfig leg2 = config_for(shape, 5000);
    RunConfig straight_cfg = config_for(shape, 10000);
    for (RunConfig* cfg : {&leg1, &leg2, &straight_cfg}) cfg->policy = policy;
    const RunResult first = run_named(backend, scene, leg1);
    const Bytes buf = encode_checkpoint(first);
    RunResult loaded;
    ASSERT_EQ(decode_checkpoint(buf.data(), buf.data() + buf.size(), loaded), CheckpointStatus::kOk)
        << label;

    const RunResult resumed = run_named(backend, scene, leg2, &loaded);
    const RunResult straight = run_named(backend, scene, straight_cfg);
    EXPECT_EQ(resumed.forest.total_nodes(), straight.forest.total_nodes()) << label;
    EXPECT_TRUE(resumed.forest == straight.forest) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(AllNames, PolicyResumeTest, ::testing::ValuesIn(backend_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(ConformanceAdaptive, AdaptiveWindowsEqualTheSerialRun) {
  // Adaptive window sizes follow wall-clock rates, so the window schedule
  // differs from run to run. Records apply in photon-id order at every
  // window size, so the answer cannot.
  const NamedScene& cell = bundled_scenes()[0];
  const RunResult& reference = reference_run(cell);
  const std::vector<std::pair<std::string, Shape>> cells = {
      {"dist-particle", {1, 2}}, {"dist-particle", {1, 4}}, {"shared", {1, 4}}};
  for (const auto& [backend, shape] : cells) {
    RunConfig cfg = config_for(shape, cell.photons);
    cfg.adapt_batch = true;
    cfg.batch_policy.initial = 100;  // several windows inside the budget
    const RunResult r = run_named(backend, *cell.scene, cfg);
    ASSERT_FALSE(r.ranks.empty()) << backend;
    EXPECT_GT(r.ranks[0].batch_sizes.size(), 1u) << backend << " ran one window";
    EXPECT_TRUE(r.forest == reference.forest)
        << backend << " @ " << shape.groups << "x" << shape.workers << " with adapt_batch";
    EXPECT_EQ(r.counters.bounces, reference.counters.bounces) << backend;
  }
}

TEST(ConformanceOversubscribed, HybridBeyondHardwareThreadsStaysBitwise) {
  // groups × threads deliberately exceeds the machine's hardware threads:
  // heavy timeslicing must not perturb the canonical record order. CI runs
  // this leg explicitly (the conformance matrix job).
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const Shape shape{2, std::max(hw, 1) + 2};  // 2*(hw+2) > hw always
  const NamedScene& cell = bundled_scenes()[0];
  const RunConfig cfg = config_for(shape, cell.photons);
  const RunResult r = run_named("hybrid", *cell.scene, cfg);
  const RunResult& reference = reference_run(cell);
  EXPECT_TRUE(r.forest == reference.forest)
      << "oversubscribed shape " << shape.groups << "x" << shape.workers;
}

}  // namespace
}  // namespace photon
