// Cross-backend conformance suite: every backend in the registry is run
// through the same matrix — repeat-determinism, conservation, bitwise
// equality against the serial reference at the shapes where the backend
// contracts it, and checkpoint-resume across a leg boundary.
//
// The matrix is data-driven from contract_for(name): registering a new
// backend automatically enrolls it in the determinism + conservation +
// resume legs at default shapes; pinning it bitwise only requires adding its
// contract here. Two reference kinds exist, matching the two RNG schemes:
//
//   kSerial        run_serial's continuous leapfrog stream — the backends
//                  that replay that exact stream (shared@1, dist-particle@1)
//   kPhotonStreams serial with RunConfig::photon_streams — per-photon
//                  disjoint RNG blocks, the reference for the backends whose
//                  answer is independent of their decomposition
//                  (dist-spatial@1, hybrid at EVERY groups×threads shape)
//
// The suite is additionally parameterized over the acceleration structure
// behind the AccelStructure seam: every backend runs the matrix on
// octree-built scenes, and serial, shared and dist-spatial repeat it with
// the BVH and the nested grid (dist-spatial also rebuilds its per-region
// local indexes with the chosen structure via RunConfig::accel). The bitwise
// reference is ALWAYS computed on the octree scenes, so those cells pin the
// structures' closest-hit equivalence through an entire simulation, not just
// per-ray.
//
// CI runs this suite under the `conformance` ctest label on both the SIMD
// and the scalar-fallback build.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <thread>
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

enum class Reference {
  kNone,           // no bitwise pin at this shape (determinism/conservation only)
  kSerial,         // bitwise == run_serial, continuous stream
  kPhotonStreams,  // bitwise == run_serial with photon_streams
};

struct BackendContract {
  std::vector<Shape> shapes;                 // every shape the matrix runs
  Reference reference = Reference::kNone;    // pin kind...
  bool reference_at_every_shape = false;     // ...at all shapes, or only 1x1
  bool resume_bitwise = false;  // leg1+leg2 == straight run, bit for bit
  // Repeated runs reproduce the forest bit for bit at every shape.
  bool repeat_bitwise_at_every_shape = true;
};

BackendContract contract_for(const std::string& name) {
  if (name == "serial") {
    return {{{1, 1}}, Reference::kSerial, true, true, true};
  }
  if (name == "shared") {
    // Pool-backed chunk scheduling (engine/pool.hpp): bitwise equal to the
    // serial photon-stream reference at EVERY worker count — including the
    // oversubscribed 1x8 — with bitwise resume and repeatability. The seed's
    // leapfrog version pinned only totals at T > 1; this contract is
    // strictly stronger.
    return {{{1, 1}, {1, 2}, {1, 4}, {1, 8}}, Reference::kPhotonStreams, true, true, true};
  }
  if (name == "dist-particle") {
    // Resume is bitwise at an unchanged shape with aligned batches — which
    // is how the resume leg below runs every backend.
    return {{{1, 1}, {1, 2}, {1, 4}}, Reference::kSerial, false, true, true};
  }
  if (name == "dist-spatial") {
    return {{{1, 1}, {1, 2}, {1, 4}}, Reference::kPhotonStreams, false, false, true};
  }
  if (name == "hybrid") {
    // The tentpole contract: bitwise-equal to the serial reference at every
    // shape, pinned on all bundled scenes below.
    return {{{1, 1}, {1, 4}, {2, 2}, {4, 1}, {4, 2}},
            Reference::kPhotonStreams,
            true,
            true,
            true};
  }
  // A backend this table has never heard of still gets the full determinism,
  // conservation and resume-conservation matrix for free.
  return {{{1, 1}, {1, 2}, {1, 4}}, Reference::kNone, false, false, true};
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

RunConfig config_for(const Shape& shape, std::uint64_t photons,
                     AccelKind accel = AccelKind::kOctree) {
  RunConfig cfg;
  cfg.photons = photons;
  cfg.batch = 500;
  cfg.adapt_batch = false;
  cfg.groups = shape.groups;
  cfg.workers = shape.workers;
  cfg.accel = accel;
  return cfg;
}

RunResult run_named(const std::string& backend, const Scene& scene, const RunConfig& cfg,
                    const RunResult* resume = nullptr) {
  const auto b = make_backend(backend);
  EXPECT_NE(b, nullptr) << backend;
  return b->run(scene, cfg, resume);
}

// The serial reference for one (kind, scene, budget) cell, computed once.
const RunResult& reference_run(Reference kind, const NamedScene& cell) {
  static std::map<std::pair<int, std::string>, RunResult> cache;
  const std::pair<int, std::string> key{static_cast<int>(kind), cell.name};
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  RunConfig cfg = config_for({1, 1}, cell.photons);
  cfg.photon_streams = kind == Reference::kPhotonStreams;
  cfg.rank = 0;
  cfg.nranks = 1;
  return cache.emplace(key, run_serial(*cell.scene, cfg)).first->second;
}

// (backend, acceleration structure) cell. Every backend runs with the
// octree; a subset repeats the matrix behind the BVH and the grid.
using ConformanceParam = std::pair<std::string, AccelKind>;

class ConformanceTest : public ::testing::TestWithParam<ConformanceParam> {};

TEST_P(ConformanceTest, RepeatRunsAreBitwiseIdentical) {
  const auto& [backend, accel] = GetParam();
  const BackendContract contract = contract_for(backend);
  const NamedScene& cell = bundled_scenes()[0];  // cornell
  const Scene& scene = scene_for(cell, accel);
  for (const Shape& shape : contract.shapes) {
    const bool one_worker = shape.groups == 1 && shape.workers == 1;
    if (!contract.repeat_bitwise_at_every_shape && !one_worker) continue;
    const RunConfig cfg = config_for(shape, cell.photons, accel);
    const RunResult a = run_named(backend, scene, cfg);
    const RunResult b = run_named(backend, scene, cfg);
    EXPECT_TRUE(a.forest == b.forest)
        << backend << " @ " << shape.groups << "x" << shape.workers;
    EXPECT_EQ(a.counters.bounces, b.counters.bounces);
  }
}

TEST_P(ConformanceTest, ConservesEmissionsAndRecords) {
  const auto& [backend, accel] = GetParam();
  const BackendContract contract = contract_for(backend);
  const NamedScene& cell = bundled_scenes()[0];
  const Scene& scene = scene_for(cell, accel);
  for (const Shape& shape : contract.shapes) {
    const RunConfig cfg = config_for(shape, cell.photons, accel);
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
  const BackendContract contract = contract_for(backend);
  if (contract.reference == Reference::kNone) {
    GTEST_SKIP() << backend << " contracts no bitwise reference shape";
  }
  for (const NamedScene& cell : bundled_scenes()) {
    // The reference is always the octree-built serial run: a non-octree cell
    // passing this pin means the structure's closest hits are bitwise-equal
    // through the whole simulation.
    const RunResult& reference = reference_run(contract.reference, cell);
    const Scene& scene = scene_for(cell, accel);
    for (const Shape& shape : contract.shapes) {
      if (!contract.reference_at_every_shape && (shape.groups != 1 || shape.workers != 1)) {
        continue;
      }
      const RunConfig cfg = config_for(shape, cell.photons, accel);
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
  const BackendContract contract = contract_for(backend);
  const auto instance = make_backend(backend);
  ASSERT_NE(instance, nullptr);
  if (!instance->supports_resume()) {
    GTEST_SKIP() << backend << " does not support resume";
  }
  const NamedScene& cell = bundled_scenes()[0];
  const Scene& scene = scene_for(cell, accel);
  const Shape shape = contract.shapes.back();  // the widest shape

  // Leg 1 ends on a batch boundary at every shape the matrix uses, so the
  // backends that contract a bitwise continuation can deliver one.
  RunConfig leg1 = config_for(shape, 2000, accel);
  RunConfig leg2 = config_for(shape, 1000, accel);
  RunConfig straight = config_for(shape, 3000, accel);
  const RunResult first = run_named(backend, scene, leg1);
  const RunResult resumed = run_named(backend, scene, leg2, &first);
  EXPECT_EQ(resumed.forest.emitted_total(), straight.photons);
  EXPECT_EQ(resumed.counters.emitted, straight.photons);
  if (contract.resume_bitwise) {
    const RunResult uninterrupted = run_named(backend, scene, straight);
    EXPECT_TRUE(resumed.forest == uninterrupted.forest)
        << backend << " @ " << shape.groups << "x" << shape.workers;
    EXPECT_EQ(resumed.counters.bounces, uninterrupted.counters.bounces);
  }
}

// Every backend × octree, plus a cross-structure band: one backend per RNG
// scheme (serial = continuous stream, shared = pool-scheduled photon
// streams, dist-spatial = per-region local indexes rebuilt from
// RunConfig::accel) × {bvh, grid}.
std::vector<ConformanceParam> conformance_cells() {
  std::vector<ConformanceParam> cells;
  for (const std::string& backend : backend_names()) {
    cells.emplace_back(backend, AccelKind::kOctree);
  }
  for (const char* backend : {"serial", "shared", "dist-spatial"}) {
    cells.emplace_back(backend, AccelKind::kBvh);
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

// --- Elastic resume across a CHANGED shape: checkpoint at width P0, resume
// at width P1 through the checkpoint byte-format round-trip. Conservation holds for
// every (P0, P1) cell; bitwise equality where the RNG scheme is
// shape-invariant — hybrid everywhere (per-photon streams), dist-particle
// only at an unchanged width with aligned batches (its leapfrog streams are
// shape-bound; at a changed width the resume degrades to disjoint-block
// streams, the conservative re-trace).
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
        leg1.batch = 100;  // aligned: leg1 ends on a batch boundary at every P0
        leg2.batch = 100;
        const RunResult first = run_named(backend, *cell.scene, leg1);

        // Through the checkpoint byte format, not just the in-memory object: this is
        // the rank/group-count elasticity photon_cli's --resume exercises.
        std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
        save_checkpoint(first, buf);
        RunResult loaded;
        ASSERT_TRUE(load_checkpoint(buf, loaded)) << label;

        const RunResult resumed = run_named(backend, *cell.scene, leg2, &loaded);
        EXPECT_GE(resumed.counters.emitted, total) << label;
        EXPECT_EQ(resumed.forest.emitted_total(), resumed.counters.emitted) << label;
        EXPECT_EQ(resumed.forest.total_tally_all(),
                  resumed.counters.emitted + resumed.counters.bounces)
            << label;

        const bool bitwise = width_is_groups || (backend == "dist-particle" && P0 == P1);
        if (bitwise) {
          RunConfig straight_cfg = config_for(shape1, total);
          straight_cfg.batch = 100;
          const RunResult straight = run_named(backend, *cell.scene, straight_cfg);
          EXPECT_TRUE(resumed.forest == straight.forest) << label;
          EXPECT_EQ(resumed.counters.bounces, straight.counters.bounces) << label;
        }
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

TEST(ConformanceOversubscribed, HybridBeyondHardwareThreadsStaysBitwise) {
  // groups × threads deliberately exceeds the machine's hardware threads:
  // heavy timeslicing must not perturb the canonical record order. CI runs
  // this leg explicitly (the conformance matrix job).
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const Shape shape{2, std::max(hw, 1) + 2};  // 2*(hw+2) > hw always
  const NamedScene& cell = bundled_scenes()[0];
  const RunConfig cfg = config_for(shape, cell.photons);
  const RunResult r = run_named("hybrid", *cell.scene, cfg);
  const RunResult& reference = reference_run(Reference::kPhotonStreams, cell);
  EXPECT_TRUE(r.forest == reference.forest)
      << "oversubscribed shape " << shape.groups << "x" << shape.workers;
}

}  // namespace
}  // namespace photon
