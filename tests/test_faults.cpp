// Backend-level fault injection and recovery (engine/recovery.hpp on top of
// mp/fault.hpp): a scripted rank death must recover bitwise (every backend
// answers shape-invariant), conserve every tally, and never hang — with
// announce_death the cascade wakes blocked peers without any deadline;
// without it the heartbeat detector declares the loss. CI runs this file
// under the `faults` ctest label, including the TSan job.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "engine/recovery.hpp"
#include "geom/scenes.hpp"
#include "sim/simulator.hpp"

namespace photon {
namespace {

struct FaultScene {
  const char* name;
  const Scene* scene;
  std::uint64_t photons;  // budget scaled to the scene's cost
};

const std::vector<FaultScene>& fault_scenes() {
  static const Scene cornell = scenes::cornell_box();
  static const Scene harpsichord = scenes::harpsichord_room();
  static const Scene lab = scenes::computer_lab();
  static const std::vector<FaultScene> all = {
      {"cornell", &cornell, 1200}, {"harpsichord", &harpsichord, 800}, {"lab", &lab, 400}};
  return all;
}

constexpr std::uint64_t kWindow = 200;  // batch/window size every test uses
constexpr std::uint64_t kLeg = 600;     // checkpoint leg (3 windows)

RunConfig fault_config(std::uint64_t photons) {
  RunConfig cfg;
  cfg.photons = photons;
  cfg.batch = kWindow;
  cfg.adapt_batch = false;
  cfg.groups = 2;
  cfg.workers = 2;
  cfg.checkpoint_photons = kLeg;
  return cfg;
}

// The serial reference — what every backend equals at EVERY shape, so also
// what a recovered run must equal at the survivor shape.
const RunResult& stream_reference(const FaultScene& cell) {
  static std::map<std::string, RunResult> cache;
  const auto it = cache.find(cell.name);
  if (it != cache.end()) return it->second;
  RunConfig cfg;
  cfg.photons = cell.photons;
  cfg.batch = kWindow;
  return cache.emplace(cell.name, run_serial(*cell.scene, cfg)).first->second;
}

void expect_conserved(const RunResult& r, std::uint64_t photons, const std::string& label) {
  // Every budgeted photon emitted, every record tallied exactly once.
  EXPECT_GE(r.counters.emitted, photons) << label;
  EXPECT_EQ(r.forest.emitted_total(), r.counters.emitted) << label;
  EXPECT_EQ(r.forest.total_tally_all(), r.counters.emitted + r.counters.bounces) << label;
}

RunResult run_with_plan(const std::string& backend, const Scene& scene, RunConfig cfg,
                        std::shared_ptr<FaultPlan> plan, RecoveryStats* stats) {
  cfg.fault_plan = std::move(plan);
  const auto instance = make_backend(backend);
  EXPECT_NE(instance, nullptr) << backend;
  return run_elastic(*instance, scene, cfg, nullptr, stats);
}

TEST(ElasticRunner, NoFaultsNoLegsIsAPlainRun) {
  const FaultScene& cell = fault_scenes()[0];
  RunConfig cfg = fault_config(cell.photons);
  cfg.checkpoint_photons = 0;
  RecoveryStats stats;
  const RunResult r = run_with_plan("hybrid", *cell.scene, cfg, nullptr, &stats);
  EXPECT_EQ(stats.legs, 1);
  EXPECT_EQ(stats.failures, 0);
  EXPECT_EQ(stats.final_width, 2);
  EXPECT_TRUE(r.forest == stream_reference(cell).forest);
  expect_conserved(r, cell.photons, "plain");
}

TEST(ElasticRunner, LegsAloneStayBitwise) {
  // Cutting the run into checkpoint legs (no faults) must not perturb a
  // single bit — the legs ride the backends' bitwise resume contract.
  const FaultScene& cell = fault_scenes()[0];
  RecoveryStats stats;
  const RunResult r =
      run_with_plan("hybrid", *cell.scene, fault_config(cell.photons), nullptr, &stats);
  EXPECT_EQ(stats.legs, 2);  // 1200 photons in 600-photon legs
  EXPECT_EQ(stats.failures, 0);
  EXPECT_TRUE(r.forest == stream_reference(cell).forest);
  EXPECT_EQ(r.counters.bounces, stream_reference(cell).counters.bounces);
}

TEST(ElasticRunner, HybridRankDeathRecoversBitwiseOnAllScenes) {
  // The tentpole acceptance: kill a rank mid-run on every bundled scene; the
  // recovered run must equal the undisturbed photon-stream answer bit for
  // bit at the survivor shape.
  for (const FaultScene& cell : fault_scenes()) {
    auto plan = std::make_shared<FaultPlan>();
    plan->add_kill({1, FaultPoint::kBeforeBatch, 1});
    RecoveryStats stats;
    const RunResult r =
        run_with_plan("hybrid", *cell.scene, fault_config(cell.photons), plan, &stats);
    EXPECT_EQ(stats.failures, 1) << cell.name;
    EXPECT_EQ(stats.ranks_lost, 1) << cell.name;
    EXPECT_EQ(stats.final_width, 1) << cell.name;
    ASSERT_EQ(stats.dead_ranks.size(), 1u) << cell.name;
    EXPECT_EQ(stats.dead_ranks[0], 1) << cell.name;
    EXPECT_GT(stats.photons_retraced, 0u) << cell.name;
    EXPECT_TRUE(r.forest == stream_reference(cell).forest) << cell.name;
    EXPECT_EQ(r.counters.bounces, stream_reference(cell).counters.bounces) << cell.name;
    expect_conserved(r, cell.photons, cell.name);
  }
}

TEST(ElasticRunner, DeathAfterACompletedLegRewindsToTheCheckpointOnly) {
  // Window indices are global across legs, so batch=4 dies in leg 2 — after
  // leg 1 checkpointed. Only the open leg's photons are re-traced.
  const FaultScene& cell = fault_scenes()[0];  // 1200 photons, legs of 600
  auto plan = std::make_shared<FaultPlan>();
  plan->add_kill({0, FaultPoint::kBeforeBatch, 4});
  RecoveryStats stats;
  const RunResult r =
      run_with_plan("hybrid", *cell.scene, fault_config(cell.photons), plan, &stats);
  EXPECT_EQ(stats.failures, 1);
  EXPECT_EQ(stats.photons_retraced, kLeg);  // leg 2 only, not the whole run
  EXPECT_TRUE(r.forest == stream_reference(cell).forest);
  expect_conserved(r, cell.photons, "leg2-death");
}

TEST(ElasticRunner, KillMatrixEveryPointRecoversBitwiseOrFailsLoudly) {
  // The deterministic kill-matrix fuzz: every (rank, window, injection
  // point) combination on the small scene must either finish bitwise-equal
  // and fully conserved or throw — silent tally loss is the one outcome that
  // must be impossible.
  const FaultScene& cell = fault_scenes()[0];
  const RunResult& reference = stream_reference(cell);
  for (int rank = 0; rank < 2; ++rank) {
    for (const std::uint64_t batch : {0ull, 2ull, 4ull, 5ull}) {
      for (const FaultPoint point :
           {FaultPoint::kBeforeBatch, FaultPoint::kMidExchange, FaultPoint::kAfterBatch}) {
        const std::string label = std::string("rank=") + std::to_string(rank) +
                                  " batch=" + std::to_string(batch) + " point=" +
                                  fault_point_name(point);
        auto plan = std::make_shared<FaultPlan>();
        plan->add_kill({rank, point, batch});
        RecoveryStats stats;
        const RunResult r =
            run_with_plan("hybrid", *cell.scene, fault_config(cell.photons), plan, &stats);
        EXPECT_EQ(stats.failures, 1) << label;
        EXPECT_EQ(stats.final_width, 1) << label;
        EXPECT_TRUE(r.forest == reference.forest) << label;
        EXPECT_EQ(r.counters.bounces, reference.counters.bounces) << label;
        expect_conserved(r, cell.photons, label);
      }
    }
  }
}

TEST(ElasticRunner, DistParticleRankDeathConservesTallies) {
  // dist-particle is the particle engine at workers × 1: recovery at the
  // survivor shape conserves every tally and stays bitwise.
  const FaultScene& cell = fault_scenes()[0];
  RunConfig cfg = fault_config(cell.photons);
  cfg.workers = 3;
  auto plan = std::make_shared<FaultPlan>();
  plan->add_kill({2, FaultPoint::kMidExchange, 1});
  RecoveryStats stats;
  const RunResult r = run_with_plan("dist-particle", *cell.scene, cfg, plan, &stats);
  EXPECT_EQ(stats.failures, 1);
  ASSERT_EQ(stats.dead_ranks.size(), 1u);
  EXPECT_EQ(stats.dead_ranks[0], 2);
  EXPECT_EQ(stats.final_width, 2);
  expect_conserved(r, cell.photons, "dist-particle");
  EXPECT_TRUE(r.forest == stream_reference(cell).forest);
  EXPECT_EQ(r.counters.bounces, stream_reference(cell).counters.bounces);
}

TEST(ElasticRunner, DistSpatialRankDeathConservesTallies) {
  const FaultScene& cell = fault_scenes()[0];
  RunConfig cfg = fault_config(cell.photons);
  cfg.workers = 3;
  auto plan = std::make_shared<FaultPlan>();
  plan->add_kill({2, FaultPoint::kAfterBatch, 0});
  RecoveryStats stats;
  const RunResult r = run_with_plan("dist-spatial", *cell.scene, cfg, plan, &stats);
  EXPECT_EQ(stats.failures, 1);
  EXPECT_EQ(stats.final_width, 2);
  expect_conserved(r, cell.photons, "dist-spatial");
  EXPECT_TRUE(r.forest == stream_reference(cell).forest);
  EXPECT_EQ(r.counters.bounces, stream_reference(cell).counters.bounces);
}

TEST(ElasticRunner, DelayIsAbsorbedByDeadlineRetriesWithoutRecovery) {
  // A slow delivery under a short per-attempt deadline: the backed-off
  // retries must ride it out — same answer, no failure, retries visible in
  // the telemetry.
  const FaultScene& cell = fault_scenes()[0];
  RunConfig cfg = fault_config(cell.photons);
  cfg.checkpoint_photons = 0;
  cfg.comm.deadline_s = 0.03;
  auto plan = std::make_shared<FaultPlan>();
  plan->add_delay({0, 1, 0, 0, 0.1});  // first 0->1 record delivery, 100ms late
  RecoveryStats stats;
  const RunResult r = run_with_plan("hybrid", *cell.scene, cfg, plan, &stats);
  EXPECT_EQ(stats.failures, 0);
  EXPECT_TRUE(r.forest == stream_reference(cell).forest);
  std::uint64_t retries = 0;
  for (const RankReport& rank : r.ranks) retries += rank.deadline_retries;
  EXPECT_GT(retries, 0u);
}

TEST(ElasticRunner, DroppedDeliveryFailsLoudlyAndRecovers) {
  // A dropped record delivery starves a receiver while its peer waits in
  // the next collective. Both waits are deadline-bounded, so the detector
  // counts both ranks alive and the world fails LOUDLY with a plain timeout
  // (never declaring both ranks dead); the runner retries at the same shape,
  // and the consumed drop cannot re-fire. The final answer must be bitwise.
  const FaultScene& cell = fault_scenes()[0];
  RunConfig cfg = fault_config(cell.photons);
  cfg.comm.deadline_s = 0.02;
  cfg.comm.retries = 2;
  cfg.comm.heartbeats = true;
  auto plan = std::make_shared<FaultPlan>();
  plan->add_drop({0, 1, 0, 0});
  RecoveryStats stats;
  const RunResult r = run_with_plan("hybrid", *cell.scene, cfg, plan, &stats);
  EXPECT_GE(stats.failures, 1);
  EXPECT_TRUE(r.forest == stream_reference(cell).forest);
  expect_conserved(r, cell.photons, "drop");
}

TEST(ElasticRunner, AllRanksDeadThrowsTheWorldFailure) {
  const FaultScene& cell = fault_scenes()[0];
  auto plan = std::make_shared<FaultPlan>();
  plan->add_kill({0, FaultPoint::kBeforeBatch, 0});
  plan->add_kill({1, FaultPoint::kBeforeBatch, 0});
  RecoveryStats stats;
  EXPECT_THROW(run_with_plan("hybrid", *cell.scene, fault_config(cell.photons), plan, &stats),
               WorldFailure);
  EXPECT_EQ(stats.failures, 1);
  EXPECT_EQ(stats.ranks_lost, 2);
}

TEST(ElasticRunner, MaxRecoveriesExhaustedThrows) {
  const FaultScene& cell = fault_scenes()[0];
  RunConfig cfg = fault_config(cell.photons);
  cfg.max_recoveries = 0;
  auto plan = std::make_shared<FaultPlan>();
  plan->add_kill({1, FaultPoint::kBeforeBatch, 0});
  RecoveryStats stats;
  EXPECT_THROW(run_with_plan("hybrid", *cell.scene, cfg, plan, &stats), WorldFailure);
  EXPECT_EQ(stats.failures, 1);
}

}  // namespace
}  // namespace photon
