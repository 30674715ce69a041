// `shared` — the particle engine at shape 1 × workers (Fig 5.2): budget,
// pool telemetry, conservation and the bitwise pin to the serial reference
// at every worker count and steal schedule.
#include <gtest/gtest.h>

#include <numeric>

#include "engine/backend.hpp"
#include "engine/pool.hpp"
#include "geom/scenes.hpp"
#include "sim/simulator.hpp"

namespace photon {
namespace {

RunResult run_shared(const Scene& scene, const RunConfig& cfg) {
  return make_backend("shared")->run(scene, cfg);
}

class SharedSimTest : public ::testing::TestWithParam<int> {};

TEST_P(SharedSimTest, TracesExactlyTheRequestedPhotons) {
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 4001;  // deliberately not divisible by the thread count
  cfg.workers = GetParam();
  const RunResult r = run_shared(s, cfg);

  EXPECT_EQ(r.counters.emitted, cfg.photons);
  EXPECT_EQ(r.forest.emitted_total(), cfg.photons);
  ASSERT_EQ(r.ranks.size(), 1u);
  EXPECT_EQ(r.ranks[0].traced, cfg.photons);
}

TEST_P(SharedSimTest, PoolTelemetryAccountsForEveryPhotonAndChunk) {
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 4001;  // deliberately not divisible by the chunk size
  cfg.workers = GetParam();
  cfg.chunk = 64;
  const RunResult r = run_shared(s, cfg);

  // Dynamic stealing makes the per-worker split uneven, but the telemetry
  // must still account for every photon and every chunk exactly.
  ASSERT_EQ(r.pool.worker_photons.size(), static_cast<std::size_t>(cfg.workers));
  EXPECT_EQ(std::accumulate(r.pool.worker_photons.begin(), r.pool.worker_photons.end(),
                            std::uint64_t{0}),
            cfg.photons);
  EXPECT_EQ(r.pool.chunk_size, cfg.chunk);
  EXPECT_EQ(r.pool.chunks, chunk_count(cfg.photons, cfg.chunk));
  EXPECT_EQ(std::accumulate(r.pool.worker_chunks.begin(), r.pool.worker_chunks.end(),
                            std::uint64_t{0}),
            r.pool.chunks);
  EXPECT_EQ(std::accumulate(r.pool.worker_steals.begin(), r.pool.worker_steals.end(),
                            std::uint64_t{0}),
            r.pool.steals);
}

TEST_P(SharedSimTest, TalliesConserveRecords) {
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 5000;
  cfg.workers = GetParam();
  const RunResult r = run_shared(s, cfg);

  // Total records = emission tallies + reflection tallies. Splits only
  // redistribute (one photon of rounding per split at most).
  const std::uint64_t expected = r.counters.emitted + r.counters.bounces;
  EXPECT_NEAR(static_cast<double>(r.forest.total_tally_all()),
              static_cast<double>(expected), static_cast<double>(r.forest.total_nodes()));
}

TEST_P(SharedSimTest, BitwiseMatchesSerialPhotonStreamReference) {
  // The determinism contract: at EVERY worker count the populated forest is
  // bitwise identical to the serial reference.
  const int T = GetParam();
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 6000;
  cfg.workers = T;
  cfg.chunk = 37;  // odd grain: chunk size must not matter either
  const RunResult shared = run_shared(s, cfg);
  const RunResult ref = run_serial(s, cfg);

  EXPECT_TRUE(ref.forest == shared.forest) << "workers=" << T;
  EXPECT_EQ(ref.counters.bounces, shared.counters.bounces);
  EXPECT_EQ(ref.counters.absorbed, shared.counters.absorbed);
}

// 3 is the width that is not a power of two: the drain's patch % T parts.
INSTANTIATE_TEST_SUITE_P(ThreadCounts, SharedSimTest, ::testing::Values(1, 2, 3, 4, 8));

TEST(SharedSim, BitwiseUnderAdversarialStealSchedules) {
  // The forced-steal hook hands every chunk's static home to slot 0 (all
  // other workers must steal); the shuffle hook hands chunks out in a seeded
  // random permutation. Neither may perturb a single bit of the forest.
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 5000;
  cfg.workers = 4;
  cfg.chunk = 16;

  const RunResult ref = run_serial(s, cfg);

  {
    WorkerPool::ScheduleGuard guard(WorkerPool::TestSchedule::kForceSteal);
    const RunResult r = run_shared(s, cfg);
    EXPECT_TRUE(ref.forest == r.forest) << "forced-steal schedule";
  }
  for (std::uint64_t seed : {1ull, 42ull, 1337ull}) {
    WorkerPool::ScheduleGuard guard(WorkerPool::TestSchedule::kShuffle, seed);
    const RunResult r = run_shared(s, cfg);
    EXPECT_TRUE(ref.forest == r.forest) << "shuffle seed " << seed;
  }
}

TEST(SharedSim, SpeedTraceIsPopulated) {
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 20000;
  cfg.workers = 2;
  const RunResult r = run_shared(s, cfg);
  EXPECT_FALSE(r.trace.points.empty());
  EXPECT_GT(r.trace.final_rate(), 0.0);
  EXPECT_EQ(r.trace.points.back().photons, cfg.photons);
}

TEST(SharedSim, FurnacePhysicsSurvivesConcurrency) {
  // The furnace equilibrium must hold regardless of thread count: the
  // parallel trace and drain cannot lose photons.
  const double rho = 0.5;
  const Scene s = scenes::furnace_box(rho);
  RunConfig cfg;
  cfg.photons = 30000;
  cfg.workers = 4;
  const RunResult r = run_shared(s, cfg);
  EXPECT_NEAR(r.counters.bounces_per_photon(), rho / (1.0 - rho), 0.07);
}

}  // namespace
}  // namespace photon
