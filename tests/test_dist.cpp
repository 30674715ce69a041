// `dist-particle` — the particle engine at shape workers × 1 (Fig 5.3):
// budget, ownership, the Table 5.2 processed counts, traffic, adaptive
// batches, and the bitwise pin to the serial reference at every rank count,
// batch size and resume shape.
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "engine/backend.hpp"
#include "geom/scenes.hpp"
#include "sim/simulator.hpp"

namespace photon {
namespace {

RunResult run_distributed(const Scene& scene, const RunConfig& cfg,
                          const RunResult* resume = nullptr) {
  return make_backend("dist-particle")->run(scene, cfg, resume);
}

class DistSimTest : public ::testing::TestWithParam<int> {};

TEST_P(DistSimTest, TracesTheGlobalBudget) {
  const int P = GetParam();
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 4000;
  cfg.adapt_batch = false;
  cfg.batch = 500;
  cfg.workers = P;
  const RunResult r = run_distributed(s, cfg);

  std::uint64_t traced = 0;
  for (const RankReport& rep : r.ranks) traced += rep.traced;
  EXPECT_GE(traced, cfg.photons);
  EXPECT_EQ(r.forest.emitted_total(), traced);
}

TEST_P(DistSimTest, MatchesTheSerialReferenceBitwise) {
  // The defining correctness property: distributing the bin forest must not
  // change the answer. Every photon draws from its own stream and every
  // window applies in photon-id order, so the gathered forest IS the serial
  // run's, bit for bit.
  const int P = GetParam();
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 2000 * static_cast<std::uint64_t>(P);
  cfg.adapt_batch = false;
  cfg.batch = 500;
  cfg.workers = P;
  const RunResult dist = run_distributed(s, cfg);
  const RunResult serial = run_serial(s, cfg);
  EXPECT_TRUE(dist.forest == serial.forest) << "P=" << P;
  EXPECT_EQ(dist.counters.bounces, serial.counters.bounces);
}

TEST_P(DistSimTest, OwnershipCoversEveryPatch) {
  const int P = GetParam();
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 1000;
  cfg.adapt_batch = false;
  cfg.workers = P;
  const RunResult r = run_distributed(s, cfg);
  ASSERT_EQ(r.balance.owner.size(), s.patch_count());
  for (const int o : r.balance.owner) {
    EXPECT_GE(o, 0);
    EXPECT_LT(o, P);
  }
}

TEST_P(DistSimTest, ProcessedSumsToAllRecords) {
  const int P = GetParam();
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 3000;
  cfg.adapt_batch = false;
  cfg.batch = 250;
  cfg.workers = P;
  const RunResult r = run_distributed(s, cfg);

  std::uint64_t processed = 0, records = 0;
  for (const RankReport& rep : r.ranks) {
    processed += rep.processed;
    records += rep.counters.emitted + rep.counters.bounces;
  }
  // Every record (emission or reflection) is tallied exactly once by the
  // owner, whether local or forwarded.
  EXPECT_EQ(processed, records);
}

TEST_P(DistSimTest, MessagesFlowWhenDistributed) {
  const int P = GetParam();
  if (P < 2) GTEST_SKIP();
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 2000;
  cfg.adapt_batch = false;
  cfg.workers = P;
  const RunResult r = run_distributed(s, cfg);
  std::uint64_t bytes = 0;
  for (const RankReport& rep : r.ranks) bytes += rep.sent_bytes;
  EXPECT_GT(bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistSimTest, ::testing::Values(1, 2, 4));

TEST(DistSim, NaiveAndBestFitBothCorrect) {
  const Scene s = scenes::cornell_box();
  RunConfig best, naive;
  best.photons = naive.photons = 4000;
  best.adapt_batch = naive.adapt_batch = false;
  naive.bestfit = false;
  best.workers = 4;
  const RunResult rb = run_distributed(s, best);
  naive.workers = 4;
  const RunResult rn = run_distributed(s, naive);

  // Same photons traced either way; only the ownership differs, and
  // ownership never reaches a tree's record order.
  EXPECT_TRUE(rb.forest == rn.forest);
  const auto tb = rb.forest.patch_tallies();
  const auto tn = rn.forest.patch_tallies();
  for (std::size_t p = 0; p < s.patch_count(); ++p) {
    EXPECT_NEAR(static_cast<double>(tb[p]), static_cast<double>(tn[p]),
                static_cast<double>(rb.forest.total_nodes()));
  }
}

TEST(DistSim, BestFitBalancesProcessedCounts) {
  // Table 5.2's claim, on our harpsichord room: bin packing evens out the
  // per-processor photon processing counts relative to naive assignment.
  const Scene s = scenes::harpsichord_room();
  RunConfig best, naive;
  best.photons = naive.photons = 8000;
  best.adapt_batch = naive.adapt_batch = false;
  best.batch = naive.batch = 500;
  naive.bestfit = false;
  best.workers = 8;
  const RunResult rb = run_distributed(s, best);
  naive.workers = 8;
  const RunResult rn = run_distributed(s, naive);

  auto spread = [](const RunResult& r) {
    std::uint64_t lo = UINT64_MAX, hi = 0;
    for (const RankReport& rep : r.ranks) {
      lo = std::min(lo, rep.processed);
      hi = std::max(hi, rep.processed);
    }
    return static_cast<double>(hi) / static_cast<double>(std::max<std::uint64_t>(lo, 1));
  };
  EXPECT_LT(spread(rb), spread(rn));
}

TEST(DistSim, AdaptiveBatchesGrow) {
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 30000;
  cfg.adapt_batch = true;
  cfg.batch_policy.initial = 500;
  cfg.workers = 2;
  const RunResult r = run_distributed(s, cfg);
  ASSERT_FALSE(r.ranks[0].batch_sizes.empty());
  EXPECT_EQ(r.ranks[0].batch_sizes.front(), 500u);
  // All ranks agreed on every batch size.
  EXPECT_EQ(r.ranks[0].batch_sizes, r.ranks[1].batch_sizes);
}

TEST(DistSim, GatheredForestIsComplete) {
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 6000;
  cfg.adapt_batch = false;
  cfg.workers = 4;
  const RunResult r = run_distributed(s, cfg);
  // Every patch that received probe photons must show tallies in the
  // gathered forest (owners were spread across ranks).
  const auto tallies = r.forest.patch_tallies();
  const std::uint64_t nonzero =
      static_cast<std::uint64_t>(std::count_if(tallies.begin(), tallies.end(),
                                               [](std::uint64_t t) { return t > 0; }));
  EXPECT_GT(nonzero, s.patch_count() / 2);
  EXPECT_FALSE(r.trace.points.empty());
}

// Determinism through the RouterSink/overlap path: rank count x batch size
// (the exchange threshold) must never make a run irreproducible.
class DistDeterminismTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(DistDeterminismTest, RepeatedRunsAreBitwiseIdentical) {
  const auto [P, batch] = GetParam();
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 600;
  cfg.adapt_batch = false;
  cfg.batch = batch;
  cfg.workers = P;
  const RunResult a = run_distributed(s, cfg);
  const RunResult b = run_distributed(s, cfg);
  EXPECT_TRUE(a.forest == b.forest) << "P=" << P << " batch=" << batch;
  EXPECT_EQ(a.counters.bounces, b.counters.bounces);
}

INSTANTIATE_TEST_SUITE_P(RanksAndBatches, DistDeterminismTest,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(1u, 64u, 4096u)));

class DistSerialEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DistSerialEquivalenceTest, OneRankIsBitwiseSerialAtAnyBatch) {
  // dist@1 stays bitwise identical to serial at every exchange threshold.
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 1500;
  cfg.adapt_batch = false;
  cfg.batch = GetParam();
  cfg.workers = 1;
  const RunResult dist = run_distributed(s, cfg);
  const RunResult serial = run_serial(s, cfg);
  EXPECT_TRUE(dist.forest == serial.forest) << "batch=" << cfg.batch;
}

INSTANTIATE_TEST_SUITE_P(Batches, DistSerialEquivalenceTest,
                         ::testing::Values(1u, 64u, 4096u));

TEST(DistSim, ResumeAtSameShapeIsABitwiseContinuation) {
  // The resumed leg continues the photon-id sequence and owned records apply
  // in canonical window order, so leg1 + leg2 reproduces an uninterrupted
  // run bit for bit.
  const Scene s = scenes::cornell_box();
  RunConfig leg1_cfg;
  leg1_cfg.photons = 2000;  // 2 rounds of 500 x 2 ranks
  leg1_cfg.adapt_batch = false;
  leg1_cfg.batch = 500;
  leg1_cfg.workers = 2;
  const RunResult leg1 = run_distributed(s, leg1_cfg);

  RunConfig leg2_cfg = leg1_cfg;
  leg2_cfg.photons = 1000;
  const RunResult resumed = run_distributed(s, leg2_cfg, &leg1);

  RunConfig straight_cfg = leg1_cfg;
  straight_cfg.photons = 3000;
  const RunResult straight = run_distributed(s, straight_cfg);

  EXPECT_TRUE(resumed.forest == straight.forest);
  EXPECT_EQ(resumed.counters.emitted, straight.counters.emitted);
  EXPECT_EQ(resumed.counters.bounces, straight.counters.bounces);
}

TEST(DistSim, ResumeAtDifferentShapeIsABitwiseContinuation) {
  // A photon's stream follows from its id, not from the rank that draws it:
  // a checkpoint from another rank count continues bit for bit too.
  const Scene s = scenes::cornell_box();
  RunConfig leg1_cfg;
  leg1_cfg.photons = 2000;
  leg1_cfg.adapt_batch = false;
  leg1_cfg.batch = 500;
  leg1_cfg.workers = 4;
  const RunResult leg1 = run_distributed(s, leg1_cfg);

  RunConfig leg2_cfg = leg1_cfg;
  leg2_cfg.workers = 2;
  leg2_cfg.photons = 1000;
  const RunResult resumed = run_distributed(s, leg2_cfg, &leg1);
  EXPECT_EQ(resumed.counters.emitted, 3000u);
  EXPECT_EQ(resumed.forest.emitted_total(), 3000u);

  RunConfig straight_cfg = leg1_cfg;
  straight_cfg.photons = 3000;
  EXPECT_TRUE(resumed.forest == run_serial(s, straight_cfg).forest);
}

TEST(DistSim, ResumeConservesAndReproduces) {
  // Distributed resume: each partition starts from the checkpoint's owned
  // trees (BinForest::copy_owned_trees) and the continuation adds exactly
  // config.photons more photons.
  const Scene s = scenes::cornell_box();
  RunConfig leg1_cfg;
  leg1_cfg.photons = 2000;
  leg1_cfg.adapt_batch = false;
  leg1_cfg.batch = 500;
  leg1_cfg.workers = 4;
  const RunResult leg1 = run_distributed(s, leg1_cfg);

  RunConfig leg2_cfg = leg1_cfg;
  leg2_cfg.photons = 1000;
  const RunResult resumed = run_distributed(s, leg2_cfg, &leg1);
  const RunResult resumed_again = run_distributed(s, leg2_cfg, &leg1);

  EXPECT_EQ(resumed.forest.emitted_total(), 3000u);
  EXPECT_EQ(resumed.counters.emitted, 3000u);
  // Every tally of both legs survives the copy and the gather.
  std::uint64_t leg2_records = 0;
  for (const RankReport& rep : resumed.ranks) leg2_records += rep.processed;
  EXPECT_EQ(resumed.forest.total_tally_all(),
            leg1.forest.total_tally_all() + leg2_records);
  EXPECT_TRUE(resumed.forest == resumed_again.forest);
}

TEST(DistSim, SingleRankPutsNothingOnTheWire) {
  // (dist@1 == serial bitwise is pinned, per scene, by the conformance
  // suite; this keeps the traffic claim.)
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 1000;
  cfg.adapt_batch = false;
  cfg.batch = 500;
  cfg.workers = 1;
  const RunResult dist = run_distributed(s, cfg);
  EXPECT_EQ(dist.ranks[0].sent_bytes, 0u);
}

}  // namespace
}  // namespace photon
