// Particle-engine contracts beyond what the conformance suite covers for
// every backend: the shape-invariance guarantee itself (any groups × threads
// shape is bitwise-equal to the serial reference), resume as a bitwise
// continuation, and the report surface.
#include "par/hybrid.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "geom/scenes.hpp"
#include "sim/simulator.hpp"

namespace photon {
namespace {

RunConfig hybrid_config(int groups, int workers) {
  RunConfig cfg;
  cfg.photons = 2000;
  cfg.batch = 500;  // global ids per window
  cfg.groups = groups;
  cfg.workers = workers;
  return cfg;
}

class HybridShapeTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HybridShapeTest, AnyShapeIsBitwiseTheSerialReference) {
  const auto [G, T] = GetParam();
  const Scene s = scenes::cornell_box();
  const RunConfig cfg = hybrid_config(G, T);
  const RunResult hybrid = run_hybrid(s, cfg);
  const RunResult reference = run_serial(s, cfg);

  EXPECT_TRUE(hybrid.forest == reference.forest) << "shape " << G << "x" << T;
  EXPECT_EQ(hybrid.counters.emitted, reference.counters.emitted);
  EXPECT_EQ(hybrid.counters.bounces, reference.counters.bounces);
  EXPECT_EQ(hybrid.counters.absorbed, reference.counters.absorbed);
  EXPECT_EQ(hybrid.counters.escaped, reference.counters.escaped);
}

TEST_P(HybridShapeTest, WindowScheduleIsShapeInvariant) {
  // The forest must not depend on the window size relative to the shape:
  // different batch values give the same answer only when the apply order is
  // truly canonical (here: global photon-id order in every window).
  const auto [G, T] = GetParam();
  const Scene s = scenes::cornell_box();
  RunConfig cfg = hybrid_config(G, T);
  const RunResult a = run_hybrid(s, cfg);
  cfg.batch = 137;  // ragged windows: slices of uneven size across groups
  const RunResult b = run_hybrid(s, cfg);
  EXPECT_TRUE(a.forest == b.forest) << "shape " << G << "x" << T;
}

INSTANTIATE_TEST_SUITE_P(Shapes, HybridShapeTest,
                         ::testing::Values(std::make_tuple(1, 1), std::make_tuple(1, 4),
                                           std::make_tuple(2, 2), std::make_tuple(4, 1),
                                           std::make_tuple(4, 2)));

TEST(HybridSim, ResumeIsABitwiseContinuation) {
  // Leg 2 continues the id sequence, so the continuation is bitwise — at a
  // different shape than leg 1, even: the id sequence, not the shape,
  // carries the state. (Legs ending mid-window are pinned by the
  // conformance suite's leg-boundary matrix.)
  const Scene s = scenes::cornell_box();
  RunConfig leg1_cfg = hybrid_config(2, 2);
  leg1_cfg.photons = 1500;  // 3 windows of 500
  const RunResult leg1 = run_hybrid(s, leg1_cfg);

  RunConfig leg2_cfg = hybrid_config(4, 2);
  leg2_cfg.photons = 1000;
  const RunResult resumed = run_hybrid(s, leg2_cfg, &leg1);

  RunConfig straight_cfg = hybrid_config(2, 2);
  straight_cfg.photons = 2500;
  const RunResult straight = run_hybrid(s, straight_cfg);

  EXPECT_TRUE(resumed.forest == straight.forest);
  EXPECT_EQ(resumed.counters.emitted, straight.counters.emitted);
  EXPECT_EQ(resumed.counters.bounces, straight.counters.bounces);
  EXPECT_EQ(resumed.forest.emitted_total(), 2500u);
}

TEST(HybridSim, TracesTheExactBudgetAndConserves) {
  const Scene s = scenes::cornell_box();
  const RunConfig cfg = hybrid_config(2, 3);
  const RunResult r = run_hybrid(s, cfg);

  std::uint64_t traced = 0, processed = 0;
  for (const RankReport& rep : r.ranks) {
    traced += rep.traced;
    processed += rep.processed;
  }
  // The id-space split is exact.
  EXPECT_EQ(traced, cfg.photons);
  EXPECT_EQ(r.counters.emitted, cfg.photons);
  EXPECT_EQ(r.forest.emitted_total(), cfg.photons);
  // Every record (emission or reflection) is tallied exactly once by the
  // owning group.
  EXPECT_EQ(processed, r.counters.emitted + r.counters.bounces);
  EXPECT_EQ(r.forest.total_tally_all(), processed);
}

TEST(HybridSim, MessagesFlowBetweenGroups) {
  const Scene s = scenes::cornell_box();
  const RunConfig cfg = hybrid_config(4, 2);
  const RunResult r = run_hybrid(s, cfg);
  std::uint64_t bytes = 0;
  for (const RankReport& rep : r.ranks) bytes += rep.sent_bytes;
  EXPECT_GT(bytes, 0u);
  EXPECT_EQ(r.ranks.size(), 4u);
  EXPECT_GT(r.ranks[0].rounds, 0u);
  ASSERT_EQ(r.balance.owner.size(), s.patch_count());
}

TEST(HybridSim, SerialPhotonStreamResumeIsBitwise) {
  const Scene s = scenes::cornell_box();
  RunConfig half;
  half.photons = 1000;
  const RunResult first = run_serial(s, half);
  const RunResult resumed = run_serial(s, half, &first);

  RunConfig full = half;
  full.photons = 2000;
  const RunResult straight = run_serial(s, full);
  EXPECT_TRUE(resumed.forest == straight.forest);
}

}  // namespace
}  // namespace photon
