// Engine-level contracts: backend registry lookup, cross-backend determinism
// (the whole point of one pipeline behind pluggable backends), and the
// BatchController clamping pins.
#include "engine/backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "geom/scenes.hpp"

namespace photon {
namespace {

TEST(BackendRegistry, BuiltinsAreRegistered) {
  const std::vector<std::string> names = backend_names();
  for (const char* expected :
       {"serial", "shared", "dist-particle", "dist-spatial", "hybrid"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing backend " << expected;
  }
  for (const std::string& name : names) {
    const auto backend = make_backend(name);
    ASSERT_NE(backend, nullptr) << name;
    EXPECT_EQ(backend->name(), name);
  }
}

TEST(BackendRegistry, UnknownNameReturnsNull) {
  EXPECT_EQ(make_backend("cuda"), nullptr);
  EXPECT_EQ(make_backend(""), nullptr);
}

// The per-backend bitwise-vs-serial pins (shared@1, dist-particle@1,
// hybrid@every shape, ...) moved to the cross-backend conformance suite —
// tests/test_conformance.cpp — which runs every backend name through the
// same matrix on all bundled scenes.

TEST(CrossBackend, SharedMatchesSerialPhotonStreamReference) {
  // Photon i draws from RNG stream i on both backends, so at any worker
  // count the shared forest — per-channel emission totals included — is
  // bitwise identical to the serial run.
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 4000;
  cfg.workers = 4;
  const RunResult shared = make_backend("shared")->run(s, cfg);
  const RunResult ref = make_backend("serial")->run(s, cfg);
  EXPECT_TRUE(ref.forest == shared.forest);
  for (int c = 0; c < kNumChannels; ++c) {
    EXPECT_EQ(shared.forest.emitted(c), ref.forest.emitted(c)) << "channel " << c;
  }
}

TEST(CrossBackend, SerialResumeFromSharedCheckpointGetsFreshStream) {
  // A shared-backend checkpoint resumed through `serial` continues the
  // photon-id sequence: fresh streams, and bit for bit the uninterrupted
  // serial run of both legs.
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 2000;
  cfg.workers = 2;
  const RunResult first = make_backend("shared")->run(s, cfg);
  const RunResult resumed = make_backend("serial")->run(s, cfg, &first);
  EXPECT_EQ(resumed.counters.emitted, 2 * cfg.photons);
  EXPECT_EQ(resumed.forest.emitted_total(), 2 * cfg.photons);

  RunConfig straight = cfg;
  straight.photons = 2 * cfg.photons;
  const RunResult uninterrupted = make_backend("serial")->run(s, straight);
  EXPECT_TRUE(resumed.forest == uninterrupted.forest);
  EXPECT_EQ(resumed.counters.bounces, uninterrupted.counters.bounces);
  EXPECT_EQ(resumed.counters.terminated, uninterrupted.counters.terminated);
}

TEST(CrossBackend, SharedResumeDoesNotReplayTheFirstLeg) {
  // A resumed shared leg must draw fresh photons, not re-trace the first
  // leg's streams (which would silently double-count identical samples).
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 2000;
  cfg.workers = 2;
  const RunResult first = make_backend("shared")->run(s, cfg);
  const RunResult resumed = make_backend("shared")->run(s, cfg, &first);

  EXPECT_EQ(resumed.forest.emitted_total(), 2 * cfg.photons);
  // A replayed leg would reproduce the first leg's counters exactly; fresh
  // disjoint streams make that virtually impossible across all five fields.
  const TraceCounters leg2{resumed.counters.emitted - first.counters.emitted,
                           resumed.counters.bounces - first.counters.bounces,
                           resumed.counters.absorbed - first.counters.absorbed,
                           resumed.counters.escaped - first.counters.escaped,
                           resumed.counters.terminated - first.counters.terminated};
  EXPECT_EQ(leg2.emitted, first.counters.emitted);
  EXPECT_FALSE(leg2.bounces == first.counters.bounces &&
               leg2.absorbed == first.counters.absorbed &&
               leg2.escaped == first.counters.escaped)
      << "resumed leg reproduced the first leg's photons";
}

TEST(BatchControllerClamp, GrowthClampsExactlyToMax) {
  BatchPolicy policy;
  policy.initial = 900;
  policy.max_size = 1000;
  BatchController c(policy);
  c.update(100.0);  // 900 * 1.5 = 1350 -> clamped
  EXPECT_EQ(c.size(), 1000u);
  c.update(200.0);  // still improving, still clamped
  EXPECT_EQ(c.size(), 1000u);
}

TEST(BatchControllerClamp, BackoffClampsExactlyToMin) {
  BatchPolicy policy;
  policy.initial = 110;
  policy.min_size = 100;
  BatchController c(policy);
  c.update(100.0);  // grows to 165
  c.update(10.0);   // 165 * 0.9 = 148
  c.update(1.0);    // 133
  c.update(0.1);    // 119
  c.update(0.01);   // 107
  c.update(0.001);  // 96 -> clamped to 100
  EXPECT_EQ(c.size(), 100u);
  c.update(0.0001);  // stays pinned at the floor
  EXPECT_EQ(c.size(), 100u);
}

}  // namespace
}  // namespace photon
