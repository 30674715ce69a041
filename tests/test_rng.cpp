#include "core/rng.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace photon {
namespace {

TEST(Lcg48, DeterministicForSameSeed) {
  Lcg48 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_bits(), b.next_bits());
}

TEST(Lcg48, DifferentSeedsDiffer) {
  Lcg48 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_bits() == b.next_bits()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Lcg48, MatchesReferenceRecurrence) {
  // x' = (a x + c) mod 2^48 with drand48 constants.
  Lcg48 g(12345);
  std::uint64_t x = 12345;
  for (int i = 0; i < 50; ++i) {
    x = (Lcg48::kA * x + Lcg48::kC) & Lcg48::kModMask;
    EXPECT_EQ(g.next_bits(), x);
  }
}

TEST(Lcg48, UniformIsInUnitInterval) {
  Lcg48 g(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = g.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Lcg48, UniformMeanAndVariance) {
  Lcg48 g(99);
  const int n = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double u = g.uniform();
    sum += u;
    sum2 += u * u;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(Lcg48, ChiSquareUniformity) {
  Lcg48 g(31337);
  constexpr int kBins = 64;
  constexpr int kDraws = 64 * 2000;
  std::vector<int> counts(kBins, 0);
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<std::size_t>(g.uniform() * kBins)];
  }
  const double expected = static_cast<double>(kDraws) / kBins;
  double chi2 = 0.0;
  for (const int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // 63 dof: mean 63, stddev ~11.2; 5-sigma bound.
  EXPECT_LT(chi2, 63.0 + 5.0 * 11.2);
}

TEST(Lcg48, SkipMatchesIteration) {
  Lcg48 a(555), b(555);
  for (int i = 0; i < 137; ++i) a.next_bits();
  b.skip(137);
  EXPECT_EQ(a.state(), b.state());
}

TEST(Lcg48, SkipZeroIsIdentity) {
  Lcg48 a(555);
  const std::uint64_t before = a.state();
  a.skip(0);
  EXPECT_EQ(a.state(), before);
}

TEST(Lcg48, SkipLargeIsConsistent) {
  // skip(n+m) == skip(n); skip(m)
  Lcg48 a(9), b(9);
  a.skip(1'000'000'007ULL);
  b.skip(1'000'000'000ULL);
  b.skip(7);
  EXPECT_EQ(a.state(), b.state());
}

TEST(Lcg48, StrideConstantsComposeLikeSteps) {
  std::uint64_t mul = 0, add = 0;
  Lcg48::stride_constants(3, mul, add);
  std::uint64_t x = 777;
  const std::uint64_t direct = (mul * x + add) & Lcg48::kModMask;
  for (int i = 0; i < 3; ++i) x = (Lcg48::kA * x + Lcg48::kC) & Lcg48::kModMask;
  EXPECT_EQ(direct, x);
}

// --- per-photon streams ---

TEST(PhotonStream, BlocksAreDisjointSlicesOfTheSequence) {
  // Photon i's first draw is element i * 4096 + 1 of the sequence.
  Lcg48 global(0xABCDEF);
  for (std::uint64_t id = 0; id < 4; ++id) {
    Lcg48 expected = global;
    expected.skip(id * kPhotonStreamBlock);
    EXPECT_EQ(photon_stream(0xABCDEF, id).next_bits(), expected.next_bits()) << "photon " << id;
  }
}

TEST(PhotonStreamCursor, EqualsPhotonStreamOverConsecutiveIds) {
  const std::uint64_t seed = 0x1234ABCD330EULL;
  for (const std::uint64_t first : {0ULL, 1ULL << 20, 1ULL << 35}) {
    PhotonStreamCursor cursor(seed, first);
    for (std::uint64_t k = 0; k < 5000; ++k) {
      Lcg48 walked = cursor.next();
      Lcg48 sought = photon_stream(seed, first + k);
      ASSERT_EQ(walked.state(), sought.state()) << "photon " << first + k;
      // The streams draw identically, not just start identically.
      for (int d = 0; d < 3; ++d) ASSERT_EQ(walked.next_bits(), sought.next_bits());
    }
  }
}

TEST(PhotonStreamCursor, StridedCursorVisitsEveryStrideThId) {
  // dist-spatial's emission loop: rank r of P emits ids r, r+P, r+2P, ...
  const std::uint64_t seed = 77;
  for (const std::uint64_t stride : {2ULL, 3ULL, 8ULL}) {
    PhotonStreamCursor cursor(seed, 5, stride);
    for (std::uint64_t k = 0; k < 500; ++k) {
      EXPECT_EQ(cursor.next().state(), photon_stream(seed, 5 + k * stride).state())
          << "stride " << stride << " step " << k;
    }
  }
}

}  // namespace
}  // namespace photon
