#include "hist/binforest.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <stdexcept>

#include "core/rng.hpp"
#include "core/sampling.hpp"

namespace photon {
namespace {

BinCoords coords(double s, double t, double u, double theta) {
  BinCoords c;
  c.s = static_cast<float>(s);
  c.t = static_cast<float>(t);
  c.u = static_cast<float>(u);
  c.theta = static_cast<float>(theta);
  return c;
}

TEST(BinForest, TwoTreesPerPatch) {
  const BinForest f(10);
  EXPECT_EQ(f.patch_count(), 10u);
  EXPECT_EQ(f.tree_count(), 20u);
}

TEST(BinForest, TreeIndexMapsSides) {
  EXPECT_EQ(BinForest::tree_index(0, true), 0);
  EXPECT_EQ(BinForest::tree_index(0, false), 1);
  EXPECT_EQ(BinForest::tree_index(3, true), 6);
}

TEST(BinForest, RecordRoutesToCorrectTree) {
  BinForest f(4);
  f.record(2, true, coords(0.5, 0.5, 0.5, 1), 0);
  f.record(2, false, coords(0.5, 0.5, 0.5, 1), 1);
  EXPECT_EQ(f.tree(2, true).total_tally(0), 1u);
  EXPECT_EQ(f.tree(2, false).total_tally(1), 1u);
  EXPECT_EQ(f.tree(1, true).total_tally(0), 0u);
}

TEST(BinForest, EmittedBookkeeping) {
  BinForest f(1);
  f.add_emitted(0, 10);
  f.add_emitted(1);
  EXPECT_EQ(f.emitted(0), 10u);
  EXPECT_EQ(f.emitted(1), 1u);
  EXPECT_EQ(f.emitted_total(), 11u);
}

TEST(BinForest, PatchTalliesSumSidesAndChannels) {
  BinForest f(3);
  f.record(1, true, coords(0.1, 0.1, 0.1, 0.1), 0);
  f.record(1, false, coords(0.1, 0.1, 0.1, 0.1), 2);
  f.record(2, true, coords(0.1, 0.1, 0.1, 0.1), 1);
  const auto tallies = f.patch_tallies();
  EXPECT_EQ(tallies[0], 0u);
  EXPECT_EQ(tallies[1], 2u);
  EXPECT_EQ(tallies[2], 1u);
}

TEST(BinForest, RadianceOfUniformLambertianPatch) {
  // Record N cosine-distributed photons uniformly over a patch; the radiance
  // estimate anywhere must equal the analytic exitant radiance
  //   L = Phi / (A * pi)   (Lambertian: B = Phi/A, L = B/pi).
  BinForest f(1);
  const double phi = 12.0;   // total flux, channel 0
  const double area = 2.0;
  f.set_total_power({phi, 0, 0});
  Lcg48 rng(77);
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    const Vec3 d = sample_hemisphere_rejection(rng);
    f.record(0, true, BinCoords::from_local_dir(rng.uniform(), rng.uniform(), d), 0);
  }
  f.add_emitted(0, n);

  const double expected = phi / (area * 3.14159265358979323846);
  RunningStats stats;
  for (int i = 0; i < 300; ++i) {
    const Vec3 d = sample_hemisphere_rejection(rng);
    const BinCoords c = BinCoords::from_local_dir(rng.uniform(), rng.uniform(), d);
    stats.add(f.radiance(0, true, c, 0, area));
  }
  EXPECT_NEAR(stats.mean(), expected, 0.12 * expected);
}

TEST(BinForest, RadianceZeroWithoutEmission) {
  BinForest f(1);
  f.set_total_power({1, 1, 1});
  EXPECT_EQ(f.radiance(0, true, coords(0.5, 0.5, 0.5, 1), 0, 1.0), 0.0);
}

TEST(BinForest, RadianceScalesWithPower) {
  BinForest f1(1), f2(1);
  f1.set_total_power({1, 0, 0});
  f2.set_total_power({3, 0, 0});
  Lcg48 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const Vec3 d = sample_hemisphere_rejection(rng);
    const BinCoords c = BinCoords::from_local_dir(rng.uniform(), rng.uniform(), d);
    f1.record(0, true, c, 0);
    f2.record(0, true, c, 0);
  }
  f1.add_emitted(0, 1000);
  f2.add_emitted(0, 1000);
  const BinCoords q = coords(0.5, 0.5, 0.3, 1.0);
  EXPECT_NEAR(f2.radiance(0, true, q, 0, 1.0), 3.0 * f1.radiance(0, true, q, 0, 1.0), 1e-9);
}

TEST(BinForest, MemoryAccounting) {
  BinForest f(5);
  const std::uint64_t empty = f.memory_bytes();
  Lcg48 rng(6);
  for (int i = 0; i < 5000; ++i) {
    f.record(0, true,
             coords(rng.uniform() * 0.2, rng.uniform(), rng.uniform(), rng.uniform() * kTwoPi),
             0);
  }
  EXPECT_GT(f.memory_bytes(), empty);
  EXPECT_GE(f.total_nodes(), f.tree_count());
  EXPECT_GE(f.total_leaves(), f.tree_count());
}

TEST(BinForest, SaveLoadRoundTrip) {
  BinForest f(3);
  f.set_total_power({1, 2, 3});
  Lcg48 rng(7);
  for (int i = 0; i < 2000; ++i) {
    f.record(static_cast<int>(rng.uniform_int(3)), rng.uniform() < 0.5,
             coords(rng.uniform() * 0.3, rng.uniform(), rng.uniform(), rng.uniform() * kTwoPi),
             static_cast<int>(rng.uniform_int(3)));
  }
  f.add_emitted(0, 900);
  f.add_emitted(1, 600);
  f.add_emitted(2, 500);

  Bytes buf;
  f.save(buf);
  EXPECT_EQ(buf.size(), f.serialized_bytes());
  const std::uint8_t* p = buf.data();
  const BinForest loaded = BinForest::load(p, p + buf.size());
  EXPECT_EQ(p, buf.data() + buf.size());
  EXPECT_TRUE(f == loaded);
  EXPECT_EQ(loaded.emitted(1), 600u);
  EXPECT_EQ(loaded.total_power().b, 3.0);
}

TEST(BinForest, FileRoundTrip) {
  BinForest f(2);
  f.record(0, true, coords(0.5, 0.5, 0.5, 1), 0);
  f.add_emitted(0, 1);
  const std::string path = ::testing::TempDir() + "/forest.answer";
  ASSERT_TRUE(f.save(path));
  BinForest loaded;
  ASSERT_TRUE(BinForest::load(path, loaded));
  EXPECT_TRUE(f == loaded);
  std::remove(path.c_str());
}

// The write error of a buffered tail surfaces only when the file is closed:
// /dev/full accepts the open and the (buffered) write of a small forest.
TEST(BinForest, SaveReportsWriteErrors) {
  EXPECT_FALSE(BinForest(3).save("/dev/full"));
  EXPECT_FALSE(BinForest(3).save("/nonexistent_zzz/forest.answer"));
}

TEST(BinForest, LoadRejectsGarbage) {
  const std::string text = "this is not an answer file";
  const Bytes garbage(text.begin(), text.end());
  const std::uint8_t* p = garbage.data();
  EXPECT_EQ(BinForest::load(p, p + garbage.size()).tree_count(), 0u);

  // Every truncation of a valid answer file comes back as the empty forest.
  BinForest f(2);
  f.record(1, false, coords(0.5, 0.5, 0.5, 1), 2);
  Bytes valid;
  f.save(valid);
  for (std::size_t n = 0; n < valid.size(); ++n) {
    p = valid.data();
    EXPECT_EQ(BinForest::load(p, p + n).tree_count(), 0u) << "truncated at " << n;
  }
}

TEST(BinForest, ReplaceTree) {
  BinForest f(2);
  BinTree replacement;
  replacement.record(coords(0.5, 0.5, 0.5, 1), 2);
  f.replace_tree(BinForest::tree_index(1, true), std::move(replacement));
  EXPECT_EQ(f.tree(1, true).total_tally(2), 1u);
}

// Populates `f` with `n` random records drawn from `rng` and matching
// emission counts.
void populate(BinForest& f, Lcg48& rng, int n) {
  for (int i = 0; i < n; ++i) {
    const int channel = static_cast<int>(rng.uniform_int(3));
    f.record(static_cast<int>(rng.uniform_int(f.patch_count())), rng.uniform() < 0.5,
             coords(rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform() * kTwoPi),
             channel);
    f.add_emitted(channel);
  }
}

TEST(BinForestMerge, ConservesEveryTallyAndEmission) {
  // The distributed-resume primitive: folding B into A must conserve every
  // channel's total tally and emission count exactly — no photon gained or
  // lost, whatever the two tree structures look like.
  Lcg48 rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    BinForest a(5), b(5);
    populate(a, rng, 4000);
    populate(b, rng, 2500);

    std::array<std::uint64_t, 3> expect_tally{}, expect_emitted{};
    for (int c = 0; c < 3; ++c) {
      expect_tally[static_cast<std::size_t>(c)] = a.total_tally(c) + b.total_tally(c);
      expect_emitted[static_cast<std::size_t>(c)] = a.emitted(c) + b.emitted(c);
    }
    a.merge(b);
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(a.total_tally(c), expect_tally[static_cast<std::size_t>(c)])
          << "trial " << trial << " channel " << c;
      EXPECT_EQ(a.emitted(c), expect_emitted[static_cast<std::size_t>(c)])
          << "trial " << trial << " channel " << c;
    }
  }
}

TEST(BinForestMerge, IntoVirginForestIsLossless) {
  // Folding a checkpoint into a fresh partitioned forest must preserve the
  // refined structure exactly, not collapse it to root bins.
  Lcg48 rng(3);
  BinForest checkpoint(4);
  populate(checkpoint, rng, 6000);
  checkpoint.set_total_power({2, 2, 2});

  BinForest fresh(4);
  fresh.merge(checkpoint);
  EXPECT_TRUE(fresh == checkpoint);
  EXPECT_EQ(fresh.total_power().r, 2.0);
}

TEST(BinForestMerge, MergedTreeKeepsRefining) {
  // After a merge the speculative split counters carry the combined evidence:
  // recording into the merged tree must still be able to split leaves.
  Lcg48 rng(11);
  BinForest a(1), b(1);
  populate(a, rng, 500);
  populate(b, rng, 500);
  a.merge(b);
  const std::uint64_t nodes_before = a.total_nodes();
  populate(a, rng, 4000);
  EXPECT_GT(a.total_nodes(), nodes_before);
}

TEST(BinForestMerge, RejectsMismatchedForests) {
  BinForest a(2), b(3);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(BinForest, FramedTreeRoundTrip) {
  // The gather path's binary framing: selected trees travel as
  // [idx][BinTree bytes] frames and land via replace_framed_trees.
  Lcg48 rng(42);
  BinForest src(4);
  populate(src, rng, 5000);

  Bytes buf;
  src.append_framed_tree(buf, 2);
  src.append_framed_tree(buf, 5);
  src.append_framed_tree(buf, 7);

  BinForest dst(4);
  dst.replace_framed_trees(buf);
  EXPECT_TRUE(dst.tree_at(2) == src.tree_at(2));
  EXPECT_TRUE(dst.tree_at(5) == src.tree_at(5));
  EXPECT_TRUE(dst.tree_at(7) == src.tree_at(7));
  EXPECT_EQ(dst.tree_at(0).total_tally(0) + dst.tree_at(0).total_tally(1) +
                dst.tree_at(0).total_tally(2),
            0u);
}

TEST(BinForest, FramedTreeRejectsCorruptBuffers) {
  BinForest f(2);
  Bytes buf;
  f.append_framed_tree(buf, 1);
  Bytes truncated(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(buf.size() - 7));
  EXPECT_THROW(f.replace_framed_trees(truncated), std::runtime_error);

  Bytes bad_index = buf;
  const std::int32_t idx = 99;
  std::memcpy(bad_index.data(), &idx, sizeof(idx));
  EXPECT_THROW(f.replace_framed_trees(bad_index), std::runtime_error);
}

}  // namespace
}  // namespace photon
