#include "hist/binforest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

#include "core/rng.hpp"
#include "core/sampling.hpp"
#include "geom/scenes.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulator.hpp"

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

TEST(BinForest, FreshForestMakesNoPerTreeAllocation) {
  // An unsplit tree keeps its root inline: a fresh forest is the tree array
  // and nothing else.
  const BinForest f(1000);
  EXPECT_EQ(f.memory_bytes(), sizeof(BinForest) + f.tree_count() * sizeof(BinTree));
  EXPECT_EQ(f.memory_bytes(), BinForest::virgin_bytes(1000));
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

// The byte offset of tree record `k` in the answer file `bytes` of `f`.
std::size_t record_offset(const BinForest& f, const Bytes& bytes, int k) {
  std::size_t records = 0;
  for (std::size_t t = 0; t < f.tree_count(); ++t) {
    records += f.tree_at(static_cast<int>(t)).serialized_bytes();
  }
  std::size_t at = bytes.size() - records;
  for (int t = 0; t < k; ++t) at += f.tree_at(t).serialized_bytes();
  return at;
}

TEST(BinForest, LoadTakesThePolicyFromRecordsThatAgree) {
  SplitPolicy policy;
  policy.z = 2.5;
  policy.min_count = 40;
  policy.max_leaf_count = 64;
  BinForest f(3, policy);
  f.record(1, true, coords(0.5, 0.5, 0.5, 1), 0);
  Bytes valid;
  f.save(valid);
  const std::uint8_t* p = valid.data();
  const BinForest loaded = BinForest::load(p, p + valid.size());
  ASSERT_EQ(loaded.tree_count(), f.tree_count());
  EXPECT_EQ(loaded.policy().z, 2.5);
  EXPECT_EQ(loaded.policy().min_count, 40u);
  EXPECT_EQ(loaded.policy().max_leaf_count, SplitPolicy{}.max_leaf_count);

  // One record with another z, or another min_count, makes the file
  // malformed. Record k's header is [node count][z][min_count].
  for (int k = 0; k < static_cast<int>(f.tree_count()); ++k) {
    Bytes bad_z = valid;
    const double z = 3.0;
    std::memcpy(bad_z.data() + record_offset(f, valid, k) + 8, &z, sizeof(z));
    p = bad_z.data();
    EXPECT_EQ(BinForest::load(p, p + bad_z.size()).tree_count(), 0u) << "record " << k;

    Bytes bad_min = valid;
    const std::uint64_t min_count = 41;
    std::memcpy(bad_min.data() + record_offset(f, valid, k) + 16, &min_count, sizeof(min_count));
    p = bad_min.data();
    EXPECT_EQ(BinForest::load(p, p + bad_min.size()).tree_count(), 0u) << "record " << k;
  }
}

// The answer file's bytes, pinned: the XXH64 of `photon_cli simulate cornell
// --photons=200000 --seed=7` (serial), recorded when tree nodes still stored
// their regions in memory. Any change to the record layout, the field order
// or a single tally moves it.
TEST(BinForestFormat, SerialCornellAnswerFileIsPinned) {
  RunConfig cfg;
  cfg.photons = 200000;
  cfg.seed = 7;
  const RunResult r = run_serial(scenes::cornell_box(), cfg);
  Bytes bytes;
  r.forest.save(bytes);
  EXPECT_EQ(bytes.size(), 56832u);
  EXPECT_EQ(xxh64(bytes.data(), bytes.size()), 0xC7AC9FDD147A3CB5ULL);
}

// save -> load -> save is byte-identical and load gives an equal forest, on
// the bundled scenes' populated forests with trees split to depth 8 and more.
TEST(BinForestFormat, SceneForestsRoundTripByteForByte) {
  SplitPolicy fine;
  fine.max_leaf_count = 32;
  fine.count_growth = 1.0;
  const struct {
    const char* name;
    Scene scene;
    std::uint64_t photons;
  } cells[] = {{"cornell", scenes::cornell_box(), 60000},
               {"harpsichord", scenes::harpsichord_room(), 40000},
               {"lab", scenes::computer_lab(), 60000}};
  for (const auto& cell : cells) {
    RunConfig cfg;
    cfg.photons = cell.photons;
    cfg.seed = 7;
    cfg.policy = fine;
    const RunResult r = run_serial(cell.scene, cfg);
    int max_depth = 0;
    for (std::size_t t = 0; t < r.forest.tree_count(); ++t) {
      max_depth = std::max(max_depth, r.forest.tree_at(static_cast<int>(t)).depth());
    }
    EXPECT_GE(max_depth, 8) << cell.name;

    Bytes first;
    r.forest.save(first);
    const std::uint8_t* p = first.data();
    const BinForest loaded = BinForest::load(p, p + first.size());
    ASSERT_EQ(loaded.tree_count(), r.forest.tree_count()) << cell.name;
    EXPECT_TRUE(loaded == r.forest) << cell.name;
    Bytes second;
    loaded.save(second);
    EXPECT_TRUE(second == first) << cell.name;
  }
}

TEST(BinForest, ReplaceTree) {
  BinForest f(2);
  BinTree replacement;
  replacement.record(coords(0.5, 0.5, 0.5, 1), 2, f.policy());
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

TEST(BinForestMerge, IntoVirginForestIsLossless) {
  // The checkpoint-resume step into a fresh partition: each rank copies the
  // checkpoint's trees for the patches it owns, refined structure and all,
  // and leaves every other tree fresh.
  Lcg48 rng(3);
  SplitPolicy fine;
  fine.max_leaf_count = 64;
  BinForest checkpoint(4, fine);
  populate(checkpoint, rng, 6000);
  const std::vector<int> owner{0, 1, 1, 0};

  BinForest part(4);
  part.copy_owned_trees(checkpoint, owner, 1);
  BinForest whole(4);
  for (const int rank : {0, 1}) whole.copy_owned_trees(checkpoint, owner, rank);
  for (int t = 0; t < static_cast<int>(checkpoint.tree_count()); ++t) {
    EXPECT_TRUE(whole.tree_at(t) == checkpoint.tree_at(t)) << "tree " << t;
    if (owner[static_cast<std::size_t>(t / 2)] == 1) {
      EXPECT_TRUE(part.tree_at(t) == checkpoint.tree_at(t)) << "tree " << t;
    } else {
      EXPECT_TRUE(part.tree_at(t) == BinTree{}) << "tree " << t;
    }
  }
  ASSERT_GT(checkpoint.total_nodes(), checkpoint.tree_count());

  EXPECT_THROW(part.copy_owned_trees(BinForest(3), owner, 0), std::invalid_argument);
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

  // A frame recorded under another z or min_count is not one of this
  // forest's trees.
  SplitPolicy other;
  other.z = 2.5;
  BinForest g(2, other);
  Bytes foreign;
  g.append_framed_tree(foreign, 1);
  EXPECT_THROW(f.replace_framed_trees(foreign), std::runtime_error);
}

}  // namespace
}  // namespace photon
