#include "sim/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "geom/scenes.hpp"
#include "par/dist.hpp"

namespace photon {
namespace {

TEST(Checkpoint, ResumeIsBitwiseIdenticalToStraightRun) {
  const Scene s = scenes::cornell_box();

  RunConfig full;
  full.photons = 40000;
  const RunResult straight = run_serial(s, full);

  RunConfig half;
  half.photons = 20000;
  const RunResult first = run_serial(s, half);
  const RunResult resumed = run_serial(s, half, &first);

  EXPECT_TRUE(resumed.forest == straight.forest);
  EXPECT_EQ(resumed.counters.emitted, straight.counters.emitted);
  EXPECT_EQ(resumed.counters.bounces, straight.counters.bounces);
  EXPECT_EQ(resumed.rng_state, straight.rng_state);
}

TEST(Checkpoint, ManySmallLegsEqualOneBigRun) {
  const Scene s = scenes::furnace_box(0.4);
  RunConfig full;
  full.photons = 30000;
  const RunResult straight = run_serial(s, full);

  RunConfig leg;
  leg.photons = 10000;
  RunResult acc = run_serial(s, leg);
  acc = run_serial(s, leg, &acc);
  acc = run_serial(s, leg, &acc);
  EXPECT_TRUE(acc.forest == straight.forest);
}

TEST(Checkpoint, StreamRoundTrip) {
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 15000;
  const RunResult r = run_serial(s, cfg);

  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  save_checkpoint(r, buf);
  RunResult loaded;
  ASSERT_TRUE(load_checkpoint(buf, loaded));
  EXPECT_TRUE(loaded.forest == r.forest);
  EXPECT_EQ(loaded.rng_state, r.rng_state);
  EXPECT_EQ(loaded.rng_mul, r.rng_mul);
  EXPECT_EQ(loaded.counters.bounces, r.counters.bounces);
}

TEST(Checkpoint, FileRoundTripAndResume) {
  const Scene s = scenes::cornell_box();
  RunConfig half;
  half.photons = 20000;
  const RunResult first = run_serial(s, half);

  const std::string path = ::testing::TempDir() + "/photon.ck";
  ASSERT_TRUE(save_checkpoint(first, path));
  RunResult loaded;
  ASSERT_TRUE(load_checkpoint(path, loaded));

  const RunResult resumed = run_serial(s, half, &loaded);
  RunConfig full;
  full.photons = 40000;
  const RunResult straight = run_serial(s, full);
  EXPECT_TRUE(resumed.forest == straight.forest);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsGarbage) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  buf << "definitely not a checkpoint";
  RunResult r;
  EXPECT_FALSE(load_checkpoint(buf, r));
}

TEST(Checkpoint, RejectsMissingFile) {
  RunResult r;
  EXPECT_FALSE(load_checkpoint("/nonexistent_zzz/photon.ck", r));
}

TEST(Checkpoint, RoundTripsPerRankRngState) {
  // The format carries each rank's generator state — what dist-particle's
  // bitwise resume restores (the resume itself is pinned in test_dist).
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 2000;
  cfg.workers = 3;
  cfg.batch = 500;
  cfg.adapt_batch = false;
  const RunResult r = run_distributed(s, cfg);

  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  save_checkpoint(r, buf);
  RunResult loaded;
  ASSERT_TRUE(load_checkpoint(buf, loaded));
  ASSERT_EQ(loaded.ranks.size(), r.ranks.size());
  for (std::size_t i = 0; i < r.ranks.size(); ++i) {
    EXPECT_EQ(loaded.ranks[i].rng_state, r.ranks[i].rng_state) << "rank " << i;
    EXPECT_EQ(loaded.ranks[i].rng_mul, r.ranks[i].rng_mul) << "rank " << i;
    EXPECT_EQ(loaded.ranks[i].rng_add, r.ranks[i].rng_add) << "rank " << i;
  }
  EXPECT_TRUE(loaded.forest == r.forest);
}

// --- Fuzzing the loader: damaged bytes must be rejected cleanly — return
// false, never crash, and NEVER load (a silently-wrong resume would waste
// the multi-hour run the checkpoint exists to protect). Mirrors the framed-
// tree corrupt-buffer tests in test_binforest.

std::string checkpoint_bytes() {
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 4000;
  const RunResult r = run_serial(s, cfg);
  std::ostringstream out(std::ios::binary);
  save_checkpoint(r, out);
  return out.str();
}

TEST(CheckpointFuzz, EveryTruncationIsRejected) {
  const std::string bytes = checkpoint_bytes();
  ASSERT_GT(bytes.size(), 64u);
  // Every prefix around the header plus a spread through the forest body.
  std::vector<std::size_t> cuts;
  for (std::size_t n = 0; n < std::min<std::size_t>(bytes.size(), 128); ++n) cuts.push_back(n);
  for (std::size_t n = 128; n < bytes.size(); n += 997) cuts.push_back(n);
  cuts.push_back(bytes.size() - 1);
  for (const std::size_t n : cuts) {
    std::istringstream in(bytes.substr(0, n), std::ios::binary);
    RunResult r;
    EXPECT_FALSE(load_checkpoint(in, r)) << "truncated at " << n;
  }
  // The untouched stream still loads — the cuts above failed for the right
  // reason.
  std::istringstream whole(bytes, std::ios::binary);
  RunResult r;
  EXPECT_TRUE(load_checkpoint(whole, r));
}

TEST(CheckpointFuzz, EveryBitFlipIsRejected) {
  const std::string bytes = checkpoint_bytes();
  Lcg48 rng(2026);
  for (int trial = 0; trial < 300; ++trial) {
    std::string damaged = bytes;
    const std::size_t pos = static_cast<std::size_t>(rng.uniform_int(damaged.size()));
    const int bit = static_cast<int>(rng.uniform_int(8));
    damaged[pos] = static_cast<char>(damaged[pos] ^ (1 << bit));
    std::istringstream in(damaged, std::ios::binary);
    RunResult r;
    // The checksum covers the whole payload; flips in the magic, length, or
    // checksum fields fail those comparisons instead.
    EXPECT_FALSE(load_checkpoint(in, r)) << "flip at byte " << pos << " bit " << bit;
  }
}

TEST(CheckpointFuzz, RandomNoiseNeverLoads) {
  Lcg48 rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(4096));
    std::string noise(n, '\0');
    for (char& c : noise) c = static_cast<char>(rng.uniform_int(256));
    std::istringstream in(noise, std::ios::binary);
    RunResult r;
    EXPECT_FALSE(load_checkpoint(in, r)) << "trial " << trial;
  }
}

// The checksum is XXH64 (seed 0) exactly: pinned to the published vectors.
// The 39-byte input runs one 32-byte stripe, then the 4- and 1-byte tails.
TEST(CheckpointChecksum, MatchesPublishedXxh64Vectors) {
  EXPECT_EQ(xxh64("", 0), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(xxh64("abc", 3), 0x44BC2CF5AD770999ULL);
  const std::string text = "Nobody inspects the spammish repetition";
  ASSERT_EQ(text.size(), 39u);
  EXPECT_EQ(xxh64(text.data(), text.size()), 0xFBCEA83C8A378BF1ULL);
}

// --- Typed rejection statuses: photon_cli prints WHICH check a refused
// checkpoint failed, so every distinct failure must map to its own status.

void put_u64(std::string& bytes, std::size_t at, std::uint64_t v) {
  std::memcpy(&bytes[at], &v, sizeof(v));
}

std::uint64_t get_u64(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

// Re-seals an edited checkpoint: recomputes the payload checksum so the edit
// reaches the check under test instead of tripping the checksum first.
void reseal(std::string& bytes) {
  const std::uint64_t length = get_u64(bytes, 8);
  put_u64(bytes, 16 + static_cast<std::size_t>(length),
          xxh64(bytes.data() + 16, static_cast<std::size_t>(length)));
}

CheckpointStatus status_of(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  RunResult r;
  return load_checkpoint_status(in, r);
}

TEST(CheckpointStatusTest, ReportsEachDistinctFailure) {
  const std::string valid = checkpoint_bytes();
  ASSERT_EQ(status_of(valid), CheckpointStatus::kOk);

  std::string bad_magic = valid;
  bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0xFF);
  EXPECT_EQ(status_of(bad_magic), CheckpointStatus::kBadMagic);

  // v1 magic ("PHOTONCK"): a real but unverifiable old format, distinct from
  // garbage.
  std::string v1 = valid;
  put_u64(v1, 0, 0x50484F544F4E434BULL);
  EXPECT_EQ(status_of(v1), CheckpointStatus::kOldVersion);

  // v2 magic ("PHOTNCK2", FNV-1a-64 checksum): superseded, not garbage.
  std::string v2 = valid;
  put_u64(v2, 0, 0x50484F544E434B32ULL);
  EXPECT_EQ(status_of(v2), CheckpointStatus::kOldVersion);

  std::string bad_length = valid;
  put_u64(bad_length, 8, (1ULL << 33) + 1);  // over the 8 GiB payload cap
  EXPECT_EQ(status_of(bad_length), CheckpointStatus::kBadLength);

  EXPECT_EQ(status_of(valid.substr(0, valid.size() / 2)), CheckpointStatus::kTruncated);
  EXPECT_EQ(status_of(valid.substr(0, 12)), CheckpointStatus::kTruncated);

  std::string flipped = valid;
  flipped[100] = static_cast<char>(flipped[100] ^ 1);
  EXPECT_EQ(status_of(flipped), CheckpointStatus::kChecksumMismatch);

  // Rank count claiming more per-rank state than the payload holds (payload
  // offset 64, after 3 RNG words + 5 counters), re-sealed so it reaches the
  // rank-section parse.
  std::string bad_ranks = valid;
  put_u64(bad_ranks, 16 + 64, 60000);  // < kMaxRanks, > what the payload holds
  reseal(bad_ranks);
  EXPECT_EQ(status_of(bad_ranks), CheckpointStatus::kBadRankSection);

  // Header says more ranks than the format cap allows.
  std::string over_cap = valid;
  put_u64(over_cap, 16 + 64, 1ULL << 20);
  reseal(over_cap);
  EXPECT_EQ(status_of(over_cap), CheckpointStatus::kBadHeader);

  // A sealed payload cut off right after the (zeroed) rank count: header
  // parses, forest section is missing.
  std::string no_forest = valid.substr(0, 16 + 72 + 8);
  put_u64(no_forest, 8, 72);
  put_u64(no_forest, 16 + 64, 0);  // nranks = 0
  reseal(no_forest);
  EXPECT_EQ(status_of(no_forest), CheckpointStatus::kBadForest);

  RunResult r;
  EXPECT_EQ(load_checkpoint_status("/nonexistent_zzz/photon.ck", r),
            CheckpointStatus::kOpenFailed);

  // The path loader reads the file whole: a length field under the 8 GiB
  // cap but past the end of the file is a truncation, found without
  // allocating what the field claims.
  std::string long_length = valid;
  put_u64(long_length, 8, 1ULL << 32);
  EXPECT_EQ(status_of(long_length), CheckpointStatus::kTruncated);
  const std::string path = ::testing::TempDir() + "/long_length.ck";
  { std::ofstream(path, std::ios::binary) << long_length; }
  EXPECT_EQ(load_checkpoint_status(path, r), CheckpointStatus::kTruncated);
  std::remove(path.c_str());
}

TEST(CheckpointStatusTest, NamesAreStable) {
  EXPECT_STREQ(checkpoint_status_name(CheckpointStatus::kOk), "ok");
  EXPECT_STREQ(checkpoint_status_name(CheckpointStatus::kBadMagic), "bad-magic");
  EXPECT_STREQ(checkpoint_status_name(CheckpointStatus::kOldVersion), "old-version");
  EXPECT_STREQ(checkpoint_status_name(CheckpointStatus::kChecksumMismatch),
               "checksum-mismatch");
  EXPECT_STREQ(checkpoint_status_name(CheckpointStatus::kBadRankSection),
               "bad-rank-section");
}

// --- Atomic writes: save_checkpoint(path) stages to <path>.tmp, fsyncs, and
// renames. A process killed mid-write must never leave the PATH itself
// damaged — the previous generation survives, because losing the old
// checkpoint to a crash during the new one's write is exactly the failure a
// checkpoint exists to prevent.

TEST(CheckpointAtomicity, KillMidWriteNeverDamagesThePreviousFile) {
  const Scene s = scenes::cornell_box();
  RunConfig small;
  small.photons = 4000;
  const RunResult old_result = run_serial(s, small);
  RunConfig big;
  big.photons = 20000;
  const RunResult new_result = run_serial(s, big);

  const std::string path = ::testing::TempDir() + "/atomic.ck";
  ASSERT_TRUE(save_checkpoint(old_result, path));

  for (int trial = 0; trial < 8; ++trial) {
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      // Overwrite forever; the parent SIGKILLs us at an arbitrary point —
      // possibly mid-fwrite, mid-fsync, or between fsync and rename.
      for (;;) save_checkpoint(new_result, path);
    }
    usleep(static_cast<useconds_t>(1000 * (3 * trial + 1)));
    kill(child, SIGKILL);
    int status = 0;
    waitpid(child, &status, 0);

    RunResult loaded;
    ASSERT_EQ(load_checkpoint_status(path, loaded), CheckpointStatus::kOk) << "trial " << trial;
    // Whole generations only — the old file or the new one, never a torn mix.
    EXPECT_TRUE(loaded.counters.emitted == old_result.counters.emitted ||
                loaded.counters.emitted == new_result.counters.emitted)
        << "trial " << trial << ": emitted " << loaded.counters.emitted;
  }
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(CheckpointAtomicity, StaleTmpFromADeadWriterIsHarmless) {
  const std::string path = ::testing::TempDir() + "/stale.ck";
  {
    std::ofstream tmp(path + ".tmp", std::ios::binary);
    tmp << "half-written garbage from a crashed process";
  }

  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 4000;
  const RunResult r = run_serial(s, cfg);
  ASSERT_TRUE(save_checkpoint(r, path));

  RunResult loaded;
  EXPECT_EQ(load_checkpoint_status(path, loaded), CheckpointStatus::kOk);
  EXPECT_EQ(loaded.counters.emitted, r.counters.emitted);
  // The tmp staging file was consumed by the rename, not left behind.
  std::ifstream leftover(path + ".tmp");
  EXPECT_FALSE(leftover.good());
  std::remove(path.c_str());
}

TEST(CheckpointFuzz, TrailingGarbageAfterAValidPayloadStillLoads) {
  // The format is length-prefixed: a valid checkpoint followed by unrelated
  // bytes (e.g. a partially overwritten file that got longer) must load the
  // valid part.
  std::string bytes = checkpoint_bytes();
  bytes += "trailing garbage the loader must not touch";
  std::istringstream in(bytes, std::ios::binary);
  RunResult r;
  EXPECT_TRUE(load_checkpoint(in, r));
  EXPECT_GT(r.forest.tree_count(), 0u);
}

}  // namespace
}  // namespace photon
