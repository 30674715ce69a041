#include "sim/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "geom/scenes.hpp"

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

// The decoded status of a checkpoint held in `bytes`.
CheckpointStatus status_of(const Bytes& bytes, RunResult& r) {
  return decode_checkpoint(bytes.data(), bytes.data() + bytes.size(), r);
}

bool loads(const Bytes& bytes, RunResult& r) { return status_of(bytes, r) == CheckpointStatus::kOk; }

TEST(Checkpoint, BufferRoundTrip) {
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 15000;
  const RunResult r = run_serial(s, cfg);

  const Bytes buf = encode_checkpoint(r);
  RunResult loaded;
  ASSERT_TRUE(loads(buf, loaded));
  EXPECT_TRUE(loaded.forest == r.forest);
  EXPECT_EQ(loaded.counters.emitted, r.counters.emitted);
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
  const std::string text = "definitely not a checkpoint";
  RunResult r;
  EXPECT_FALSE(loads(Bytes(text.begin(), text.end()), r));
}

TEST(Checkpoint, RejectsMissingFile) {
  RunResult r;
  EXPECT_FALSE(load_checkpoint("/nonexistent_zzz/photon.ck", r));
}

// --- Fuzzing the loader: damaged bytes must be rejected cleanly — return
// false, never crash, and NEVER load (a silently-wrong resume would waste
// the multi-hour run the checkpoint exists to protect). Mirrors the framed-
// tree corrupt-buffer tests in test_binforest.

Bytes checkpoint_bytes() {
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 4000;
  const RunResult r = run_serial(s, cfg);
  return encode_checkpoint(r);
}

TEST(CheckpointFuzz, EveryTruncationIsRejected) {
  const Bytes bytes = checkpoint_bytes();
  ASSERT_GT(bytes.size(), 64u);
  // Every prefix around the header plus a spread through the forest body.
  std::vector<std::size_t> cuts;
  for (std::size_t n = 0; n < std::min<std::size_t>(bytes.size(), 128); ++n) cuts.push_back(n);
  for (std::size_t n = 128; n < bytes.size(); n += 997) cuts.push_back(n);
  cuts.push_back(bytes.size() - 1);
  for (const std::size_t n : cuts) {
    RunResult r;
    EXPECT_NE(decode_checkpoint(bytes.data(), bytes.data() + n, r), CheckpointStatus::kOk)
        << "truncated at " << n;
  }
  // The untouched buffer still loads — the cuts above failed for the right
  // reason.
  RunResult r;
  EXPECT_TRUE(loads(bytes, r));
}

TEST(CheckpointFuzz, EveryBitFlipIsRejected) {
  const Bytes bytes = checkpoint_bytes();
  Lcg48 rng(2026);
  for (int trial = 0; trial < 300; ++trial) {
    Bytes damaged = bytes;
    const std::size_t pos = static_cast<std::size_t>(rng.uniform_int(damaged.size()));
    const int bit = static_cast<int>(rng.uniform_int(8));
    damaged[pos] = static_cast<std::uint8_t>(damaged[pos] ^ (1 << bit));
    RunResult r;
    // The checksum covers the whole payload; flips in the magic, length, or
    // checksum fields fail those comparisons instead.
    EXPECT_FALSE(loads(damaged, r)) << "flip at byte " << pos << " bit " << bit;
  }
}

TEST(CheckpointFuzz, RandomNoiseNeverLoads) {
  Lcg48 rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(4096));
    Bytes noise(n);
    for (std::uint8_t& c : noise) c = static_cast<std::uint8_t>(rng.uniform_int(256));
    RunResult r;
    EXPECT_FALSE(loads(noise, r)) << "trial " << trial;
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

void put_u64(Bytes& bytes, std::size_t at, std::uint64_t v) {
  std::memcpy(&bytes[at], &v, sizeof(v));
}

std::uint64_t get_u64(const Bytes& bytes, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

// Re-seals an edited checkpoint: recomputes the payload checksum so the edit
// reaches the check under test instead of tripping the checksum first.
void reseal(Bytes& bytes) {
  const std::uint64_t length = get_u64(bytes, 8);
  put_u64(bytes, 16 + static_cast<std::size_t>(length),
          xxh64(bytes.data() + 16, static_cast<std::size_t>(length)));
}

CheckpointStatus status_of(const Bytes& bytes) {
  RunResult r;
  return status_of(bytes, r);
}

// The first `n` bytes of `bytes`.
Bytes prefix(const Bytes& bytes, std::size_t n) {
  return Bytes(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(n));
}

TEST(CheckpointStatusTest, ReportsEachDistinctFailure) {
  const Bytes valid = checkpoint_bytes();
  ASSERT_EQ(status_of(valid), CheckpointStatus::kOk);

  Bytes bad_magic = valid;
  bad_magic[0] = static_cast<std::uint8_t>(bad_magic[0] ^ 0xFF);
  EXPECT_EQ(status_of(bad_magic), CheckpointStatus::kBadMagic);

  // v1 magic ("PHOTONCK"): a real but unverifiable old format, distinct from
  // garbage.
  Bytes v1 = valid;
  put_u64(v1, 0, 0x50484F544F4E434BULL);
  EXPECT_EQ(status_of(v1), CheckpointStatus::kOldVersion);

  // v2 magic ("PHOTNCK2", FNV-1a-64 checksum): superseded, not garbage.
  Bytes v2 = valid;
  put_u64(v2, 0, 0x50484F544E434B32ULL);
  EXPECT_EQ(status_of(v2), CheckpointStatus::kOldVersion);

  // v3 magic ("PHOTNCK3", per-rank RNG words): superseded, not garbage.
  Bytes v3 = valid;
  put_u64(v3, 0, 0x50484F544E434B33ULL);
  EXPECT_EQ(status_of(v3), CheckpointStatus::kOldVersion);

  Bytes bad_length = valid;
  put_u64(bad_length, 8, (1ULL << 33) + 1);  // over the 8 GiB payload cap
  EXPECT_EQ(status_of(bad_length), CheckpointStatus::kBadLength);

  EXPECT_EQ(status_of(prefix(valid, valid.size() / 2)), CheckpointStatus::kTruncated);
  EXPECT_EQ(status_of(prefix(valid, 12)), CheckpointStatus::kTruncated);

  Bytes flipped = valid;
  flipped[100] = static_cast<std::uint8_t>(flipped[100] ^ 1);
  EXPECT_EQ(status_of(flipped), CheckpointStatus::kChecksumMismatch);

  // A sealed payload too short for the five counter words.
  Bytes short_header = prefix(valid, 16 + 16 + 8);
  put_u64(short_header, 8, 16);
  reseal(short_header);
  EXPECT_EQ(status_of(short_header), CheckpointStatus::kBadHeader);

  // A sealed payload cut off right after the counters: the header parses,
  // the forest section is missing.
  Bytes no_forest = prefix(valid, 16 + 40 + 8);
  put_u64(no_forest, 8, 40);
  reseal(no_forest);
  EXPECT_EQ(status_of(no_forest), CheckpointStatus::kBadForest);

  RunResult r;
  EXPECT_EQ(load_checkpoint_status("/nonexistent_zzz/photon.ck", r),
            CheckpointStatus::kOpenFailed);

  // The path loader reads the file whole: a length field under the 8 GiB
  // cap but past the end of the file is a truncation, found without
  // allocating what the field claims.
  Bytes long_length = valid;
  put_u64(long_length, 8, 1ULL << 32);
  EXPECT_EQ(status_of(long_length), CheckpointStatus::kTruncated);
  const std::string path = ::testing::TempDir() + "/long_length.ck";
  ASSERT_TRUE(write_file(path, long_length));
  EXPECT_EQ(load_checkpoint_status(path, r), CheckpointStatus::kTruncated);
  std::remove(path.c_str());
}

TEST(CheckpointStatusTest, NamesAreStable) {
  EXPECT_STREQ(checkpoint_status_name(CheckpointStatus::kOk), "ok");
  EXPECT_STREQ(checkpoint_status_name(CheckpointStatus::kBadMagic), "bad-magic");
  EXPECT_STREQ(checkpoint_status_name(CheckpointStatus::kOldVersion), "old-version");
  EXPECT_STREQ(checkpoint_status_name(CheckpointStatus::kChecksumMismatch),
               "checksum-mismatch");
  EXPECT_STREQ(checkpoint_status_name(CheckpointStatus::kBadForest), "bad-forest");
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
  Bytes bytes = checkpoint_bytes();
  const std::string garbage = "trailing garbage the loader must not touch";
  bytes.insert(bytes.end(), garbage.begin(), garbage.end());
  RunResult r;
  EXPECT_TRUE(loads(bytes, r));
  EXPECT_GT(r.forest.tree_count(), 0u);
}

}  // namespace
}  // namespace photon
