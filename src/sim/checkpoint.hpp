// Checkpoint/restart for long simulations — an engine service that works on
// any backend's RunResult.
//
// The paper's production runs simulated billions of photons over hours; a
// checkpoint captures the bin forest (already the "answer file") and the
// trace counters. Photon i's random numbers follow from its index alone
// (core/rng.hpp), so the emitted count is the whole RNG state: resuming
// through any backend continues the id sequence, bitwise identical to an
// uninterrupted run (verified by the test suite).
//
// The v4 byte format is [magic "PHOTNCK4"][u64 payload length][payload]
// [u64 XXH64 of the payload], the payload being five counter words and the
// forest. The whole checkpoint is encoded into one buffer and written with
// one write, and a path load reads the whole file into one buffer and
// decodes it in place. A truncated or bit-flipped checkpoint fails the
// length or checksum test and load_checkpoint returns false — a multi-hour
// run must never silently resume from damaged state. v1 ("PHOTONCK"), v2
// ("PHOTNCK2", FNV-1a-64) and v3 ("PHOTNCK3", with per-rank RNG words) files
// are rejected as old-version.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/bytes.hpp"
#include "sim/simulator.hpp"

namespace photon {

// Which check a rejected checkpoint failed — a multi-hour run that refuses
// to resume should say *why* (and photon_cli prints exactly this).
enum class CheckpointStatus {
  kOk,
  kOpenFailed,         // path could not be opened
  kBadMagic,           // not a checkpoint at all
  kOldVersion,         // v1, v2 or v3 magic: a superseded format, rejected by design
  kBadLength,          // length field exceeds the payload cap
  kTruncated,          // input ended before the declared payload and checksum
  kChecksumMismatch,   // payload bytes fail the XXH64 check
  kBadHeader,          // verified payload too short for the counters
  kBadForest,          // forest section malformed or empty
};

// Stable lower-case name for a status ("ok", "bad-magic", ...).
const char* checkpoint_status_name(CheckpointStatus status);

// The payload checksum: XXH64 with seed 0.
std::uint64_t xxh64(const void* data, std::size_t n);

// The bytes of a whole checkpoint file, encoded into one buffer.
Bytes encode_checkpoint(const RunResult& result);
// Atomic replace: writes <path>.tmp, fsyncs it, and renames it over `path`.
bool save_checkpoint(const RunResult& result, const std::string& path);

// Decode a checkpoint from the bytes of a whole file, [p, end) (bytes past
// the checksum are ignored), or from a path. Returns the first failed check
// (leaving `result` unspecified on failure); never throws, never partially
// adopts state.
CheckpointStatus decode_checkpoint(const std::uint8_t* p, const std::uint8_t* end,
                                   RunResult& result);
CheckpointStatus load_checkpoint_status(const std::string& path, RunResult& result);

// Convenience wrapper: true iff the status is kOk.
bool load_checkpoint(const std::string& path, RunResult& result);

}  // namespace photon
