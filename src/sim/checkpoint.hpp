// Checkpoint/restart for long simulations — an engine service that works on
// any backend's RunResult.
//
// The paper's production runs simulated billions of photons over hours; a
// checkpoint captures the bin forest (already the "answer file"), the trace
// counters, the raw RNG state, and each rank's generator state, so
// dist-particle resumes continue every stream in place. Resuming through a
// backend that reports supports_resume() adopts all of it; the `serial`,
// `hybrid` and (at matching rank count) `dist-particle` continuations are
// bitwise identical to an uninterrupted run (verified by the test suite).
//
// The v3 byte format is [magic "PHOTNCK3"][u64 payload length][payload]
// [u64 XXH64 of the payload]. The whole checkpoint is encoded into one
// buffer and written with one write, and a path load reads the whole file
// into one buffer and decodes it in place. A truncated or bit-flipped
// checkpoint fails the length or checksum test and load_checkpoint returns
// false — a multi-hour run must never silently resume from damaged state.
// v1 ("PHOTONCK") and v2 ("PHOTNCK2", FNV-1a-64) files are rejected as
// old-version.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "sim/simulator.hpp"

namespace photon {

// Which check a rejected checkpoint failed — a multi-hour run that refuses
// to resume should say *why* (and photon_cli prints exactly this).
enum class CheckpointStatus {
  kOk,
  kOpenFailed,         // path could not be opened
  kBadMagic,           // not a checkpoint at all
  kOldVersion,         // v1 or v2 magic: a superseded format, rejected by design
  kBadLength,          // length field exceeds the payload cap
  kTruncated,          // input ended before the declared payload and checksum
  kChecksumMismatch,   // payload bytes fail the XXH64 check
  kBadHeader,          // verified payload too short for counters/rank count
  kBadRankSection,     // rank count implies more state than the payload holds
  kBadForest,          // forest section malformed or empty
};

// Stable lower-case name for a status ("ok", "bad-magic", ...).
const char* checkpoint_status_name(CheckpointStatus status);

// The payload checksum: XXH64 with seed 0.
std::uint64_t xxh64(const void* data, std::size_t n);

void save_checkpoint(const RunResult& result, std::ostream& out);
// Atomic replace: writes <path>.tmp, fsyncs it, and renames it over `path`.
bool save_checkpoint(const RunResult& result, const std::string& path);

// Returns the first failed check (leaving `result` unspecified on failure);
// never throws, never partially adopts state.
CheckpointStatus load_checkpoint_status(std::istream& in, RunResult& result);
CheckpointStatus load_checkpoint_status(const std::string& path, RunResult& result);

// Convenience wrappers: true iff the status is kOk.
bool load_checkpoint(std::istream& in, RunResult& result);
bool load_checkpoint(const std::string& path, RunResult& result);

}  // namespace photon
