#include "sim/checkpoint.hpp"

#include <bit>
#include <cstdio>
#include <cstring>

namespace photon {

namespace {
// Version 4 ("PHOTNCK4"): the payload is length-prefixed and XXH64
// checksummed and holds the counters and the forest. Version-1 ("PHOTONCK",
// no length, no checksum), version-2 ("PHOTNCK2", FNV-1a-64) and version-3
// ("PHOTNCK3", per-rank RNG words) files are rejected as old versions: one
// format, one checksum path.
constexpr std::uint64_t kCheckpointMagic = 0x50484F544E434B34ULL;    // "PHOTNCK4"
constexpr std::uint64_t kCheckpointMagicV3 = 0x50484F544E434B33ULL;  // "PHOTNCK3"
constexpr std::uint64_t kCheckpointMagicV2 = 0x50484F544E434B32ULL;  // "PHOTNCK2"
constexpr std::uint64_t kCheckpointMagicV1 = 0x50484F544F4E434BULL;  // "PHOTONCK"

constexpr std::size_t kHeaderBytes = 2 * sizeof(std::uint64_t);  // magic, payload length
constexpr std::size_t kChecksumBytes = sizeof(std::uint64_t);
constexpr std::size_t kCounterBytes = 5 * sizeof(std::uint64_t);

// Caps a corrupt length field before it can turn into a giant allocation
// ahead of the checksum check.
constexpr std::uint64_t kMaxPayloadBytes = 1ULL << 33;  // 8 GiB

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

// Native byte order, like the rest of the format; XXH64's published vectors
// assume a little-endian host.
template <typename T>
T load_word(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t lane) {
  return std::rotl(acc + lane * kPrime2, 31) * kPrime1;
}

std::uint64_t xxh_merge(std::uint64_t h, std::uint64_t acc) {
  return (h ^ xxh_round(0, acc)) * kPrime1 + kPrime4;
}

CheckpointStatus decode_header(const std::uint8_t*& p, const std::uint8_t* end,
                               std::uint64_t& length) {
  std::uint64_t magic = 0;
  if (!get_raw(p, end, magic) || magic != kCheckpointMagic) {
    return magic == kCheckpointMagicV1 || magic == kCheckpointMagicV2 ||
                   magic == kCheckpointMagicV3
               ? CheckpointStatus::kOldVersion
               : CheckpointStatus::kBadMagic;
  }
  if (!get_raw(p, end, length)) return CheckpointStatus::kTruncated;
  return length > kMaxPayloadBytes ? CheckpointStatus::kBadLength : CheckpointStatus::kOk;
}

// Decodes [payload][checksum] from [p, end) in place; bytes past the
// checksum are ignored.
CheckpointStatus decode_body(const std::uint8_t* p, const std::uint8_t* end,
                             std::uint64_t length, RunResult& result) {
  if (static_cast<std::uint64_t>(end - p) < length + kChecksumBytes) {
    return CheckpointStatus::kTruncated;
  }
  const std::uint8_t* const payload_end = p + length;
  if (load_word<std::uint64_t>(payload_end) != xxh64(p, static_cast<std::size_t>(length))) {
    // Corrupt — resuming silently-wrong state is worse than failing.
    return CheckpointStatus::kChecksumMismatch;
  }

  if (!get_raw(p, payload_end, result.counters.emitted) ||
      !get_raw(p, payload_end, result.counters.bounces) ||
      !get_raw(p, payload_end, result.counters.absorbed) ||
      !get_raw(p, payload_end, result.counters.escaped) ||
      !get_raw(p, payload_end, result.counters.terminated)) {
    return CheckpointStatus::kBadHeader;
  }
  result.forest = BinForest::load(p, payload_end);
  return result.forest.tree_count() == 0 ? CheckpointStatus::kBadForest : CheckpointStatus::kOk;
}
}  // namespace

std::uint64_t xxh64(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  const std::uint8_t* const end = p + n;
  std::uint64_t h = kPrime5;
  if (n >= 32) {
    // Four independent lanes over 32-byte stripes.
    std::uint64_t v1 = kPrime1 + kPrime2, v2 = kPrime2, v3 = 0, v4 = 0 - kPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = xxh_round(v1, load_word<std::uint64_t>(p));
      v2 = xxh_round(v2, load_word<std::uint64_t>(p + 8));
      v3 = xxh_round(v3, load_word<std::uint64_t>(p + 16));
      v4 = xxh_round(v4, load_word<std::uint64_t>(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    h = xxh_merge(xxh_merge(xxh_merge(xxh_merge(h, v1), v2), v3), v4);
  }
  h += n;
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ xxh_round(0, load_word<std::uint64_t>(p)), 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h = std::rotl(h ^ (load_word<std::uint32_t>(p) * kPrime1), 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) h = std::rotl(h ^ (*p * kPrime5), 11) * kPrime1;
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

Bytes encode_checkpoint(const RunResult& result) {
  const std::size_t payload = kCounterBytes + result.forest.serialized_bytes();
  const std::uint64_t head[] = {kCheckpointMagic,          payload,
                                result.counters.emitted,   result.counters.bounces,
                                result.counters.absorbed,  result.counters.escaped,
                                result.counters.terminated};
  Bytes out;
  out.reserve(kHeaderBytes + payload + kChecksumBytes);
  out.resize(sizeof(head));
  std::memcpy(out.data(), head, sizeof(head));
  result.forest.save(out);
  put_raw(out, xxh64(out.data() + kHeaderBytes, payload));
  return out;
}

// The previous checkpoint stays loadable through any crash, kill, or
// watchdog emergency save mid-write — rename is the only step that touches
// the final path, and POSIX rename is atomic. A failure at any step removes
// the tmp file and leaves the target untouched.
bool save_checkpoint(const RunResult& result, const std::string& path) {
  const std::string tmp = path + ".tmp";
  if (!write_file(tmp, encode_checkpoint(result), /*sync=*/true) ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

const char* checkpoint_status_name(CheckpointStatus status) {
  switch (status) {
    case CheckpointStatus::kOk: return "ok";
    case CheckpointStatus::kOpenFailed: return "open-failed";
    case CheckpointStatus::kBadMagic: return "bad-magic";
    case CheckpointStatus::kOldVersion: return "old-version";
    case CheckpointStatus::kBadLength: return "bad-length";
    case CheckpointStatus::kTruncated: return "truncated";
    case CheckpointStatus::kChecksumMismatch: return "checksum-mismatch";
    case CheckpointStatus::kBadHeader: return "bad-header";
    case CheckpointStatus::kBadForest: return "bad-forest";
  }
  return "unknown";
}

CheckpointStatus decode_checkpoint(const std::uint8_t* p, const std::uint8_t* end,
                                   RunResult& result) {
  std::uint64_t length = 0;
  const CheckpointStatus status = decode_header(p, end, length);
  return status == CheckpointStatus::kOk ? decode_body(p, end, length, result) : status;
}

CheckpointStatus load_checkpoint_status(const std::string& path, RunResult& result) {
  Bytes bytes;
  if (!read_file(path, bytes)) return CheckpointStatus::kOpenFailed;
  return decode_checkpoint(bytes.data(), bytes.data() + bytes.size(), result);
}

bool load_checkpoint(const std::string& path, RunResult& result) {
  return load_checkpoint_status(path, result) == CheckpointStatus::kOk;
}

}  // namespace photon
