// One-buffer binary codec primitives: the answer file, the checkpoint and the
// distributed tree gather each serialize into a single byte buffer with
// these, and the file formats are read and written whole. Values are stored
// as their native object representation: the formats are host-endian.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace photon {

using Bytes = std::vector<std::uint8_t>;

inline void put_bytes(Bytes& out, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), bytes, bytes + n);
}

template <typename T>
void put_raw(Bytes& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  put_bytes(out, &v, sizeof(T));
}

// Copies one T out of [p, end) and advances `p`; false, consuming nothing,
// when fewer than sizeof(T) bytes remain.
template <typename T>
bool get_raw(const std::uint8_t*& p, const std::uint8_t* end, T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (static_cast<std::size_t>(end - p) < sizeof(T)) return false;
  std::memcpy(&v, p, sizeof(T));
  p += sizeof(T);
  return true;
}

// Reads the whole of `path` into `out` with one allocation, sized from the
// file's fstat size (never from a length field inside it). False when the
// path cannot be opened; a short read leaves `out` holding what was read, so
// the format's own length checks report the truncation.
bool read_file(const std::string& path, Bytes& out);

// Writes `bytes` to `path` with one fwrite. With `sync`, the data is flushed
// and fsynced before the close. True only when every step, the close (which
// flushes a buffered tail) included, succeeded.
bool write_file(const std::string& path, const Bytes& bytes, bool sync = false);

}  // namespace photon
