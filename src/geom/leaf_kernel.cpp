// Out-of-line pieces of the shared leaf kernel: backend introspection and the
// LeafSoA storage methods. The kernel body itself is header-inline
// (geom/leaf_kernel_inl.hpp) and compiled into each traversal TU; this TU and
// those TUs all carry the kernel flags (see PHOTON_KERNEL_TUS in CMakeLists).
#include "geom/leaf_kernel_inl.hpp"

#include <algorithm>
#include <memory>

namespace photon {

int kernel_lane_width() { return simd::kLanes; }
const char* kernel_backend() { return simd::kBackendName; }

std::array<std::span<double>*, 12> LeafSoA::arrays() {
  return {&nx, &ny, &nz, &plane_d, &sx, &sy, &sz, &s_base, &tx, &ty, &tz, &t_base};
}

std::array<std::span<const double>, 12> LeafSoA::arrays() const {
  return {nx, ny, nz, plane_d, sx, sy, sz, s_base, tx, ty, tz, t_base};
}

void LeafSoA::clear() {
  constants_.clear();
  for (std::span<double>* array : arrays()) *array = {};
  id.clear();
}

void LeafSoA::resize(std::size_t lanes) {
  // Each array starts on a cache line, so no lane block the kernel loads
  // straddles two lines, and spans an odd number of lines, so the twelve
  // start at twelve different offsets within a 4 KiB page: lane k of every
  // array is touched at once (the leaf pack writes the twelve, the kernel
  // loads them), and twelve streams congruent modulo 4 KiB would contend for
  // one L1 set.
  constexpr std::size_t kLineBytes = 64;
  constexpr std::size_t kLine = kLineBytes / sizeof(double);
  std::size_t stride = (lanes + kLine - 1) / kLine * kLine;
  if ((stride / kLine) % 2 == 0) stride += kLine;
  constants_.resize(12 * stride + kLine);
  void* first = constants_.data();
  std::size_t space = constants_.size() * sizeof(double);
  std::align(kLineBytes, 12 * stride * sizeof(double), first, space);
  double* at = static_cast<double*>(first);
  for (std::span<double>* array : arrays()) {
    *array = {at, lanes};
    at += stride;
  }
  id.resize(lanes);
}

void LeafSoA::set_lane(std::size_t lane, const Patch::HitConstants& c, std::int32_t patch_id) {
  nx[lane] = c.normal.x;
  ny[lane] = c.normal.y;
  nz[lane] = c.normal.z;
  plane_d[lane] = c.plane_d;
  sx[lane] = c.s_axis.x;
  sy[lane] = c.s_axis.y;
  sz[lane] = c.s_axis.z;
  s_base[lane] = c.s_base;
  tx[lane] = c.t_axis.x;
  ty[lane] = c.t_axis.y;
  tz[lane] = c.t_axis.z;
  t_base[lane] = c.t_base;
  id[lane] = patch_id;
}

void LeafSoA::set_sentinel(std::size_t lane) {
  nx[lane] = ny[lane] = nz[lane] = plane_d[lane] = 0.0;
  sx[lane] = sy[lane] = sz[lane] = s_base[lane] = 0.0;
  tx[lane] = ty[lane] = tz[lane] = t_base[lane] = 0.0;
  id[lane] = -1;
}

std::size_t LeafSoA::memory_bytes() const {
  return constants_.capacity() * sizeof(double) + id.capacity() * sizeof(std::int32_t);
}

bool LeafSoA::operator==(const LeafSoA& other) const {
  const auto mine = arrays();
  const auto theirs = other.arrays();
  for (std::size_t k = 0; k < mine.size(); ++k) {
    if (!std::ranges::equal(mine[k], theirs[k])) return false;
  }
  return id == other.id;
}

std::uint32_t padded_lanes(std::uint32_t items) {
  const auto W = static_cast<std::uint32_t>(simd::kLanes);
  return (items + W - 1) / W * W;
}

}  // namespace photon
