// The 4-dimensional histogram bin (chapter 4, "Four-Dimensional Histograms").
//
// Radiance is a function of position and exitant direction; a bin is a box in
//   (s, t)      bilinear position on the patch, each in [0, 1];
//   u = r^2     squared radial distance of the direction projected into the
//               patch's tangent disk (u = sin^2 of the polar angle), in [0,1];
//   theta       azimuth of the projected direction, in [0, 2 pi).
//
// The coordinates are chosen so a Lambertian (cosine) flux distribution is
// *uniform* in this 4-volume: splitting any axis at its midpoint halves the
// expected count. That is exactly why the paper bins the squared projected
// radius instead of the spherical elevation angle. Color is a fifth dimension
// that is tallied per channel but never subdivided.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "core/vec3.hpp"

namespace photon {

inline constexpr int kBinDims = 4;
inline constexpr double kTwoPi = 6.283185307179586476925286766559;

enum class BinAxis : std::int8_t { kS = 0, kT = 1, kU = 2, kTheta = 3 };

struct BinCoords {
  float s = 0.0f;
  float t = 0.0f;
  float u = 0.0f;      // r^2
  float theta = 0.0f;  // [0, 2 pi)

  float operator[](int axis) const {
    return axis == 0 ? s : (axis == 1 ? t : (axis == 2 ? u : theta));
  }

  // Builds coordinates from a hit position (s, t) and the outgoing direction
  // in the local tangent frame (z > 0 on the reflecting side).
  static BinCoords from_local_dir(double s, double t, const Vec3& dir_local) {
    BinCoords c;
    c.s = static_cast<float>(s);
    c.t = static_cast<float>(t);
    const double u = dir_local.x * dir_local.x + dir_local.y * dir_local.y;
    c.u = static_cast<float>(u < 1.0 ? u : 1.0);
    double th = std::atan2(dir_local.y, dir_local.x);
    if (th < 0.0) th += kTwoPi;
    c.theta = static_cast<float>(th);
    // Theta is periodic on the half-open [0, 2pi). A tiny negative atan2
    // result makes th + 2pi round to exactly float(2pi), which would land on
    // (or, after region midpoint arithmetic, beyond) the closed upper edge of
    // the root bin region; wrap it back to the equivalent 0.
    if (c.theta >= static_cast<float>(kTwoPi)) c.theta = 0.0f;
    return c;
  }
};

struct BinRegion {
  std::array<float, kBinDims> lo{};
  std::array<float, kBinDims> hi{};

  static BinRegion full() {
    BinRegion r;
    r.lo = {0.0f, 0.0f, 0.0f, 0.0f};
    r.hi = {1.0f, 1.0f, 1.0f, static_cast<float>(kTwoPi)};
    return r;
  }

  float mid(int axis) const { return 0.5f * (lo[static_cast<std::size_t>(axis)] + hi[static_cast<std::size_t>(axis)]); }
  float extent(int axis) const { return hi[static_cast<std::size_t>(axis)] - lo[static_cast<std::size_t>(axis)]; }

  bool contains(const BinCoords& c) const {
    for (int a = 0; a < kBinDims; ++a) {
      const auto ai = static_cast<std::size_t>(a);
      if (c[a] < lo[ai] || c[a] > hi[ai]) return false;
    }
    return true;
  }

  // 0 when the coordinate falls in the lower half along `axis`, 1 otherwise.
  int half_of(int axis, float x) const { return x < mid(axis) ? 0 : 1; }

  BinRegion child(int axis, int half) const {
    BinRegion r = *this;
    const auto ai = static_cast<std::size_t>(axis);
    if (half == 0) {
      r.hi[ai] = mid(axis);
    } else {
      r.lo[ai] = mid(axis);
    }
    return r;
  }

  // 4-volume of the region. Under the cosine-weighted direction measure the
  // expected Lambertian photon count of a bin is proportional to this.
  double measure() const {
    double m = 1.0;
    for (int a = 0; a < kBinDims; ++a) m *= static_cast<double>(extent(a));
    return m;
  }
};

// One node of a bin tree. Leaves carry tallies; interior nodes remember the
// split axis and coordinate. A node's region is not stored: it follows from
// the splits on the path down from BinRegion::full(), and a descent rebuilds
// it by setting hi[axis] (lower daughter) or lo[axis] (upper daughter) to
// `split` at each level, the same floats BinRegion::child produces.
// `split_n`/`split_left` implement the paper's "speculative binning": counts
// since the node's creation, per candidate axis, that would have fallen in
// the lower daughter.
struct BinNode {
  std::array<std::uint32_t, 3> tally{};       // lifetime count per color channel
  std::uint32_t split_n = 0;                  // photons since creation (all channels)
  std::array<std::uint32_t, kBinDims> split_left{};
  float split = 0.0f;                         // interior: region.mid(axis) at the split
  std::int32_t left = -1;                     // interior: the lower daughter
  std::int8_t axis = -1;
  std::uint8_t depth = 0;

  bool is_leaf() const { return left < 0; }
  // The upper daughter: a split appends both daughters together.
  std::int32_t right() const { return left < 0 ? -1 : left + 1; }
  std::uint64_t total_tally() const {
    return std::uint64_t{tally[0]} + tally[1] + tally[2];
  }
};

}  // namespace photon
