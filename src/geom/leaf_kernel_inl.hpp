// The SoA leaf-kernel body, header-inline so each acceleration structure's
// traversal loop absorbs it: the per-ray constants are splatted ONCE per
// traversal (RayLanes) instead of once per leaf visit, and the lane loop
// inlines into the caller's hot loop.
//
// Include rules: ONLY from a TU listed in PHOTON_KERNEL_TUS in CMakeLists
// (leaf_kernel.cpp and the two traversal TUs). Those TUs are compiled with
// -ffp-contract=off (fusing a*b+c would change rounding and break the bitwise
// equivalence with the scalar Patch::intersect reference), with -mavx2 when
// the configure machine runs AVX2, and with PHOTON_SIMD_SCALAR under
// -DPHOTON_SIMD=OFF. Including this header anywhere else would compile the
// intrinsics without those flags.
#pragma once

#include "core/simd.hpp"
#include "geom/leaf_kernel.hpp"

namespace photon {

// Per-ray constants splatted once per traversal.
struct RayLanes {
  simd::Vd ox, oy, oz;  // origin
  simd::Vd dx, dy, dz;  // direction
  simd::Vd eps, zero, one;

  explicit RayLanes(const Ray& ray)
      : ox(simd::splat(ray.origin.x)),
        oy(simd::splat(ray.origin.y)),
        oz(simd::splat(ray.origin.z)),
        dx(simd::splat(ray.dir.x)),
        dy(simd::splat(ray.dir.y)),
        dz(simd::splat(ray.dir.z)),
        eps(simd::splat(kRayEpsilon)),
        zero(simd::splat(0.0)),
        one(simd::splat(1.0)) {}
};

// Closest accepted hit in the lane block [begin, end) against the running
// best, written back into `best` (best.dist doubles as the running tmax).
// [begin, end) must be lane-width-aligned.
//
// Semantics mirror the scalar reference loop (Patch::intersect streamed over
// the leaf in item order) bit for bit:
//
//  - each lane runs the identical IEEE double arithmetic in the identical
//    association order (no FMA: the shim has none and the including TU is
//    compiled with -ffp-contract=off), so an accepted lane's dist/s/t equal
//    the scalar's;
//  - acceptance is the same predicate chain (denom != 0, dist in
//    (kRayEpsilon, best), s and t in [0, 1]) — padding sentinels fail the
//    denom test exactly like a parallel patch, and the 0/0 -> NaN lanes the
//    sentinel division produces fail every ordered compare;
//  - the scalar loop's "last strict improvement wins" update means the final
//    winner is the minimum distance, ties resolved to the earliest item in
//    leaf order. The per-lane running minimum uses the same strict compare
//    (earliest block wins a tie within a lane) and the horizontal tail picks
//    the lowest distance, then the lowest lane index on equality — the same
//    winner the sequential scan selects.
inline void leaf_closest(const LeafSoA& soa, const Ray& ray, const RayLanes& rl,
                         std::uint32_t begin, std::uint32_t end, SceneHit& best) {
  simd::Vd vbest = simd::splat(best.dist);
  simd::Vd vwin = simd::splat(-1.0);
  double iota[simd::kLanes];
  for (int l = 0; l < simd::kLanes; ++l) iota[l] = static_cast<double>(l);
  simd::Vd vlane = simd::load(iota) + simd::splat(static_cast<double>(begin));
  const simd::Vd vstep = simd::splat(static_cast<double>(simd::kLanes));

  for (std::uint32_t k = begin; k < end; k += static_cast<std::uint32_t>(simd::kLanes)) {
    const simd::Vd nx = simd::load(&soa.nx[k]);
    const simd::Vd ny = simd::load(&soa.ny[k]);
    const simd::Vd nz = simd::load(&soa.nz[k]);
    const simd::Vd denom = rl.dx * nx + rl.dy * ny + rl.dz * nz;
    const simd::Vd dist =
        (simd::load(&soa.plane_d[k]) - (rl.ox * nx + rl.oy * ny + rl.oz * nz)) / denom;
    const simd::Vd px = rl.ox + rl.dx * dist;
    const simd::Vd py = rl.oy + rl.dy * dist;
    const simd::Vd pz = rl.oz + rl.dz * dist;
    const simd::Vd s =
        px * simd::load(&soa.sx[k]) + py * simd::load(&soa.sy[k]) +
        pz * simd::load(&soa.sz[k]) + simd::load(&soa.s_base[k]);
    const simd::Vd t =
        px * simd::load(&soa.tx[k]) + py * simd::load(&soa.ty[k]) +
        pz * simd::load(&soa.tz[k]) + simd::load(&soa.t_base[k]);
    const simd::Mask m = simd::neq(denom, rl.zero) & simd::gt(dist, rl.eps) &
                         simd::lt(dist, vbest) & simd::ge(s, rl.zero) & simd::le(s, rl.one) &
                         simd::ge(t, rl.zero) & simd::le(t, rl.one);
    vbest = simd::select(m, dist, vbest);
    vwin = simd::select(m, vlane, vwin);
    vlane = vlane + vstep;
  }

  double lane_dist[simd::kLanes];
  double lane_win[simd::kLanes];
  simd::store(lane_dist, vbest);
  simd::store(lane_win, vwin);
  std::int64_t win = -1;
  double win_dist = best.dist;
  for (int l = 0; l < simd::kLanes; ++l) {
    if (lane_win[l] < 0.0) continue;  // lane never accepted a candidate
    const auto idx = static_cast<std::int64_t>(lane_win[l]);
    if (lane_dist[l] < win_dist || (lane_dist[l] == win_dist && win >= 0 && idx < win)) {
      win_dist = lane_dist[l];
      win = idx;
    }
  }
  if (win < 0) return;

  // Re-derive the winner's hit scalars with the identical arithmetic — bitwise
  // equal to what its lane computed, and to Patch::intersect on the original.
  const auto w = static_cast<std::size_t>(win);
  const double denom = ray.dir.x * soa.nx[w] + ray.dir.y * soa.ny[w] + ray.dir.z * soa.nz[w];
  const double dist =
      (soa.plane_d[w] - (ray.origin.x * soa.nx[w] + ray.origin.y * soa.ny[w] +
                         ray.origin.z * soa.nz[w])) /
      denom;
  const double px = ray.origin.x + ray.dir.x * dist;
  const double py = ray.origin.y + ray.dir.y * dist;
  const double pz = ray.origin.z + ray.dir.z * dist;
  best.patch = soa.id[w];
  best.dist = dist;
  best.s = px * soa.sx[w] + py * soa.sy[w] + pz * soa.sz[w] + soa.s_base[w];
  best.t = px * soa.tx[w] + py * soa.ty[w] + pz * soa.tz[w] + soa.t_base[w];
  best.front = denom < 0.0;
}

}  // namespace photon
