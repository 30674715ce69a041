// The SoA leaf-intersection kernel shared by every acceleration structure.
//
// A structure's leaves store sequential copies of their referenced patches'
// hit-test constants (Patch::hit_constants()) in structure-of-arrays blocks:
// one contiguous double array per scalar, so the kernel loads a full vector
// of each constant with a single unit-stride read. Blocks are padded to the
// kernel lane width with sentinel lanes (all-zero constants: denom == 0
// rejects them exactly like the scalar parallel-plane test; id == -1).
// pack_leaves() writes every lane, real and sentinel, in one parallel pass.
//
// leaf_closest() (header-inline in geom/leaf_kernel_inl.hpp, so traversal
// loops absorb it with the per-ray splats hoisted) mirrors the scalar
// reference loop (Patch::intersect streamed over the leaf in item order) bit
// for bit on every kernel backend (AVX/SSE2/scalar, core/simd.hpp) — see the
// contract notes on the definition. Only the TUs listed in PHOTON_KERNEL_TUS
// touch the SIMD shim; the build compiles them with -ffp-contract=off (plus
// -mavx2 when the host runs it): fusing a*b+c would change rounding and break
// the bitwise equivalence with the scalar Patch::intersect reference.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "geom/accel.hpp"
#include "geom/patch.hpp"

namespace photon {

// Compile-time kernel selection: lane width in doubles (4 for AVX, 2 for
// SSE2, 4 for the scalar fallback) and the backend name, for bench artifacts
// and diagnostics.
int kernel_lane_width();
const char* kernel_backend();

// An allocator whose value-initialising construct() default-initialises
// instead, so resize() of a vector of scalars allocates without writing: each
// page is first touched by the build task that fills it, not by a serial
// zero fill that the fill then overwrites.
template <typename T>
struct UninitAllocator : std::allocator<T> {
  UninitAllocator() = default;
  template <typename U>
  UninitAllocator(const UninitAllocator<U>&) noexcept {}
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};
template <typename T>
using UninitVector = std::vector<T, UninitAllocator<T>>;

// Structure-of-arrays leaf storage. Lane k of a leaf's block holds one
// referenced patch's precomputed hit-test constants; the duplication (one
// copy per referencing leaf) buys unit-stride coherence. The twelve constant
// arrays are views into one allocation.
struct LeafSoA {
  std::span<double> nx, ny, nz, plane_d;
  std::span<double> sx, sy, sz, s_base;
  std::span<double> tx, ty, tz, t_base;
  UninitVector<std::int32_t> id;  // global patch id; -1 in padding lanes

  LeafSoA() = default;
  // A move keeps the allocation, so the views stay valid; a copy would not.
  LeafSoA(LeafSoA&&) noexcept = default;
  LeafSoA& operator=(LeafSoA&&) noexcept = default;
  LeafSoA(const LeafSoA&) = delete;
  LeafSoA& operator=(const LeafSoA&) = delete;

  void clear();
  // (Re)allocates `lanes` lanes without initialising them: a lane holds
  // garbage until set_lane or set_sentinel writes it.
  void resize(std::size_t lanes);
  // Scatters one patch's constants into lane `lane`.
  void set_lane(std::size_t lane, const Patch::HitConstants& c, std::int32_t patch_id);
  // Makes lane `lane` a padding sentinel: zero constants, id -1.
  void set_sentinel(std::size_t lane);

  std::size_t size() const { return id.size(); }
  std::size_t memory_bytes() const;
  bool operator==(const LeafSoA& other) const;

 private:
  std::array<std::span<double>*, 12> arrays();
  std::array<std::span<const double>, 12> arrays() const;

  UninitVector<double> constants_;
};

// Rounds a leaf's item count up to a whole number of kernel lane blocks.
std::uint32_t padded_lanes(std::uint32_t items);

// The leaf pack both structures end their build with. Node n's item ids go
// to item_ids[item_offsets[n], item_offsets[n + 1]), copied from
// source_of(n) unless they already live there; its lanes [lane_offsets[n],
// lane_offsets[n + 1]) get the referenced patches' constants, then sentinel
// padding up to the lane width. lane_offsets and soa are rebuilt here;
// item_ids must already hold item_offsets.back() elements. Contiguous blocks
// of nodes run on the pool `width` wide, each writing only its own ranges,
// so the arrays do not depend on the schedule, and each page is first
// touched by the block that fills it.
template <typename SourceOf>
void pack_leaves(std::span<const Patch> patches, std::span<const std::uint32_t> item_offsets,
                 const SourceOf& source_of, int width, std::span<std::int32_t> item_ids,
                 std::vector<std::uint32_t>& lane_offsets, LeafSoA& soa) {
  const std::size_t nodes = item_offsets.size() - 1;
  lane_offsets.resize(nodes + 1);
  std::uint32_t lanes = 0;
  for (std::size_t n = 0; n < nodes; ++n) {
    lane_offsets[n] = lanes;
    lanes += padded_lanes(item_offsets[n + 1] - item_offsets[n]);
  }
  lane_offsets[nodes] = lanes;
  soa.resize(lanes);

  // Block b takes the nodes whose lanes start in [b, b + 1) * kBlockLanes.
  constexpr std::uint32_t kBlockLanes = 8192;
  const std::size_t blocks = chunk_count(lanes, kBlockLanes);
  const auto first_node = [&](std::size_t b) {
    if (b >= blocks) return nodes;
    const auto at = std::lower_bound(lane_offsets.begin(), lane_offsets.begin() + nodes,
                                     static_cast<std::uint32_t>(b * kBlockLanes));
    return static_cast<std::size_t>(at - lane_offsets.begin());
  };
  run_build_tasks(blocks, width, [&](std::size_t b) {
    const std::size_t end = first_node(b + 1);
    for (std::size_t n = first_node(b); n < end; ++n) {
      const std::uint32_t count = item_offsets[n + 1] - item_offsets[n];
      std::int32_t* ids = item_ids.data() + item_offsets[n];
      const std::int32_t* source = source_of(n);
      if (source != ids) std::copy(source, source + count, ids);
      std::uint32_t lane = lane_offsets[n];
      for (std::uint32_t i = 0; i < count; ++i, ++lane) {
        soa.set_lane(lane, patches[static_cast<std::size_t>(ids[i])].hit_constants(), ids[i]);
      }
      for (; lane < lane_offsets[n + 1]; ++lane) soa.set_sentinel(lane);
    }
  });
}

// The kernel itself — RayLanes (the per-traversal splat bundle) and
// leaf_closest() — lives in geom/leaf_kernel_inl.hpp, which only the
// PHOTON_KERNEL_TUS translation units may include. Headers may pass RayLanes
// by reference through this forward declaration.
struct RayLanes;

}  // namespace photon
