// Nested uniform grid behind the AccelStructure seam (geom/accel.hpp).
//
// A coarse uniform grid spans the scene bounds with a per-axis resolution
// shaped by the box aspect (cells per axis ~ grid_density * cbrt(n)). Patches
// are rasterized into every coarse cell their bounds overlap (duplicated
// references, like the octree's spatial partition), in ascending patch-id
// order per cell — counting sort over a fixed patch order, so the arrays are
// inherently schedule-independent. A coarse cell holding more than
// grid_refine_threshold references is "hot" and gets a dense
// grid_sub_res^3 sub-grid nested inside it; its references re-rasterize into
// the sub-cells and the coarse cell itself keeps an empty range. Coarse and
// sub cells share one unified cell-id space with CSR item lists and the
// lane-padded SoA blocks of the shared kernel (geom/leaf_kernel.hpp).
//
// Traversal is the Amanatides & Woo 3D-DDA over the coarse grid, recursing
// into a nested DDA for the ray's segment through each hot cell. After a
// cell's references are tested, the walk stops as soon as the running best
// hit lies at or before the cell's exit parameter: a hit point before t_exit
// lies inside a cell already visited, and that cell references every patch
// overlapping it — so the untested remainder cannot beat the current best.
// The accepted hit is bitwise-equal to the brute scan, like the octree's.
//
// The build is deterministic for any worker count by construction: the
// counting-sort passes run in a fixed order, and the parallel phases on the
// WorkerPool (per-hot-cell sub-rasterization, then the leaf pack,
// pack_leaves) write disjoint precomputed ranges whose contents do not
// depend on the schedule.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/accel.hpp"
#include "geom/leaf_kernel.hpp"
#include "geom/patch.hpp"

namespace photon {

class HashGrid final : public AccelStructure {
 public:
  HashGrid() = default;

  void build(std::span<const Patch> patches, const AccelBuildParams& params) override;

  AccelKind kind() const override { return AccelKind::kGrid; }
  bool built() const override { return !item_offsets_.empty(); }
  const Aabb& bounds() const override { return bounds_; }
  // Total cells, coarse plus nested (the grid's "nodes").
  std::size_t node_count() const override;
  // 1 for a flat grid, 2 once any cell is refined.
  int depth() const override { return depth_; }
  std::size_t item_ref_count() const override { return item_ids_.size(); }
  std::size_t lane_count() const override { return soa_.size(); }
  std::size_t memory_bytes() const override;
  std::span<const std::uint32_t> item_offsets() const override { return item_offsets_; }
  std::span<const std::int32_t> item_ids() const override { return item_ids_; }
  std::span<const std::uint32_t> lane_offsets() const override { return lane_offsets_; }
  const LeafSoA& leaf_soa() const override { return soa_; }

  bool intersect(const Ray& ray, double tmax, SceneHit& best) const override;
  bool intersect_counted(const Ray& ray, double tmax, SceneHit& best,
                         TraversalStats& stats) const override;
  using AccelStructure::intersect;
  using AccelStructure::build;  // the default-params helper

  bool identical_to(const HashGrid& other) const;
  bool identical_to(const AccelStructure& other) const override;

  // Exposed for tests: coarse resolution and refined-cell count.
  std::array<int, 3> resolution() const { return {res_[0], res_[1], res_[2]}; }
  std::size_t refined_cell_count() const { return sub_blocks_; }

 private:
  template <bool Count>
  bool intersect_impl(const Ray& ray, double tmax, SceneHit& best,
                      TraversalStats* stats) const;
  // Tests one cell's references; returns true when the walk can stop (a
  // confirmed-nearest hit at or before t_exit).
  template <bool Count>
  bool visit_cell(std::size_t cell, const Ray& ray, const RayLanes& rl, double t_exit,
                  SceneHit& best, TraversalStats* stats) const;

  Aabb bounds_;
  int res_[3] = {0, 0, 0};   // coarse cells per axis
  Vec3 cell_size_{};         // coarse cell extent
  int sub_res_ = 0;          // nested cells per axis inside a hot cell
  std::size_t sub_blocks_ = 0;
  // Per coarse cell: -1 for a leaf cell, else the nested block index b whose
  // sub-cells are cell ids [coarse_count + b*sub_res^3, ...).
  std::vector<std::int32_t> coarse_sub_;
  // CSR item lists and SoA lanes over the unified cell-id space.
  std::vector<std::uint32_t> item_offsets_;
  UninitVector<std::int32_t> item_ids_;
  std::vector<std::uint32_t> lane_offsets_;
  LeafSoA soa_;
  int depth_ = 0;
};

}  // namespace photon
