// Octree spatial index over patches (chapter 6, "Massive Parallelism"):
// "The octree data structure orders the intersection testing for a given
// photon such that we only test polygons in the space the photon is traveling
// through. When an intersection is detected, it is the closest intersection
// and further testing is not needed."
//
// The default structure behind the AccelStructure seam (geom/accel.hpp; the
// brute-force scan Scene::intersect_brute stays the equivalence-test
// reference for every structure). The index is stored pointer-free for the hot
// path: nodes live in one flat array with their non-empty children packed
// consecutively (an octant bitmask plus a popcount locates a child), and leaf
// item lists are a CSR pair (`item_offsets`/`item_ids`) instead of a heap
// vector per node. Traversal is iterative with an explicit stack and visits
// children front-to-back in XOR octant order derived from the ray's direction
// signs — no per-node sort. Because children are axis-aligned octants of
// their parent, that order is a correct front-to-back sequence, so the first
// accepted hit that precedes every remaining node entry is the closest.
//
// Leaf hit tests run on the shared SoA kernel (geom/leaf_kernel.hpp): each
// leaf's patch constants live in lane-padded structure-of-arrays blocks and
// the accepted hit is bitwise-equal to the scalar Patch::intersect reference.
// Queries answer entirely from this packed snapshot — they do not read the
// Patch array the index was built from.
//
// build() computes each patch's bounds once and splits a node's items with a
// stable count-then-scatter pass into the tail of an index arena. A parallel
// build (AccelBuildParams::workers) cuts every non-empty depth-2 node into a
// pool task that the same recursion builds into its own arena, flattens
// breadth-first straight from the arenas, and packs the leaves in blocks on
// the pool (pack_leaves), so the node/CSR/SoA arrays are bitwise-identical
// for any worker count.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "geom/accel.hpp"
#include "geom/leaf_kernel.hpp"
#include "geom/patch.hpp"

namespace photon {

class Octree final : public AccelStructure {
 public:
  // Explicit traversal stack bound: at most 7 siblings deferred per level on
  // the path down, so 8 * (max depth + 1) is comfortably safe. Build depth is
  // clamped to kMaxDepth.
  static constexpr int kMaxDepth = 24;

  Octree() = default;

  // Reads max_depth, max_leaf_items and workers (geom/accel.hpp).
  void build(std::span<const Patch> patches, const AccelBuildParams& params) override;
  using AccelStructure::build;  // the default-params helper

  AccelKind kind() const override { return AccelKind::kOctree; }
  bool built() const override { return !nodes_.empty(); }
  const Aabb& bounds() const override { return bounds_; }
  std::size_t node_count() const override { return nodes_.size(); }
  int depth() const override { return depth_; }
  // Total patch references across all leaves (a patch crossing an octant
  // midplane is referenced once per leaf it reaches).
  std::size_t item_ref_count() const override { return item_ids_.size(); }
  // Total SoA lanes including the per-leaf padding to the kernel lane width.
  std::size_t lane_count() const override { return soa_.size(); }
  std::size_t memory_bytes() const override;

  // Closest hit over all indexed patches written to `best`; returns false and
  // leaves `best` cleared (patch < 0, dist = tmax) when nothing is hit before
  // tmax. This is the allocation-free fast path the tracer uses.
  bool intersect(const Ray& ray, double tmax, SceneHit& best) const override;
  bool intersect_counted(const Ray& ray, double tmax, SceneHit& best,
                         TraversalStats& stats) const override;
  using AccelStructure::intersect;  // the optional-returning wrapper

  std::span<const std::uint32_t> item_offsets() const override { return item_offsets_; }
  std::span<const std::int32_t> item_ids() const override { return item_ids_; }
  std::span<const std::uint32_t> lane_offsets() const override { return lane_offsets_; }
  const LeafSoA& leaf_soa() const override { return soa_; }

  // True when every flattened array (nodes, CSR item lists, lane offsets and
  // SoA constants) is bitwise-equal — the parallel-build determinism pin.
  bool identical_to(const Octree& other) const;
  bool identical_to(const AccelStructure& other) const override;

 private:
  struct Node {
    Aabb box;
    std::int32_t first_child = -1;  // base of the packed non-empty children; -1 for leaf
    std::uint8_t child_mask = 0;    // bit o set when octant o has a child
  };

  template <bool Count>
  bool intersect_impl(const Ray& ray, double tmax, SceneHit& best,
                      TraversalStats* stats) const;

  std::vector<Node> nodes_;
  // CSR leaf item lists: node i's items are item_ids_[item_offsets_[i] ..
  // item_offsets_[i + 1]).
  std::vector<std::uint32_t> item_offsets_;
  UninitVector<std::int32_t> item_ids_;
  // SoA leaf blocks: node i's lanes are [lane_offsets_[i], lane_offsets_[i+1])
  // in soa_, a multiple of the kernel lane width (items padded with
  // sentinels). Same item order as the CSR lists.
  std::vector<std::uint32_t> lane_offsets_;
  LeafSoA soa_;
  Aabb bounds_;
  int depth_ = 0;
};

}  // namespace photon
