// The acceleration-structure seam.
//
// Every spatial index in Photon answers the same contract the octree
// established: build() ingests the patch array and packs each leaf's
// hit-test constants into lane-padded SoA blocks (geom/leaf_kernel.hpp);
// intersect()/intersect_counted() run a front-to-back traversal whose
// accepted hit is bitwise-equal to the brute linear scan
// (Scene::intersect_brute) — the equivalence suite pins every implementation
// against that reference on all bundled scenes. Queries answer entirely from
// the packed snapshot taken at build() time, never from the Patch array.
//
// Two structures live behind the seam, both spatial partitions (a patch is
// referenced by every leaf or cell it reaches):
//
//   octree  flat pointer-free octree, XOR-octant front-to-back traversal
//           (geom/octree.hpp) — the paper's structure
//   grid    nested uniform grid, dense sub-grids in hot cells, DDA traversal
//           with first-confirmed-nearest early-out (geom/grid.hpp)
//
// A scene picks one by its size (default_accel_kind): the grid from
// kGridMinPatches patches up, the octree below.
//
// Both reuse the one SIMD leaf kernel and contract a deterministic parallel
// build: the packed arrays are bitwise-identical for any
// AccelBuildParams::workers value. Each build cuts its work into a task list
// fixed by the input alone (octree subtrees, grid patch chunks and hot
// cells, blocks of leaves), runs it on the shared WorkerPool, and every task
// writes only its own arena or its own ranges of the packed arrays, so the
// schedule cannot reach the result. Both end in one leaf pack (pack_leaves,
// geom/leaf_kernel.hpp). The scene owns the choice of structure
// (Scene::set_accel overrides the size rule); every index a run builds,
// dist-spatial's per-region ones included, reads it from there. Scene holds
// an AccelStructure by pointer, so dependents of geom/scene.hpp compile
// against this header alone — structure-specific headers are implementation
// detail.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/aabb.hpp"
#include "core/ray.hpp"
#include "engine/pool.hpp"
#include "geom/patch.hpp"

namespace photon {

// Closest-hit result over a whole structure (PatchHit plus the patch id).
struct SceneHit {
  int patch = -1;
  double dist = kNoHit;
  double s = 0.0;
  double t = 0.0;
  bool front = true;
};

// Deterministic traversal-work counters. Wall clocks are noisy; nodes (or
// cells) visited and patch tests per ray are not, so the bench/test layers
// use the counted traversal to pin query quality. patch_tests counts real
// patch references, not padded SoA lanes — identical across kernel backends.
struct TraversalStats {
  std::uint64_t nodes_visited = 0;
  std::uint64_t patch_tests = 0;
};

enum class AccelKind { kOctree, kGrid };

struct LeafSoA;  // geom/leaf_kernel.hpp

// One knob bundle for every structure; each implementation reads the fields
// it understands and ignores the rest (the same deal RunConfig makes with
// the backends).
struct AccelBuildParams {
  // Both structures: parallel-build width; <= 0 means one task slot per
  // hardware thread. The built arrays are bitwise-identical for any value.
  int workers = 0;

  // octree: subdivision limits (depth is clamped to Octree::kMaxDepth).
  // Tuned against the bundled scenes (bench_accel races them): with the SoA
  // lane-parallel leaf tests, patch tests are cheap and node visits (random
  // box reads + stack traffic) are the expensive unit, so moderately fat
  // leaves beat the classic small-leaf shape by ~2x. Leaf capacities 8-32
  // form one plateau within measurement noise (BENCH_accel.json).
  int max_depth = 12;
  int max_leaf_items = 12;

  // grid: coarse resolution scale (cells per axis ~ density * cbrt(n),
  // shaped by the box aspect), refinement threshold (a coarse cell holding
  // more references than this gets a dense sub-grid), and the sub-grid
  // resolution per axis.
  double grid_density = 2.0;
  int grid_refine_threshold = 24;
  int grid_sub_res = 4;
};

class AccelStructure {
 public:
  virtual ~AccelStructure() = default;

  virtual void build(std::span<const Patch> patches, const AccelBuildParams& params) = 0;
  void build(std::span<const Patch> patches) { build(patches, AccelBuildParams{}); }

  virtual AccelKind kind() const = 0;
  virtual bool built() const = 0;
  virtual const Aabb& bounds() const = 0;

  // Structure size in its native unit: octree nodes, grid cells (coarse +
  // sub). depth() is tree depth, or 1 + refined levels for the grid.
  virtual std::size_t node_count() const = 0;
  virtual int depth() const = 0;
  // Total patch references across all leaves (a patch crossing a leaf or
  // cell boundary is referenced once per leaf or cell it reaches).
  virtual std::size_t item_ref_count() const = 0;
  // Total SoA lanes including per-leaf padding to the kernel lane width.
  virtual std::size_t lane_count() const = 0;
  // Resident bytes of the packed arrays — the bench shootout's memory column.
  virtual std::size_t memory_bytes() const = 0;

  // The packed leaves, for the build tests and analysis tools. Node (or
  // cell) i's items are item_ids()[item_offsets()[i], item_offsets()[i + 1])
  // and its lanes are [lane_offsets()[i], lane_offsets()[i + 1]) of
  // leaf_soa(): the items' constants in the same order, then sentinels.
  virtual std::span<const std::uint32_t> item_offsets() const = 0;
  virtual std::span<const std::int32_t> item_ids() const = 0;
  virtual std::span<const std::uint32_t> lane_offsets() const = 0;
  virtual const LeafSoA& leaf_soa() const = 0;

  // Closest hit before tmax written to `best`; returns false and leaves
  // `best` cleared (patch < 0, dist = tmax) on a miss. The allocation-free
  // fast path the tracer uses.
  virtual bool intersect(const Ray& ray, double tmax, SceneHit& best) const = 0;
  virtual bool intersect_counted(const Ray& ray, double tmax, SceneHit& best,
                                 TraversalStats& stats) const = 0;

  // Convenience wrapper over the fast path.
  std::optional<SceneHit> intersect(const Ray& ray, double tmax = kNoHit) const {
    SceneHit best;
    if (!intersect(ray, tmax, best)) return std::nullopt;
    return best;
  }

  // True when `other` is the same structure kind with bitwise-equal packed
  // arrays — the parallel-build determinism pin.
  virtual bool identical_to(const AccelStructure& other) const = 0;
};

// The width a build over `items` patches runs at: params.workers, or one slot
// per hardware thread when that is <= 0. An auto-width build of fewer than
// kParallelBuildMinItems patches runs serially: it finishes in less time than
// waking the pool takes. An explicit width is always honoured.
inline constexpr std::size_t kParallelBuildMinItems = 2048;
int build_width(const AccelBuildParams& params, std::size_t items);

// The structure a scene of `patches` patches builds unless Scene::set_accel
// chose one: the grid at or above kGridMinPatches, the octree below. The
// line lies above the bundled scenes (the lab has 2,000 patches): with the
// grid on every scene, cornell-dist's setup_s rose from 8 to 18 us and
// service-mix's peak RSS by 16%, past their bounds. It lies below the
// ~90k-patch benchmark office, which the grid traces ~1.7x faster. Between
// the two it sits in the build-time crossover of bench_accel's size sweep
// on 10 x 3 x 10 m tessellated rooms (BENCH_accel.json, "sweep"; medians of
// 5 alternating runs at the default width, 4 cores). The crossover is noisy
// from 14k to 29k patches: the grid built faster at 22,079 (5.3 against
// 5.6 ms), the octree at 24,187 and 26,391 (7.5 against 8.0 ms), and the
// grid at every room from 29,071 up (6.2 against 7.5 ms; 10.2 against 16.7
// ms at 128,001). The octree's index is the smaller one up to about 64k
// patches. Photons/s does not draw the line: the grid led by 14-21% on the
// rooms of up to 14,339 patches and on every cluttered scene (the lab, the
// harpsichord room, the office), and was within about 10% of the octree on
// the bigger rooms.
inline constexpr std::size_t kGridMinPatches = 28000;
AccelKind default_accel_kind(std::size_t patches);

// Runs task(i) for every i in [0, n) on the shared WorkerPool `width` wide,
// or inline in ascending order when width <= 1 (a serial build pays nothing
// for scheduling). Tasks must write disjoint state.
template <typename Task>
void run_build_tasks(std::size_t n, int width, const Task& task) {
  if (width <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) task(i);
    return;
  }
  WorkerPool::instance().run(n, width,
                             [&](std::uint64_t i, int) { task(static_cast<std::size_t>(i)); });
}

// Each patch's bounds, computed once in fixed chunks on the pool `width`
// wide. Both builds read every patch's box from here, never from
// Patch::bounds() again.
std::vector<Aabb> patch_bounds(std::span<const Patch> patches, int width);

// Factory over the registered structure kinds (the CLI's --accel values).
std::unique_ptr<AccelStructure> make_accel(AccelKind kind);
const char* accel_kind_name(AccelKind kind);
// The kind called `name` (the CLI's --accel, the service's accel=); throws
// ConfigError naming every supported kind otherwise.
AccelKind parse_accel_kind(const std::string& name);
// Every kind, in the canonical shootout order {octree, grid}.
std::vector<AccelKind> accel_kinds();

}  // namespace photon
