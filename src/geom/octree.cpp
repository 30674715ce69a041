#include "geom/octree.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <thread>
#include <utility>

#include "engine/pool.hpp"
#include "geom/leaf_kernel_inl.hpp"

namespace photon {

namespace {

// Build-time node; flattened into the CSR arrays once the topology is final.
struct TempNode {
  Aabb box;
  std::array<std::int32_t, 8> children{-1, -1, -1, -1, -1, -1, -1, -1};
  std::vector<std::int32_t> items;
  bool leaf = true;
};

// Octants (bit a set = upper half on axis a) that take a patch with bounds
// `pb` at midpoint `c`. Per axis, the upper half takes it iff pb.hi > c and
// the lower half iff pb.lo < c || pb.hi <= c: a patch crossing the midplane
// goes to both halves, one touching it or lying in it to exactly one. (A
// closed-box overlap test sends those to both halves too: a tile whose edge
// is the midplane, and every item of a coplanar node, whose flat box splits
// into two identical halves, so its references doubled at every level.)
unsigned octants_reached(const Aabb& pb, const Vec3& c) {
  constexpr std::array<unsigned, 3> kUpperHalf{0xAAu, 0xCCu, 0xF0u};
  unsigned mask = 0xFFu;
  for (int a = 0; a < 3; ++a) {
    if (pb.hi[a] <= c[a]) {
      mask &= ~kUpperHalf[static_cast<std::size_t>(a)];
    } else if (pb.lo[a] >= c[a]) {
      mask &= kUpperHalf[static_cast<std::size_t>(a)];
    }
  }
  return mask;
}

// Partition items into octants by octants_reached; a patch crossing a
// midplane appears in several children (duplicated references, not
// duplicated geometry). Each child's stored box is tightened to the union of
// its items' bounds clipped against the octant, which culls the octant's
// empty space (walls and furniture leave most of a room empty) and keeps
// pruning sound: a point p of a patch inside the node's box lies on each
// axis in a closed half that takes the patch (p < c implies pb.lo < c,
// p > c implies pb.hi > c, and p == c is in both closed halves), so p is
// inside the box of a child holding the patch. Returns false when two or
// more children would each hold every item and the rest none (a large patch
// spanning the node, or coplanar patches stacked over its centre) —
// subdividing further only multiplies work. A single child holding every
// item still subdivides: its box is the tighter one.
bool partition_octants(std::span<const Patch> patches, const Aabb& box,
                       const std::vector<std::int32_t>& items,
                       std::array<std::vector<std::int32_t>, 8>& child_items,
                       std::array<Aabb, 8>& tight_boxes) {
  const Vec3 c = box.center();
  std::array<Aabb, 8> child_boxes;
  for (int o = 0; o < 8; ++o) child_boxes[o] = box.octant(o);
  for (const std::int32_t item : items) {
    const Aabb pb = patches[static_cast<std::size_t>(item)].bounds();
    const unsigned reached = octants_reached(pb, c);
    for (int o = 0; o < 8; ++o) {
      if (reached & (1u << o)) {
        child_items[o].push_back(item);
        tight_boxes[o].expand(Aabb{max(pb.lo, child_boxes[o].lo), min(pb.hi, child_boxes[o].hi)});
      }
    }
  }
  int holding_all = 0;
  for (int o = 0; o < 8; ++o) {
    if (child_items[o].empty()) continue;
    if (child_items[o].size() < items.size()) return true;
    ++holding_all;
  }
  return holding_all == 1;
}

std::int32_t build_temp(std::span<const Patch> patches, std::vector<TempNode>& temp,
                        const Aabb& box, std::vector<std::int32_t> items, int depth,
                        int max_depth, const AccelBuildParams& params, int& deepest) {
  const auto idx = static_cast<std::int32_t>(temp.size());
  temp.push_back(TempNode{});
  temp[static_cast<std::size_t>(idx)].box = box;
  deepest = std::max(deepest, depth);

  if (static_cast<int>(items.size()) <= params.max_leaf_items || depth >= max_depth) {
    temp[static_cast<std::size_t>(idx)].items = std::move(items);
    return idx;
  }

  std::array<std::vector<std::int32_t>, 8> child_items;
  std::array<Aabb, 8> tight_boxes;
  if (!partition_octants(patches, box, items, child_items, tight_boxes)) {
    temp[static_cast<std::size_t>(idx)].items = std::move(items);
    return idx;
  }

  temp[static_cast<std::size_t>(idx)].leaf = false;
  for (int o = 0; o < 8; ++o) {
    if (child_items[o].empty()) continue;
    const std::int32_t child = build_temp(patches, temp, tight_boxes[o],
                                          std::move(child_items[o]), depth + 1, max_depth,
                                          params, deepest);
    temp[static_cast<std::size_t>(idx)].children[static_cast<std::size_t>(o)] = child;
  }
  return idx;
}

// Builds the temp topology with the root's non-empty octants decomposed as
// independent tasks on the persistent worker pool (`workers` wide). Each
// octant subtree is built into its own arena by the same recursion the
// serial path uses (the DFS touches no shared state), then the arenas are
// stitched onto the root in octant order with child indices rebased. The stitched topology — and therefore the
// BFS-flattened node/CSR/SoA arrays — is identical for every worker count,
// including the workers == 1 path that runs the same tasks inline.
void build_temp_root(std::span<const Patch> patches, std::vector<TempNode>& temp,
                     const Aabb& box, std::vector<std::int32_t> items, int max_depth,
                     const AccelBuildParams& params, int& deepest, int workers) {
  temp.push_back(TempNode{});
  temp[0].box = box;
  deepest = 0;

  if (static_cast<int>(items.size()) <= params.max_leaf_items || 0 >= max_depth) {
    temp[0].items = std::move(items);
    return;
  }

  std::array<std::vector<std::int32_t>, 8> child_items;
  std::array<Aabb, 8> tight_boxes;
  if (!partition_octants(patches, box, items, child_items, tight_boxes)) {
    temp[0].items = std::move(items);
    return;
  }

  struct Subtree {
    std::vector<TempNode> temp;
    int deepest = 0;
  };
  std::array<Subtree, 8> sub;
  std::vector<int> tasks;
  tasks.reserve(8);
  for (int o = 0; o < 8; ++o) {
    if (!child_items[o].empty()) tasks.push_back(o);
  }

  const auto run_task = [&](int o) {
    build_temp(patches, sub[static_cast<std::size_t>(o)].temp, tight_boxes[o],
               std::move(child_items[static_cast<std::size_t>(o)]), 1, max_depth, params,
               sub[static_cast<std::size_t>(o)].deepest);
  };

  const int T = std::min<int>(workers, static_cast<int>(tasks.size()));
  if (T <= 1) {
    for (const int o : tasks) run_task(o);
  } else {
    // Octant subtrees as pool tasks (one chunk each) on the persistent
    // process pool — no thread spawn per build. Nested builds (a build
    // issued from inside a pool task) run inline via the pool's reentrancy
    // path, so this is safe to call from anywhere.
    WorkerPool::instance().run(tasks.size(), T, [&](std::uint64_t i, int) {
      run_task(tasks[static_cast<std::size_t>(i)]);
    });
  }

  temp[0].leaf = false;
  for (const int o : tasks) {
    Subtree& s = sub[static_cast<std::size_t>(o)];
    const auto offset = static_cast<std::int32_t>(temp.size());
    temp[0].children[static_cast<std::size_t>(o)] = offset;
    for (TempNode& n : s.temp) {
      for (std::int32_t& c : n.children) {
        if (c >= 0) c += offset;
      }
      temp.push_back(std::move(n));
    }
    deepest = std::max(deepest, s.deepest);
  }
}

}  // namespace

void Octree::build(std::span<const Patch> patches, const AccelBuildParams& params) {
  nodes_.clear();
  item_offsets_.clear();
  item_ids_.clear();
  lane_offsets_.clear();
  soa_.clear();
  depth_ = 0;
  bounds_ = Aabb{};
  std::vector<std::int32_t> all(patches.size());
  for (std::size_t i = 0; i < patches.size(); ++i) {
    all[i] = static_cast<std::int32_t>(i);
    bounds_.expand(patches[i].bounds());
  }
  if (patches.empty()) return;
  // Pad so axis-aligned patches on the boundary sit strictly inside.
  bounds_ = bounds_.padded(1e-6 * (1.0 + bounds_.extent().length()));

  const int max_depth = std::min(params.max_depth, kMaxDepth);
  int workers = params.workers;
  if (workers <= 0) workers = static_cast<int>(std::thread::hardware_concurrency());
  if (workers < 1) workers = 1;
  // Small builds finish in well under the cost of spawning a thread pool;
  // only the auto setting is gated (an explicit workers request — e.g. the
  // determinism tests — always takes the task-decomposed path).
  constexpr std::size_t kParallelBuildMinItems = 2048;
  if (params.workers <= 0 && patches.size() < kParallelBuildMinItems) workers = 1;
  std::vector<TempNode> temp;
  temp.reserve(patches.size());
  build_temp_root(patches, temp, bounds_, std::move(all), max_depth, params, depth_, workers);

  // Flatten breadth-first: each interior node's non-empty children become one
  // consecutive block, located through the octant bitmask + popcount. BFS
  // order keeps the heavily-traversed upper levels densely packed.
  std::vector<std::int32_t> flat_to_temp;
  flat_to_temp.reserve(temp.size());
  nodes_.reserve(temp.size());
  flat_to_temp.push_back(0);
  nodes_.push_back(Node{temp[0].box, -1, 0});
  for (std::size_t flat = 0; flat < nodes_.size(); ++flat) {
    const TempNode& t = temp[static_cast<std::size_t>(flat_to_temp[flat])];
    if (t.leaf) continue;
    nodes_[flat].first_child = static_cast<std::int32_t>(nodes_.size());
    std::uint8_t mask = 0;
    for (int o = 0; o < 8; ++o) {
      const std::int32_t child = t.children[static_cast<std::size_t>(o)];
      if (child < 0) continue;
      mask = static_cast<std::uint8_t>(mask | (1u << o));
      flat_to_temp.push_back(child);
      nodes_.push_back(Node{temp[static_cast<std::size_t>(child)].box, -1, 0});
    }
    nodes_[flat].child_mask = mask;
  }

  item_offsets_.reserve(nodes_.size() + 1);
  for (std::size_t flat = 0; flat < nodes_.size(); ++flat) {
    item_offsets_.push_back(static_cast<std::uint32_t>(item_ids_.size()));
    const TempNode& t = temp[static_cast<std::size_t>(flat_to_temp[flat])];
    item_ids_.insert(item_ids_.end(), t.items.begin(), t.items.end());
  }
  item_offsets_.push_back(static_cast<std::uint32_t>(item_ids_.size()));

  // SoA leaf blocks: per node, the CSR item list padded up to the kernel lane
  // width (geom/leaf_kernel.hpp). Only the real-item lanes are overwritten;
  // the padding keeps the sentinel constants resize() installed.
  lane_offsets_.reserve(nodes_.size() + 1);
  std::uint32_t lanes = 0;
  for (std::size_t flat = 0; flat < nodes_.size(); ++flat) {
    lane_offsets_.push_back(lanes);
    lanes += padded_lanes(item_offsets_[flat + 1] - item_offsets_[flat]);
  }
  lane_offsets_.push_back(lanes);
  soa_.resize(lanes);
  for (std::size_t flat = 0; flat < nodes_.size(); ++flat) {
    std::uint32_t lane = lane_offsets_[flat];
    for (std::uint32_t i = item_offsets_[flat]; i < item_offsets_[flat + 1]; ++i, ++lane) {
      const std::int32_t pid = item_ids_[i];
      soa_.set_lane(lane, patches[static_cast<std::size_t>(pid)].hit_constants(), pid);
    }
  }
}

template <bool Count>
bool Octree::intersect_impl(const Ray& ray, double tmax, SceneHit& best,
                            TraversalStats* stats) const {
  best.patch = -1;
  best.dist = tmax;
  if (nodes_.empty()) return false;
  double t0 = 0.0, t1 = 0.0;
  if (!nodes_[0].box.hit(ray, tmax, t0, t1)) return false;

  // Octant-XOR front-to-back order: flipping the child index bits on the axes
  // where the ray direction is negative makes ascending visit index a valid
  // front-to-back sequence over axis-aligned octants.
  const unsigned dir_mask = (ray.dir.x < 0.0 ? 1u : 0u) | (ray.dir.y < 0.0 ? 2u : 0u) |
                            (ray.dir.z < 0.0 ? 4u : 0u);

  const RayLanes rl(ray);

  struct Entry {
    std::int32_t node;
    double t_enter;
  };
  std::array<Entry, 8 * (kMaxDepth + 1)> stack;
  int sp = 0;
  stack[0] = {0, t0};
  sp = 1;

  while (sp > 0) {
    const Entry e = stack[static_cast<std::size_t>(--sp)];
    // The best hit may have improved since this node was pushed.
    if (e.t_enter > best.dist) continue;
    const Node& node = nodes_[static_cast<std::size_t>(e.node)];
    if constexpr (Count) ++stats->nodes_visited;

    const std::uint32_t lane_begin = lane_offsets_[static_cast<std::size_t>(e.node)];
    const std::uint32_t lane_end = lane_offsets_[static_cast<std::size_t>(e.node) + 1];
    if constexpr (Count) {
      // Real patch references, not padded lanes — identical on every backend.
      stats->patch_tests += item_offsets_[static_cast<std::size_t>(e.node) + 1] -
                            item_offsets_[static_cast<std::size_t>(e.node)];
    }
    if (lane_begin < lane_end) leaf_closest(soa_, ray, rl, lane_begin, lane_end, best);

    if (node.first_child < 0) continue;
    // Push in reverse visit order so the nearest child pops first. Clipping
    // the slab test to the running best.dist prunes children that start
    // beyond the closest hit found so far.
    for (int k = 7; k >= 0; --k) {
      const unsigned o = static_cast<unsigned>(k) ^ dir_mask;
      if (!(node.child_mask & (1u << o))) continue;
      const std::int32_t child =
          node.first_child +
          std::popcount(static_cast<unsigned>(node.child_mask) & ((1u << o) - 1u));
      double c0 = 0.0, c1 = 0.0;
      if (nodes_[static_cast<std::size_t>(child)].box.hit(ray, best.dist, c0, c1)) {
        stack[static_cast<std::size_t>(sp++)] = {child, c0};
      }
    }
  }
  return best.patch >= 0;
}

bool Octree::intersect(const Ray& ray, double tmax, SceneHit& best) const {
  return intersect_impl<false>(ray, tmax, best, nullptr);
}

bool Octree::intersect_counted(const Ray& ray, double tmax, SceneHit& best,
                               TraversalStats& stats) const {
  return intersect_impl<true>(ray, tmax, best, &stats);
}

std::size_t Octree::memory_bytes() const {
  return nodes_.capacity() * sizeof(Node) +
         item_offsets_.capacity() * sizeof(std::uint32_t) +
         item_ids_.capacity() * sizeof(std::int32_t) +
         lane_offsets_.capacity() * sizeof(std::uint32_t) + soa_.memory_bytes();
}

bool Octree::identical_to(const Octree& other) const {
  if (nodes_.size() != other.nodes_.size() || depth_ != other.depth_) return false;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& a = nodes_[i];
    const Node& b = other.nodes_[i];
    if (a.box.lo != b.box.lo || a.box.hi != b.box.hi || a.first_child != b.first_child ||
        a.child_mask != b.child_mask) {
      return false;
    }
  }
  return item_offsets_ == other.item_offsets_ && item_ids_ == other.item_ids_ &&
         lane_offsets_ == other.lane_offsets_ && soa_ == other.soa_;
}

bool Octree::identical_to(const AccelStructure& other) const {
  const auto* o = dynamic_cast<const Octree*>(&other);
  return o != nullptr && identical_to(*o);
}

}  // namespace photon
