#include "geom/octree.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

#include "geom/leaf_kernel_inl.hpp"

namespace photon {

namespace {

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

// A node as the build recursion leaves it, before the breadth-first flatten.
// A node's non-empty children are one block of its arena, in octant order,
// as they will be in the flat array.
struct BuildNode {
  Aabb box;
  std::int32_t first_child = -1;
  std::uint8_t child_mask = 0;   // bit o set when octant o has a child; 0 for a leaf
  std::uint32_t leaf_begin = 0;  // a leaf's items: its arena's leaf_items from here
  std::uint32_t leaf_count = 0;
  std::int32_t task = -1;  // >= 0: a cut node, built as that task's arena root
};

// One build task: a subtree's nodes (its root first) and its leaves' item
// lists. `items` is a stack of item lists: the lists of the nodes on the
// current DFS path, each node's children's lists appended at the tail while
// they are built and truncated after.
struct Arena {
  int depth = 0;  // the root's; its item list starts `items`
  std::vector<BuildNode> nodes;
  UninitVector<std::int32_t> items;
  std::vector<std::int32_t> leaf_items;
  std::vector<std::uint8_t> reached;  // per item of the node being split
  int deepest = 0;
};

// Nodes at this depth become tasks when the build runs parallel: up to 64
// subtrees, enough to balance a few workers.
constexpr int kTaskDepth = 2;
constexpr int kNoCut = -1;

struct Builder {
  std::span<const Aabb> bounds;  // per patch, computed once
  int max_leaf_items;
  int max_depth;
  std::vector<Arena> tasks;

  // Builds node a.nodes[idx], whose box is set, over a.items[begin, end) at
  // `depth`. Each non-empty child's items are its parent's in order, so a
  // stable count-then-scatter split at the arena's tail reproduces them. A
  // node at `cut_depth` is not built here but moved to a new task arena.
  void build(Arena& a, std::int32_t idx, std::size_t begin, std::size_t end, int depth,
             int cut_depth) {
    if (depth == cut_depth) {
      a.nodes[static_cast<std::size_t>(idx)].task = static_cast<std::int32_t>(tasks.size());
      Arena& t = tasks.emplace_back();
      t.depth = depth;
      t.nodes.push_back(BuildNode{a.nodes[static_cast<std::size_t>(idx)].box});
      t.items.assign(a.items.begin() + static_cast<std::ptrdiff_t>(begin),
                     a.items.begin() + static_cast<std::ptrdiff_t>(end));
      return;
    }
    a.deepest = std::max(a.deepest, depth);

    const std::size_t n = end - begin;
    std::array<std::uint32_t, 8> count{};
    std::array<Aabb, 8> tight;
    if (static_cast<int>(n) <= max_leaf_items || depth >= max_depth ||
        !partition(a, a.nodes[static_cast<std::size_t>(idx)].box, begin, end, count, tight)) {
      BuildNode& leaf = a.nodes[static_cast<std::size_t>(idx)];
      leaf.leaf_begin = static_cast<std::uint32_t>(a.leaf_items.size());
      leaf.leaf_count = static_cast<std::uint32_t>(n);
      a.leaf_items.insert(a.leaf_items.end(), a.items.begin() + static_cast<std::ptrdiff_t>(begin),
                          a.items.begin() + static_cast<std::ptrdiff_t>(end));
      return;
    }

    // Scatter into the children's lists, in octant order at the tail.
    const std::size_t base = a.items.size();
    std::array<std::size_t, 8> at{};
    std::size_t total = 0;
    for (std::size_t o = 0; o < 8; ++o) {
      at[o] = base + total;
      total += count[o];
    }
    a.items.resize(base + total);
    for (std::size_t k = 0; k < n; ++k) {
      const std::int32_t item = a.items[begin + k];
      for (unsigned mask = a.reached[k]; mask != 0; mask &= mask - 1) {
        a.items[at[static_cast<std::size_t>(std::countr_zero(mask))]++] = item;
      }
    }

    const auto first = static_cast<std::int32_t>(a.nodes.size());
    std::uint8_t child_mask = 0;
    for (std::size_t o = 0; o < 8; ++o) {
      if (count[o] == 0) continue;
      child_mask = static_cast<std::uint8_t>(child_mask | (1u << o));
      a.nodes.push_back(BuildNode{tight[o]});
    }
    a.nodes[static_cast<std::size_t>(idx)].first_child = first;
    a.nodes[static_cast<std::size_t>(idx)].child_mask = child_mask;
    std::int32_t child = first;
    std::size_t child_begin = base;
    for (std::size_t o = 0; o < 8; ++o) {
      if (count[o] == 0) continue;
      build(a, child++, child_begin, child_begin + count[o], depth + 1, cut_depth);
      child_begin += count[o];
    }
    a.items.resize(base);
  }

  // Counts the items of a.items[begin, end) each octant takes
  // (octants_reached; a patch crossing a midplane is counted in several
  // children — duplicated references, not duplicated geometry) and records
  // each item's octant mask in a.reached. Each child's box is tightened to
  // the union of its items' bounds clipped against the octant, which culls
  // the octant's empty space (walls and furniture leave most of a room
  // empty) and keeps pruning sound: a point p of a patch inside the node's
  // box lies on each axis in a closed half that takes the patch (p < c
  // implies pb.lo < c, p > c implies pb.hi > c, and p == c is in both closed
  // halves), so p is inside the box of a child holding the patch. Returns
  // false when two or more children would each hold every item and the rest
  // none (a large patch spanning the node, or coplanar patches stacked over
  // its centre) — subdividing further only multiplies work. A single child
  // holding every item still subdivides: its box is the tighter one.
  bool partition(Arena& a, const Aabb& box, std::size_t begin, std::size_t end,
                 std::array<std::uint32_t, 8>& count, std::array<Aabb, 8>& tight) const {
    const Vec3 c = box.center();
    std::array<Aabb, 8> octant_boxes;
    for (int o = 0; o < 8; ++o) octant_boxes[static_cast<std::size_t>(o)] = box.octant(o);
    const std::size_t n = end - begin;
    if (a.reached.size() < n) a.reached.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      const Aabb& pb = bounds[static_cast<std::size_t>(a.items[begin + k])];
      const unsigned reached = octants_reached(pb, c);
      a.reached[k] = static_cast<std::uint8_t>(reached);
      for (unsigned mask = reached; mask != 0; mask &= mask - 1) {
        const auto o = static_cast<std::size_t>(std::countr_zero(mask));
        ++count[o];
        tight[o].expand(Aabb{max(pb.lo, octant_boxes[o].lo), min(pb.hi, octant_boxes[o].hi)});
      }
    }
    int holding_all = 0;
    for (const std::uint32_t held : count) {
      if (held == 0) continue;
      if (held < n) return true;
      ++holding_all;
    }
    return holding_all == 1;
  }
};

}  // namespace

void Octree::build(std::span<const Patch> patches, const AccelBuildParams& params) {
  nodes_.clear();
  item_offsets_.clear();
  item_ids_.clear();
  lane_offsets_.clear();
  soa_.clear();
  depth_ = 0;
  bounds_ = Aabb{};
  if (patches.empty()) return;

  const int width = build_width(params, patches.size());
  const std::vector<Aabb> bounds = patch_bounds(patches, width);
  for (const Aabb& b : bounds) bounds_.expand(b);
  // Pad so axis-aligned patches on the boundary sit strictly inside.
  bounds_ = bounds_.padded(1e-6 * (1.0 + bounds_.extent().length()));

  // The top levels build serially into one arena; when the build is
  // parallel, every non-empty node at kTaskDepth is cut, in DFS order, into
  // a task that the same recursion builds into its own arena on the pool.
  // Cut or not, each node is built from the same item list in the same
  // order, so every width yields the same topology.
  Builder builder{bounds, params.max_leaf_items, std::min(params.max_depth, kMaxDepth), {}};
  Arena top;
  top.nodes.push_back(BuildNode{bounds_});
  top.items.resize(patches.size());
  for (std::size_t i = 0; i < patches.size(); ++i) top.items[i] = static_cast<std::int32_t>(i);
  builder.build(top, 0, 0, patches.size(), 0, width > 1 ? kTaskDepth : kNoCut);
  std::vector<Arena>& tasks = builder.tasks;
  run_build_tasks(tasks.size(), width, [&](std::size_t t) {
    Arena& a = tasks[t];
    builder.build(a, 0, 0, a.items.size(), a.depth, kNoCut);
  });

  // Flatten breadth-first straight from the arenas: each interior node's
  // children block becomes one consecutive block of the flat array, located
  // through the octant bitmask + popcount. BFS order keeps the
  // heavily-traversed upper levels densely packed.
  struct Ref {
    const Arena* arena;
    std::int32_t node;
    const BuildNode& get() const { return arena->nodes[static_cast<std::size_t>(node)]; }
  };
  const auto resolve = [&](const Arena& a, std::int32_t node) {
    const std::int32_t task = a.nodes[static_cast<std::size_t>(node)].task;
    return task < 0 ? Ref{&a, node} : Ref{&tasks[static_cast<std::size_t>(task)], 0};
  };
  std::size_t node_total = top.nodes.size() - tasks.size();
  depth_ = top.deepest;
  for (const Arena& a : tasks) {
    node_total += a.nodes.size();
    depth_ = std::max(depth_, a.deepest);
  }
  std::vector<Ref> order;
  order.reserve(node_total);
  nodes_.reserve(node_total);
  order.push_back(Ref{&top, 0});
  nodes_.push_back(Node{bounds_, -1, 0});
  for (std::size_t flat = 0; flat < nodes_.size(); ++flat) {
    const Ref ref = order[flat];
    const BuildNode& t = ref.get();
    if (t.child_mask == 0) continue;
    nodes_[flat].first_child = static_cast<std::int32_t>(nodes_.size());
    nodes_[flat].child_mask = t.child_mask;
    const std::int32_t end = t.first_child + std::popcount(static_cast<unsigned>(t.child_mask));
    for (std::int32_t child = t.first_child; child < end; ++child) {
      order.push_back(resolve(*ref.arena, child));
      nodes_.push_back(Node{order.back().get().box, -1, 0});
    }
  }

  // CSR offsets here; the ids themselves, and the SoA lanes, are written
  // block by block in the leaf pack, copied from the arenas' leaf lists.
  item_offsets_.resize(nodes_.size() + 1);
  std::uint32_t refs = 0;
  for (std::size_t flat = 0; flat < nodes_.size(); ++flat) {
    item_offsets_[flat] = refs;
    refs += order[flat].get().leaf_count;
  }
  item_offsets_[nodes_.size()] = refs;
  item_ids_.resize(refs);
  const auto leaf_items_of = [&](std::size_t flat) {
    return order[flat].arena->leaf_items.data() + order[flat].get().leaf_begin;
  };
  pack_leaves(patches, item_offsets_, leaf_items_of, width, item_ids_, lane_offsets_, soa_);
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
