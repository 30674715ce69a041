#include "hist/bintree.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace photon {

namespace {
// Axes whose extent has collapsed below this are no longer split candidates.
constexpr float kMinExtent = 1.0f / (1u << 16);
}  // namespace

BinTree::BinTree(SplitPolicy policy, std::uint32_t max_nodes)
    : policy_(policy), max_nodes_(max_nodes) {
  BinNode root;
  root.region = BinRegion::full();
  nodes_.push_back(root);
}

int BinTree::find_leaf(const BinCoords& c) const {
  int idx = 0;
  while (!nodes_[static_cast<std::size_t>(idx)].is_leaf()) {
    const BinNode& n = nodes_[static_cast<std::size_t>(idx)];
    const int half = n.region.half_of(n.axis, c[n.axis]);
    idx = half == 0 ? n.left : n.right;
  }
  return idx;
}

int BinTree::record(const BinCoords& c, int channel) {
  int idx = find_leaf(c);
  BinNode& leaf = nodes_[static_cast<std::size_t>(idx)];
  ++leaf.tally[static_cast<std::size_t>(channel)];
  ++leaf.split_n;
  for (int a = 0; a < kBinDims; ++a) {
    if (leaf.region.half_of(a, c[a]) == 0) ++leaf.split_left[static_cast<std::size_t>(a)];
  }
  maybe_split(idx);
  // The leaf may have split; re-resolve so the caller gets the final bin.
  return nodes_[static_cast<std::size_t>(idx)].is_leaf() ? idx : find_leaf(c);
}

void BinTree::maybe_split(int leaf_idx) {
  if (nodes_.size() + 2 > max_nodes_) return;
  BinNode& leaf = nodes_[static_cast<std::size_t>(leaf_idx)];
  // The == 0 guard matters when min_count is (mis)configured to 0: an empty
  // leaf would otherwise pass every gate and divide 0/0 below.
  if (leaf.split_n == 0 || leaf.split_n < policy_.min_count) return;
  // Evaluate the significance test only when the count doubles (n a power of
  // two): testing after every photon is a sequential test whose cumulative
  // false-positive rate grows without bound; geometric checkpoints keep it
  // at ~log2(n) * 0.3%.
  if ((leaf.split_n & (leaf.split_n - 1)) != 0) return;

  // Choose the axis with the most significant left/right imbalance
  // ("we split where there is the largest gradient").
  int best_axis = -1;
  double best_sig = policy_.z;
  for (int a = 0; a < kBinDims; ++a) {
    if (leaf.region.extent(a) < kMinExtent) continue;
    const double sig = split_significance(leaf.split_n, leaf.split_left[static_cast<std::size_t>(a)]);
    if (sig > best_sig) {
      best_sig = sig;
      best_axis = a;
    }
  }

  // Count-driven refinement (see SplitPolicy::max_leaf_count): a heavily
  // trafficked but balanced leaf still refines so radiance detail can
  // develop. Diffuse radiance only needs planar subdivision (chapter 4), so
  // prefer the wider of the positional axes; fall back to the angular axes
  // when position has collapsed.
  const double count_threshold =
      static_cast<double>(policy_.max_leaf_count) *
      std::pow(policy_.count_growth, std::min<int>(leaf.depth, 40));
  if (best_axis < 0 && static_cast<double>(leaf.split_n) >= count_threshold) {
    const double rel_s = leaf.region.extent(0);
    const double rel_t = leaf.region.extent(1);
    if (rel_s >= kMinExtent || rel_t >= kMinExtent) {
      best_axis = rel_s >= rel_t ? 0 : 1;
    } else {
      const double rel_u = leaf.region.extent(2);
      const double rel_th = leaf.region.extent(3) / static_cast<float>(kTwoPi);
      if (rel_u >= kMinExtent || rel_th >= kMinExtent) {
        best_axis = rel_u >= rel_th ? 2 : 3;
      }
    }
  }
  if (best_axis < 0) return;

  // Split: daughters inherit the lifetime tallies in the observed proportion.
  const double frac_left = static_cast<double>(leaf.split_left[static_cast<std::size_t>(best_axis)]) /
                           static_cast<double>(leaf.split_n);
  BinNode lo, hi;
  lo.region = leaf.region.child(best_axis, 0);
  hi.region = leaf.region.child(best_axis, 1);
  lo.depth = hi.depth =
      static_cast<std::uint8_t>(leaf.depth < 255 ? leaf.depth + 1 : 255);
  for (int ch = 0; ch < 3; ++ch) {
    const auto chi = static_cast<std::size_t>(ch);
    const auto l = static_cast<std::uint32_t>(std::lround(frac_left * leaf.tally[chi]));
    lo.tally[chi] = l;
    hi.tally[chi] = leaf.tally[chi] - l;
  }
  const auto left_idx = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(lo);
  nodes_.push_back(hi);
  // `leaf` reference may be dangling after push_back; reindex.
  BinNode& parent = nodes_[static_cast<std::size_t>(leaf_idx)];
  parent.left = left_idx;
  parent.right = left_idx + 1;
  parent.axis = static_cast<std::int8_t>(best_axis);
}

BinTree::Estimate BinTree::count_estimate(const BinCoords& c, int channel) const {
  const int idx = find_leaf(c);
  const BinNode& leaf = nodes_[static_cast<std::size_t>(idx)];
  return {static_cast<double>(leaf.tally[static_cast<std::size_t>(channel)]),
          leaf.region.measure()};
}

std::size_t BinTree::leaf_count() const {
  std::size_t n = 0;
  for (const BinNode& node : nodes_) {
    if (node.is_leaf()) ++n;
  }
  return n;
}

int BinTree::depth() const {
  // Iterative depth: walk nodes with an explicit stack of (index, depth).
  int max_depth = 0;
  std::vector<std::pair<int, int>> stack{{0, 0}};
  while (!stack.empty()) {
    const auto [idx, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    const BinNode& n = nodes_[static_cast<std::size_t>(idx)];
    if (!n.is_leaf()) {
      stack.push_back({n.left, d + 1});
      stack.push_back({n.right, d + 1});
    }
  }
  return max_depth;
}

std::uint64_t BinTree::total_tally(int channel) const {
  // Tallies at leaves are authoritative (splits redistribute, conserving
  // counts up to rounding).
  std::uint64_t sum = 0;
  for (const BinNode& node : nodes_) {
    if (node.is_leaf()) sum += node.tally[static_cast<std::size_t>(channel)];
  }
  return sum;
}

std::uint64_t BinTree::memory_bytes() const {
  return nodes_.capacity() * sizeof(BinNode) + sizeof(BinTree);
}

namespace {

// Structural sanity of a deserialized node array: children must point
// strictly forward (construction appends daughters after their parent, so
// this also guarantees acyclicity — every traversal terminates), interior
// nodes need a valid split axis, leaves must have no dangling child.
bool nodes_are_sane(const std::vector<BinNode>& nodes) {
  if (nodes.empty()) return false;
  const auto n = static_cast<std::int32_t>(nodes.size());
  for (std::int32_t i = 0; i < n; ++i) {
    const BinNode& node = nodes[static_cast<std::size_t>(i)];
    if (node.is_leaf()) {
      if (node.right >= 0) return false;
    } else {
      if (node.left <= i || node.left >= n || node.right <= i || node.right >= n) return false;
      if (node.axis < 0 || node.axis >= kBinDims) return false;
    }
  }
  return true;
}

}  // namespace

void BinTree::save(Bytes& out) const {
  put_raw<std::uint64_t>(out, nodes_.size());
  put_raw(out, policy_.z);
  put_raw(out, policy_.min_count);
  put_bytes(out, nodes_.data(), nodes_.size() * sizeof(BinNode));
}

BinTree BinTree::load(const std::uint8_t*& p, const std::uint8_t* end) {
  BinTree tree;
  std::uint64_t n = 0;
  // The count is untrusted: bounding it by the bytes actually present keeps
  // a corrupt value from forcing an allocation the buffer cannot back.
  if (!get_raw(p, end, n) || !get_raw(p, end, tree.policy_.z) ||
      !get_raw(p, end, tree.policy_.min_count) || n == 0 ||
      n > static_cast<std::size_t>(end - p) / sizeof(BinNode)) {
    throw std::runtime_error("BinTree: truncated byte buffer");
  }
  tree.nodes_.resize(n);
  std::memcpy(tree.nodes_.data(), p, n * sizeof(BinNode));
  p += n * sizeof(BinNode);
  if (!nodes_are_sane(tree.nodes_)) {
    throw std::runtime_error("BinTree: corrupt node array");
  }
  return tree;
}

namespace {

// Integer share of `c` proportional to `f`, never exceeding `c`.
std::uint32_t apportion(std::uint32_t c, double f) {
  const auto share = static_cast<std::uint32_t>(std::llround(f * static_cast<double>(c)));
  return share > c ? c : share;
}

}  // namespace

void BinTree::merge(const BinTree& other) {
  const BinNode& root = nodes_[0];
  if (nodes_.size() == 1 && root.split_n == 0 && root.total_tally() == 0) {
    // Virgin tree: adopt the other structure wholesale (the checkpoint-into-
    // fresh-partition case must be lossless).
    nodes_ = other.nodes_;
    return;
  }
  for (const BinNode& node : other.nodes_) {
    if (!node.is_leaf()) continue;
    if (node.total_tally() == 0 && node.split_n == 0) continue;
    deposit(node.region, node);
  }
}

void BinTree::deposit(const BinRegion& region, const BinNode& counts) {
  struct Item {
    int idx;
    BinRegion r;
    BinNode c;  // only the count fields are read
  };
  std::vector<Item> stack{{0, region, counts}};
  while (!stack.empty()) {
    Item item = std::move(stack.back());
    stack.pop_back();
    BinNode& n = nodes_[static_cast<std::size_t>(item.idx)];
    if (n.is_leaf()) {
      for (std::size_t ch = 0; ch < n.tally.size(); ++ch) n.tally[ch] += item.c.tally[ch];
      n.split_n += item.c.split_n;
      for (std::size_t a = 0; a < n.split_left.size(); ++a) {
        n.split_left[a] = std::min(n.split_left[a] + item.c.split_left[a], n.split_n);
      }
      continue;
    }
    const int axis = n.axis;
    const auto ai = static_cast<std::size_t>(axis);
    const double mid = n.region.mid(axis);
    const double lo = item.r.lo[ai], hi = item.r.hi[ai];
    const double extent = hi - lo;
    // Fraction of the deposited region in the lower daughter along the node's
    // split axis.
    const double f = extent <= 0.0 ? (lo < mid ? 1.0 : 0.0)
                                   : std::clamp((mid - lo) / extent, 0.0, 1.0);
    if (f >= 1.0) {
      item.idx = n.left;
      stack.push_back(std::move(item));
      continue;
    }
    if (f <= 0.0) {
      item.idx = n.right;
      stack.push_back(std::move(item));
      continue;
    }
    // The region straddles the split: apportion every counter by overlap,
    // remainder to the right daughter, and clip the region at the midplane.
    BinNode cl{}, cr{};
    for (std::size_t ch = 0; ch < item.c.tally.size(); ++ch) {
      cl.tally[ch] = apportion(item.c.tally[ch], f);
      cr.tally[ch] = item.c.tally[ch] - cl.tally[ch];
    }
    cl.split_n = apportion(item.c.split_n, f);
    cr.split_n = item.c.split_n - cl.split_n;
    for (std::size_t a = 0; a < item.c.split_left.size(); ++a) {
      cl.split_left[a] = std::min(apportion(item.c.split_left[a], f), cl.split_n);
      cr.split_left[a] = std::min(item.c.split_left[a] - cl.split_left[a], cr.split_n);
    }
    BinRegion rl = item.r, rr = item.r;
    rl.hi[ai] = static_cast<float>(mid);
    rr.lo[ai] = static_cast<float>(mid);
    if (cl.total_tally() > 0 || cl.split_n > 0) stack.push_back({n.left, rl, cl});
    if (cr.total_tally() > 0 || cr.split_n > 0) stack.push_back({n.right, rr, cr});
  }
}

bool BinTree::operator==(const BinTree& other) const {
  if (nodes_.size() != other.nodes_.size()) return false;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const BinNode& a = nodes_[i];
    const BinNode& b = other.nodes_[i];
    if (a.tally != b.tally || a.left != b.left || a.right != b.right || a.axis != b.axis ||
        a.split_n != b.split_n || a.split_left != b.split_left ||
        a.region.lo != b.region.lo || a.region.hi != b.region.hi) {
      return false;
    }
  }
  return true;
}

}  // namespace photon
