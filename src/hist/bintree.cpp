#include "hist/bintree.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace photon {

namespace {
// Axes whose extent has collapsed below this are no longer split candidates.
constexpr float kMinExtent = 1.0f / (1u << 16);

// The serialized node: every field of the node plus the region it covers,
// with the two trailing bytes zeroed.
struct NodeRecord {
  BinRegion region;
  std::array<std::uint32_t, 3> tally;
  std::uint32_t split_n;
  std::array<std::uint32_t, kBinDims> split_left;
  std::int32_t left;
  std::int32_t right;
  std::int8_t axis;
  std::uint8_t depth;
  std::uint8_t pad[2];
};
static_assert(sizeof(NodeRecord) == BinTree::kSerializedNodeBytes);

// The daughter regions of `r` split along `axis` at `split`.
BinRegion lower(BinRegion r, int axis, float split) {
  r.hi[static_cast<std::size_t>(axis)] = split;
  return r;
}
BinRegion upper(BinRegion r, int axis, float split) {
  r.lo[static_cast<std::size_t>(axis)] = split;
  return r;
}

bool same_region(const BinRegion& a, const std::uint8_t* stored) {
  return std::memcmp(&a, stored, sizeof(BinRegion)) == 0;
}
}  // namespace

BinTree::BinTree(const BinTree& other) : root_(other.root_), rest_size_(other.rest_size_) {
  if (rest_size_ == 0) return;
  rest_ = std::make_unique<BinNode[]>(std::bit_ceil(rest_size_));
  std::copy_n(other.rest_.get(), rest_size_, rest_.get());
}

BinTree& BinTree::operator=(const BinTree& other) {
  if (this != &other) *this = BinTree(other);
  return *this;
}

BinTree::BinTree(BinTree&& other) noexcept
    : root_(std::exchange(other.root_, BinNode{})),
      rest_size_(std::exchange(other.rest_size_, 0u)),
      rest_(std::move(other.rest_)) {}

BinTree& BinTree::operator=(BinTree&& other) noexcept {
  root_ = std::exchange(other.root_, BinNode{});
  rest_size_ = std::exchange(other.rest_size_, 0u);
  rest_ = std::move(other.rest_);
  return *this;
}

int BinTree::descend(const BinCoords& c, BinRegion& region) const {
  if (root_.is_leaf()) return 0;
  const BinNode* const rest = rest_.get();
  int idx = 0;
  const BinNode* n = &root_;
  do {
    if (c[n->axis] < n->split) {
      region.hi[static_cast<std::size_t>(n->axis)] = n->split;
      idx = n->left;
    } else {
      region.lo[static_cast<std::size_t>(n->axis)] = n->split;
      idx = n->left + 1;
    }
    n = &rest[idx - 1];
  } while (!n->is_leaf());
  return idx;
}

int BinTree::find_leaf(const BinCoords& c) const {
  BinRegion region = BinRegion::full();
  return descend(c, region);
}

int BinTree::record(const BinCoords& c, int channel, const SplitPolicy& policy,
                    std::uint32_t max_nodes) {
  BinRegion region = BinRegion::full();
  const int idx = descend(c, region);
  BinNode& leaf = at(idx);
  ++leaf.tally[static_cast<std::size_t>(channel)];
  ++leaf.split_n;
  for (int a = 0; a < kBinDims; ++a) {
    if (region.half_of(a, c[a]) == 0) ++leaf.split_left[static_cast<std::size_t>(a)];
  }
  if (!maybe_split(idx, region, policy, max_nodes)) return idx;
  // The leaf split; the caller gets the daughter holding `c`.
  const BinNode& parent = node(idx);
  return c[parent.axis] < parent.split ? parent.left : parent.right();
}

bool BinTree::maybe_split(int leaf_idx, const BinRegion& region, const SplitPolicy& policy,
                          std::uint32_t max_nodes) {
  if (node_count() + 2 > max_nodes) return false;
  BinNode& leaf = at(leaf_idx);
  // The == 0 guard matters when min_count is (mis)configured to 0: an empty
  // leaf would otherwise pass every gate and divide 0/0 below.
  if (leaf.split_n == 0 || leaf.split_n < policy.min_count) return false;
  // Evaluate the significance test only when the count doubles (n a power of
  // two): testing after every photon is a sequential test whose cumulative
  // false-positive rate grows without bound; geometric checkpoints keep it
  // at ~log2(n) * 0.3%.
  if ((leaf.split_n & (leaf.split_n - 1)) != 0) return false;

  // Choose the axis with the most significant left/right imbalance
  // ("we split where there is the largest gradient").
  int best_axis = -1;
  double best_sig = policy.z;
  for (int a = 0; a < kBinDims; ++a) {
    if (region.extent(a) < kMinExtent) continue;
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
      static_cast<double>(policy.max_leaf_count) *
      std::pow(policy.count_growth, std::min<int>(leaf.depth, 40));
  if (best_axis < 0 && static_cast<double>(leaf.split_n) >= count_threshold) {
    const double rel_s = region.extent(0);
    const double rel_t = region.extent(1);
    if (rel_s >= kMinExtent || rel_t >= kMinExtent) {
      best_axis = rel_s >= rel_t ? 0 : 1;
    } else {
      const double rel_u = region.extent(2);
      const double rel_th = region.extent(3) / static_cast<float>(kTwoPi);
      if (rel_u >= kMinExtent || rel_th >= kMinExtent) {
        best_axis = rel_u >= rel_th ? 2 : 3;
      }
    }
  }
  if (best_axis < 0) return false;

  // Split: daughters inherit the lifetime tallies in the observed proportion.
  const double frac_left = static_cast<double>(leaf.split_left[static_cast<std::size_t>(best_axis)]) /
                           static_cast<double>(leaf.split_n);
  BinNode lo, hi;
  lo.depth = hi.depth =
      static_cast<std::uint8_t>(leaf.depth < 255 ? leaf.depth + 1 : 255);
  for (int ch = 0; ch < 3; ++ch) {
    const auto chi = static_cast<std::size_t>(ch);
    const auto l = static_cast<std::uint32_t>(std::lround(frac_left * leaf.tally[chi]));
    lo.tally[chi] = l;
    hi.tally[chi] = leaf.tally[chi] - l;
  }
  // Link the parent before the array below grows, which may move it.
  leaf.left = static_cast<std::int32_t>(node_count());
  leaf.axis = static_cast<std::int8_t>(best_axis);
  leaf.split = region.mid(best_axis);
  if (rest_size_ + 2 > std::bit_ceil(rest_size_)) {
    auto grown = std::make_unique<BinNode[]>(std::bit_ceil(rest_size_ + 2));
    std::copy_n(rest_.get(), rest_size_, grown.get());
    rest_ = std::move(grown);
  }
  rest_[rest_size_] = lo;
  rest_[rest_size_ + 1] = hi;
  rest_size_ += 2;
  return true;
}

BinTree::Estimate BinTree::count_estimate(const BinCoords& c, int channel) const {
  BinRegion region = BinRegion::full();
  const BinNode& leaf = node(descend(c, region));
  return {static_cast<double>(leaf.tally[static_cast<std::size_t>(channel)]), region.measure()};
}

std::vector<BinRegion> BinTree::regions() const {
  std::vector<BinRegion> out(node_count());
  out[0] = BinRegion::full();
  for (std::size_t i = 0; i < out.size(); ++i) {
    const BinNode& n = node(static_cast<int>(i));
    if (n.is_leaf()) continue;
    out[static_cast<std::size_t>(n.left)] = lower(out[i], n.axis, n.split);
    out[static_cast<std::size_t>(n.right())] = upper(out[i], n.axis, n.split);
  }
  return out;
}

std::size_t BinTree::leaf_count() const {
  // A binary tree of n nodes has (n + 1) / 2 leaves.
  return (node_count() + 1) / 2;
}

int BinTree::depth() const {
  // Iterative depth: walk nodes with an explicit stack of (index, depth).
  int max_depth = 0;
  std::vector<std::pair<int, int>> stack{{0, 0}};
  while (!stack.empty()) {
    const auto [idx, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    const BinNode& n = node(idx);
    if (!n.is_leaf()) {
      stack.push_back({n.left, d + 1});
      stack.push_back({n.right(), d + 1});
    }
  }
  return max_depth;
}

std::uint64_t BinTree::total_tally(int channel) const {
  // Tallies at leaves are authoritative (splits redistribute, conserving
  // counts up to rounding).
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < node_count(); ++i) {
    const BinNode& n = node(static_cast<int>(i));
    if (n.is_leaf()) sum += n.tally[static_cast<std::size_t>(channel)];
  }
  return sum;
}

std::uint64_t BinTree::memory_bytes() const {
  return sizeof(BinTree) + (rest_ ? std::bit_ceil(rest_size_) * sizeof(BinNode) : 0);
}

// Fills the record slots in index order. Each slot's region is written by its
// parent's iteration (the root's up front) before the loop reaches it.
void BinTree::save(Bytes& out, const SplitPolicy& policy) const {
  const std::size_t start = out.size();
  out.resize(start + serialized_bytes());
  std::uint8_t* w = out.data() + start;
  const std::uint64_t n = node_count();
  std::memcpy(w, &n, sizeof(n));
  std::memcpy(w + sizeof(n), &policy.z, sizeof(policy.z));
  std::memcpy(w + sizeof(n) + sizeof(policy.z), &policy.min_count, sizeof(policy.min_count));
  std::uint8_t* const records = w + kSerializedHeaderBytes;
  const BinRegion full = BinRegion::full();
  std::memcpy(records, &full, sizeof(full));
  for (std::size_t i = 0; i < n; ++i) {
    const BinNode& src = node(static_cast<int>(i));
    NodeRecord r{};
    std::memcpy(&r.region, records + i * sizeof(NodeRecord), sizeof(r.region));
    r.tally = src.tally;
    r.split_n = src.split_n;
    r.split_left = src.split_left;
    r.left = src.left;
    r.right = src.right();
    r.axis = src.axis;
    r.depth = src.depth;
    std::memcpy(records + i * sizeof(NodeRecord), &r, sizeof(r));
    if (src.is_leaf()) continue;
    const BinRegion lo = lower(r.region, src.axis, src.split);
    const BinRegion hi = upper(r.region, src.axis, src.split);
    std::memcpy(records + static_cast<std::size_t>(src.left) * sizeof(NodeRecord), &lo, sizeof(lo));
    std::memcpy(records + static_cast<std::size_t>(src.right()) * sizeof(NodeRecord), &hi, sizeof(hi));
  }
}

// Structural checks on the untrusted records: children point strictly
// forward (construction appends daughters after their parent, so every
// traversal terminates) and are adjacent (right == left + 1, as a split
// appends them), each non-root node is the child of exactly one earlier node,
// interior nodes have a valid split axis, leaves have no child, and every
// stored region equals the one the splits above it give (the root's is the
// full domain).
BinTree BinTree::load(const std::uint8_t*& p, const std::uint8_t* end, SplitPolicy& policy) {
  std::uint64_t n = 0;
  // The count is untrusted: bounding it by the bytes actually present keeps
  // a corrupt value from forcing an allocation the buffer cannot back.
  if (!get_raw(p, end, n) || !get_raw(p, end, policy.z) || !get_raw(p, end, policy.min_count) ||
      n == 0 || n > static_cast<std::size_t>(end - p) / sizeof(NodeRecord)) {
    throw std::runtime_error("BinTree: truncated byte buffer");
  }
  const std::uint8_t* const records = p;
  p += n * sizeof(NodeRecord);

  const auto corrupt = [] { return std::runtime_error("BinTree: corrupt node array"); };
  BinTree tree;
  if (n > 1) {
    tree.rest_size_ = static_cast<std::uint32_t>(n - 1);
    tree.rest_ = std::make_unique<BinNode[]>(std::bit_ceil(tree.rest_size_));
  }
  std::vector<bool> reached(n > 1 ? static_cast<std::size_t>(n) : 0);  // unsplit: no allocation
  const auto count = static_cast<std::int64_t>(n);
  for (std::int64_t i = 0; i < count; ++i) {
    const std::uint8_t* const slot = records + static_cast<std::size_t>(i) * sizeof(NodeRecord);
    NodeRecord r;
    std::memcpy(&r, slot, sizeof(r));
    if (i == 0 ? !same_region(BinRegion::full(), slot) : !reached[static_cast<std::size_t>(i)]) {
      throw corrupt();
    }
    BinNode& dst = tree.at(static_cast<int>(i));
    dst.tally = r.tally;
    dst.split_n = r.split_n;
    dst.split_left = r.split_left;
    dst.left = r.left;
    dst.axis = r.axis;
    dst.depth = r.depth;
    if (dst.is_leaf()) {
      if (r.right != -1) throw corrupt();
      continue;
    }
    if (r.left <= i || r.right != r.left + 1 || r.right >= count || r.axis < 0 ||
        r.axis >= kBinDims) {
      throw corrupt();
    }
    dst.split = r.region.mid(r.axis);
    const auto l = static_cast<std::size_t>(r.left);
    const auto h = static_cast<std::size_t>(r.right);
    if (reached[l] || !same_region(lower(r.region, r.axis, dst.split), records + l * sizeof(NodeRecord))) {
      throw corrupt();
    }
    reached[l] = true;
    if (reached[h] || !same_region(upper(r.region, r.axis, dst.split), records + h * sizeof(NodeRecord))) {
      throw corrupt();
    }
    reached[h] = true;
  }
  return tree;
}

bool BinTree::operator==(const BinTree& other) const {
  if (node_count() != other.node_count()) return false;
  for (std::size_t i = 0; i < node_count(); ++i) {
    const BinNode& a = node(static_cast<int>(i));
    const BinNode& b = other.node(static_cast<int>(i));
    if (a.tally != b.tally || a.left != b.left || a.axis != b.axis ||
        a.split_n != b.split_n || a.split_left != b.split_left || a.split != b.split) {
      return false;
    }
  }
  return true;
}

}  // namespace photon
