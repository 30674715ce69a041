#include "hist/binforest.hpp"

#include <stdexcept>

namespace photon {

namespace {
constexpr std::uint64_t kAnswerMagic = 0x50484F544F4E4146ULL;  // "PHOTONAF"
constexpr std::size_t kAnswerHeaderBytes =
    2 * sizeof(std::uint64_t) + sizeof(ChannelCounts) + sizeof(Rgb);
constexpr std::uint64_t kMaxTrees = 1ULL << 24;
// A tree record holds at least its header and one node.
constexpr std::size_t kMinTreeBytes = BinTree::kSerializedHeaderBytes + sizeof(BinNode);
}  // namespace

BinForest::BinForest(std::size_t n_patches, SplitPolicy policy) {
  trees_.reserve(n_patches * 2);
  for (std::size_t i = 0; i < n_patches * 2; ++i) trees_.emplace_back(policy);
}

double BinForest::radiance(int patch, bool front, const BinCoords& c, int channel,
                           double patch_area) const {
  const std::uint64_t n_c = emitted(channel);
  if (n_c == 0 || patch_area <= 0.0) return 0.0;
  const BinTree::Estimate est = tree(patch, front).count_estimate(c, channel);
  if (est.measure <= 0.0) return 0.0;
  // Each photon of channel ch carries Phi_ch / N_ch of flux. A bin covers
  // area A * ds * dt and projected solid angle (du * dtheta) / 2, hence
  //   L = (count / N) * Phi * 2 / (A * measure).
  const double phi = total_power_[channel];
  return 2.0 * est.count * phi /
         (static_cast<double>(n_c) * patch_area * est.measure);
}

std::uint64_t BinForest::memory_bytes() const {
  std::uint64_t total = sizeof(BinForest);
  for (const BinTree& t : trees_) total += t.memory_bytes();
  return total;
}

std::uint64_t BinForest::total_nodes() const {
  std::uint64_t total = 0;
  for (const BinTree& t : trees_) total += t.node_count();
  return total;
}

std::uint64_t BinForest::total_leaves() const {
  std::uint64_t total = 0;
  for (const BinTree& t : trees_) total += t.leaf_count();
  return total;
}

std::uint64_t BinForest::total_tally(int channel) const {
  std::uint64_t total = 0;
  for (const BinTree& t : trees_) total += t.total_tally(channel);
  return total;
}

std::uint64_t BinForest::total_tally_all() const {
  return total_tally(0) + total_tally(1) + total_tally(2);
}

std::vector<std::uint64_t> BinForest::patch_tallies() const {
  std::vector<std::uint64_t> out(patch_count(), 0);
  for (std::size_t p = 0; p < patch_count(); ++p) {
    for (int side = 0; side < 2; ++side) {
      const BinTree& t = trees_[2 * p + static_cast<std::size_t>(side)];
      for (int ch = 0; ch < 3; ++ch) out[p] += t.total_tally(ch);
    }
  }
  return out;
}

std::size_t BinForest::serialized_bytes() const {
  std::size_t n = kAnswerHeaderBytes;
  for (const BinTree& t : trees_) n += t.serialized_bytes();
  return n;
}

void BinForest::save(Bytes& out) const {
  out.reserve(out.size() + serialized_bytes());
  put_raw(out, kAnswerMagic);
  put_raw<std::uint64_t>(out, trees_.size());
  put_raw(out, emitted_);
  put_raw(out, total_power_);
  for (const BinTree& t : trees_) t.save(out);
}

bool BinForest::save(const std::string& path) const {
  Bytes bytes;
  save(bytes);
  return write_file(path, bytes);
}

BinForest BinForest::load(const std::uint8_t*& p, const std::uint8_t* end) {
  BinForest forest;
  std::uint64_t magic = 0, n = 0;
  // Cap the tree count (two trees per patch; 2^24 exceeds any bundled or
  // plausible scene) and by the smallest records the remaining bytes could
  // hold, so the reserve below is backed by real input.
  if (!get_raw(p, end, magic) || magic != kAnswerMagic || !get_raw(p, end, n) ||
      !get_raw(p, end, forest.emitted_) || !get_raw(p, end, forest.total_power_) ||
      n > kMaxTrees || n > static_cast<std::size_t>(end - p) / kMinTreeBytes) {
    return BinForest{};
  }
  forest.trees_.reserve(static_cast<std::size_t>(n));
  try {
    for (std::uint64_t i = 0; i < n; ++i) forest.trees_.push_back(BinTree::load(p, end));
  } catch (const std::runtime_error&) {
    return BinForest{};
  }
  return forest;
}

bool BinForest::load(const std::string& path, BinForest& forest) {
  Bytes bytes;
  if (!read_file(path, bytes)) return false;
  const std::uint8_t* p = bytes.data();
  forest = load(p, p + bytes.size());
  return forest.tree_count() > 0;
}

void BinForest::append_framed_tree(Bytes& out, int idx) const {
  put_raw(out, static_cast<std::int32_t>(idx));
  trees_[static_cast<std::size_t>(idx)].save(out);
}

void BinForest::replace_framed_trees(const Bytes& buf) {
  const std::uint8_t* p = buf.data();
  const std::uint8_t* const end = p + buf.size();
  while (p != end) {
    std::int32_t idx = 0;
    if (!get_raw(p, end, idx)) throw std::runtime_error("BinForest: truncated tree frame");
    if (idx < 0 || static_cast<std::size_t>(idx) >= trees_.size()) {
      throw std::runtime_error("BinForest: tree frame index out of range");
    }
    trees_[static_cast<std::size_t>(idx)] = BinTree::load(p, end);
  }
}

Bytes BinForest::pack_owned_trees(const std::vector<int>& owner, int rank) const {
  Bytes out;
  for (std::size_t p = 0; p < patch_count(); ++p) {
    if (owner[p] != rank) continue;
    for (int side = 0; side < 2; ++side) {
      append_framed_tree(out, static_cast<int>(2 * p) + side);
    }
  }
  return out;
}

void BinForest::merge_owned_trees(const BinForest& other, const std::vector<int>& owner,
                                  int rank) {
  if (trees_.size() != other.trees_.size()) {
    throw std::invalid_argument("BinForest::merge_owned_trees: tree counts differ");
  }
  for (std::size_t p = 0; p < patch_count(); ++p) {
    if (owner[p] != rank) continue;
    for (int side = 0; side < 2; ++side) {
      const int idx = static_cast<int>(2 * p) + side;
      trees_[static_cast<std::size_t>(idx)].merge(other.tree_at(idx));
    }
  }
}

void BinForest::merge(const BinForest& other) {
  if (trees_.size() != other.trees_.size()) {
    throw std::invalid_argument("BinForest::merge: tree counts differ");
  }
  for (std::size_t i = 0; i < trees_.size(); ++i) trees_[i].merge(other.trees_[i]);
  for (std::size_t c = 0; c < emitted_.size(); ++c) emitted_[c] += other.emitted_[c];
  if (total_power_.r == 0.0 && total_power_.g == 0.0 && total_power_.b == 0.0) {
    total_power_ = other.total_power_;
  }
}

bool BinForest::operator==(const BinForest& other) const {
  if (trees_.size() != other.trees_.size() || emitted_ != other.emitted_) return false;
  for (std::size_t i = 0; i < trees_.size(); ++i) {
    if (!(trees_[i] == other.trees_[i])) return false;
  }
  return true;
}

}  // namespace photon
