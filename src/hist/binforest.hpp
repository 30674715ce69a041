// The bin forest: one adaptive 4-D histogram per patch *side* plus the
// normalization totals needed to turn tallies into radiance. This is the
// "answer file" of chapter 4 — once saved, any viewpoint can be rendered
// from it without re-simulation (Fig 4.10).
//
// Photon records radiance per geometric side (front = the side the patch
// normal points at), so two-sided surfaces such as the floating mirror keep
// the two hemispheres of exitant light separate.
//
// The forest holds the split policy once for all its trees and passes it to
// each record; a fresh forest is one allocation, the tree array, since an
// unsplit tree keeps its root inline (BinTree).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/spectrum.hpp"
#include "hist/bintree.hpp"

namespace photon {

class BinForest {
 public:
  BinForest() = default;
  explicit BinForest(std::size_t n_patches, SplitPolicy policy = {});

  std::size_t patch_count() const { return trees_.size() / 2; }
  std::size_t tree_count() const { return trees_.size(); }

  // Bytes memory_bytes() reports for a fresh forest of `n_patches`
  // patches, computed without building one.
  static std::uint64_t virgin_bytes(std::size_t n_patches);

  // The split policy every tree records under. A loaded forest takes z and
  // min_count from its records (the rest are defaults), so a run that adopts
  // a loaded forest sets its own policy on it, as a fresh forest would have
  // it.
  const SplitPolicy& policy() const { return policy_; }
  void set_policy(const SplitPolicy& policy) { policy_ = policy; }

  static int tree_index(int patch, bool front) { return 2 * patch + (front ? 0 : 1); }

  BinTree& tree(int patch, bool front) { return trees_[static_cast<std::size_t>(tree_index(patch, front))]; }
  const BinTree& tree(int patch, bool front) const {
    return trees_[static_cast<std::size_t>(tree_index(patch, front))];
  }
  BinTree& tree_at(int idx) { return trees_[static_cast<std::size_t>(idx)]; }
  const BinTree& tree_at(int idx) const { return trees_[static_cast<std::size_t>(idx)]; }

  // Records one reflected (or emitted) photon.
  void record(int patch, bool front, const BinCoords& c, int channel) {
    tree(patch, front).record(c, channel, policy_);
  }

  // Emission bookkeeping: total photons launched per channel and the total
  // luminaire flux they carry. Both are required by the radiance estimator.
  void add_emitted(int channel, std::uint64_t n = 1) {
    emitted_[static_cast<std::size_t>(channel)] += n;
  }
  std::uint64_t emitted(int channel) const { return emitted_[static_cast<std::size_t>(channel)]; }
  std::uint64_t emitted_total() const { return emitted_[0] + emitted_[1] + emitted_[2]; }
  void set_total_power(const Rgb& power) { total_power_ = power; }
  const Rgb& total_power() const { return total_power_; }

  // Exitant radiance estimate at (patch, side, coords) for one channel, given
  // `patch_area` (the estimator is geometry-independent otherwise).
  double radiance(int patch, bool front, const BinCoords& c, int channel,
                  double patch_area) const;

  // Aggregates for the memory experiment (Fig 5.4) and Table 5.1.
  std::uint64_t memory_bytes() const;
  std::uint64_t total_nodes() const;
  std::uint64_t total_leaves() const;
  std::uint64_t total_tally(int channel) const;
  std::uint64_t total_tally_all() const;
  // Per-patch tallies summed over both sides and all channels — the load
  // measure used by the bin-packing balancer.
  std::vector<std::uint64_t> patch_tallies() const;

  // Answer-file (de)serialization: [magic "PHOTONAF"][u64 tree count]
  // [emission counts][total power][each BinTree record]. save appends the
  // file's bytes to `out`, reserving serialized_bytes() once; load parses
  // them from [p, end), advancing `p`, and returns the empty forest
  // (tree_count() == 0) for anything malformed, including records that
  // disagree on z or min_count.
  std::size_t serialized_bytes() const;
  void save(Bytes& out) const;
  static BinForest load(const std::uint8_t*& p, const std::uint8_t* end);
  // Whole-file forms; save is true only when the write and the close both
  // succeeded.
  bool save(const std::string& path) const;
  static bool load(const std::string& path, BinForest& forest);

  // Replaces tree `idx` (used when gathering distributed results).
  void replace_tree(int idx, BinTree&& tree) { trees_[static_cast<std::size_t>(idx)] = std::move(tree); }

  // Binary tree transport for the distributed gather: appends one framed tree
  // ([int32 idx][BinTree bytes]) to `out`, and replaces every framed tree
  // found in `buf`. Frames with an out-of-range index or a z or min_count
  // other than this forest's are rejected (std::runtime_error), as are
  // truncated buffers.
  void append_framed_tree(Bytes& out, int idx) const;
  void replace_framed_trees(const Bytes& buf);

  // Both sides (2p, 2p+1) of every patch p with owner[p] == rank — the
  // distributed backends' per-rank tree selection, shared so the
  // patch-to-tree convention lives in one place.
  //
  // Frames this rank's owned trees for the gather to rank 0:
  Bytes pack_owned_trees(const std::vector<int>& owner, int rank) const;
  // Copies `other`'s owned trees over this forest's — the checkpoint-resume
  // step into a fresh partition. Throws std::invalid_argument when the tree
  // counts differ.
  void copy_owned_trees(const BinForest& other, const std::vector<int>& owner, int rank);

  bool operator==(const BinForest& other) const;

 private:
  std::vector<BinTree> trees_;
  SplitPolicy policy_;
  ChannelCounts emitted_{};
  Rgb total_power_;
};

}  // namespace photon
