// Adaptive 4-D bin tree: one per patch side, forming the "forest of bin
// trees" of Fig 4.6.
//
// Recording a photon descends to the leaf containing its coordinates, updates
// the per-channel tally and the speculative half-counts, and splits the leaf
// when the halves along some axis differ by more than 3 sigma (chapter 3).
// On a split, the lifetime tallies are redistributed to the daughters in the
// observed left/right proportion — the quantity the speculative counts exist
// to provide.
#pragma once

#include <cstdint>
#include <vector>

#include "core/bytes.hpp"
#include "core/stats.hpp"
#include "hist/bin.hpp"

namespace photon {

class BinTree {
 public:
  explicit BinTree(SplitPolicy policy = {}, std::uint32_t max_nodes = 1u << 22);

  // Records one photon; returns the index of the leaf that tallied it (after
  // any split triggered by this photon).
  int record(const BinCoords& c, int channel);

  // Leaf lookup without modification (the viewing stage's DetermineBin).
  int find_leaf(const BinCoords& c) const;

  // Estimated photon count of channel `channel` in the leaf containing `c`,
  // together with that leaf's 4-volume. Radiance follows as
  //   L = 2 * count * Phi_c / (N_c * A_patch * measure).
  struct Estimate {
    double count = 0.0;
    double measure = 1.0;
  };
  Estimate count_estimate(const BinCoords& c, int channel) const;

  const BinNode& node(int i) const { return nodes_[static_cast<std::size_t>(i)]; }
  const std::vector<BinNode>& nodes() const { return nodes_; }
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t leaf_count() const;
  int depth() const;
  std::uint64_t total_tally(int channel) const;
  std::uint64_t memory_bytes() const;

  const SplitPolicy& policy() const { return policy_; }

  // Binary (de)serialization — [u64 node count][policy z][policy min_count]
  // [raw node array] — appended to / consumed from a byte buffer. It is the
  // per-tree record of BinForest answer files (and so of checkpoints), and the
  // distributed gather frames trees the same way.
  static constexpr std::size_t kSerializedHeaderBytes =
      2 * sizeof(std::uint64_t) + sizeof(double);
  std::size_t serialized_bytes() const {
    return kSerializedHeaderBytes + nodes_.size() * sizeof(BinNode);
  }
  void save(Bytes& out) const;
  // Advances `p` past the consumed record; throws std::runtime_error on a
  // truncated buffer or a malformed node array.
  static BinTree load(const std::uint8_t*& p, const std::uint8_t* end);

  // Additive fold of `other` into this tree (the distributed-resume
  // primitive). Every tally of `other` is conserved: each of other's leaves
  // is deposited into this tree's structure, splitting counts between
  // daughters in proportion to region overlap when other's leaf straddles one
  // of our splits (integer apportioning, remainder to the right daughter).
  // Speculative split counters fold the same way, so a merged leaf keeps
  // refining with the combined evidence. As a special case, merging into a
  // virgin tree (a single untouched root leaf) adopts `other`'s structure
  // wholesale — a checkpoint folded into a fresh partitioned forest loses
  // nothing. This tree's structure is otherwise preserved (merge never
  // splits).
  void merge(const BinTree& other);

  bool operator==(const BinTree& other) const;

 private:
  void maybe_split(int leaf);
  void deposit(const BinRegion& region, const BinNode& counts);

  std::vector<BinNode> nodes_;
  SplitPolicy policy_;
  std::uint32_t max_nodes_;
};

}  // namespace photon
