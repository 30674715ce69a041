// Adaptive 4-D bin tree: one per patch side, forming the "forest of bin
// trees" of Fig 4.6.
//
// Recording a photon descends to the leaf containing its coordinates, updates
// the per-channel tally and the speculative half-counts, and splits the leaf
// when the halves along some axis differ by more than 3 sigma (chapter 3).
// On a split, the lifetime tallies are redistributed to the daughters in the
// observed left/right proportion — the quantity the speculative counts exist
// to provide.
//
// Memory layout: the root node is held inline and only its descendants live
// in an overflow array behind one pointer, so an unsplit tree (nearly every
// tree of a large scene) makes no allocation. The split policy is not stored
// per tree: the forest holds it once and passes it to record(). Node regions
// are derived on descent, and a node keeps only its lower daughter's index
// (BinNode); the serialized record still stores each node in the 76-byte
// layout with its region and both daughters, so the bytes of answer files
// and checkpoints do not depend on this layout.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/bytes.hpp"
#include "core/stats.hpp"
#include "hist/bin.hpp"

namespace photon {

class BinTree {
 public:
  static constexpr std::uint32_t kMaxNodes = 1u << 22;

  // A moved-from tree is a fresh one.
  BinTree() = default;
  BinTree(const BinTree& other);
  BinTree& operator=(const BinTree& other);
  BinTree(BinTree&& other) noexcept;
  BinTree& operator=(BinTree&& other) noexcept;

  // Records one photon under `policy`, splitting only while the tree stays
  // within `max_nodes` nodes; returns the index of the leaf that tallied it
  // (after any split triggered by this photon).
  int record(const BinCoords& c, int channel, const SplitPolicy& policy,
             std::uint32_t max_nodes = kMaxNodes);

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

  const BinNode& node(int i) const { return i == 0 ? root_ : rest_[i - 1]; }
  std::size_t node_count() const { return std::size_t{rest_size_} + 1; }
  // The region of every node, by index: one forward pass from the root's
  // full region (children always follow their parent).
  std::vector<BinRegion> regions() const;
  std::size_t leaf_count() const;
  int depth() const;
  std::uint64_t total_tally(int channel) const;
  std::uint64_t memory_bytes() const;

  // Binary (de)serialization — [u64 node count][policy z][policy min_count]
  // [node records] — appended to / consumed from a byte buffer. A node record
  // is 76 bytes: [region lo, hi][tally][split_n][split_left][left][right]
  // [axis][depth][2 zero bytes]. It is the per-tree record of BinForest
  // answer files (and so of checkpoints), and the distributed gather frames
  // trees the same way.
  static constexpr std::size_t kSerializedHeaderBytes =
      2 * sizeof(std::uint64_t) + sizeof(double);
  static constexpr std::size_t kSerializedNodeBytes = 76;
  std::size_t serialized_bytes() const {
    return kSerializedHeaderBytes + node_count() * kSerializedNodeBytes;
  }
  // Writes `policy`'s z and min_count into the record header.
  void save(Bytes& out, const SplitPolicy& policy) const;
  // Advances `p` past the consumed record and stores the record's z and
  // min_count into `policy`; throws std::runtime_error on a truncated buffer
  // or a malformed node array, including any node whose stored region is not
  // the one its parent's split gives it.
  static BinTree load(const std::uint8_t*& p, const std::uint8_t* end, SplitPolicy& policy);

  bool operator==(const BinTree& other) const;

 private:
  BinNode& at(int i) { return i == 0 ? root_ : rest_[i - 1]; }
  // Index of the leaf containing `c`; narrows `region` (the root's on entry)
  // to that leaf's.
  int descend(const BinCoords& c, BinRegion& region) const;
  bool maybe_split(int leaf, const BinRegion& region, const SplitPolicy& policy,
                   std::uint32_t max_nodes);

  // Node i > 0 is rest_[i - 1]. The array holds std::bit_ceil(rest_size_)
  // nodes, so its capacity needs no field of its own; null before the root's
  // split.
  BinNode root_;
  std::uint32_t rest_size_ = 0;
  std::unique_ptr<BinNode[]> rest_;
};

}  // namespace photon
