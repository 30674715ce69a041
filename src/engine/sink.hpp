// The record sink of the particle engine (par/hybrid.hpp) at every shape.
//
// OrderedRouterSink holds owned records per window and applies one window
// atomically in source-rank order: rank 0's slice, rank 1's slice, … (its
// own held slice in place of incoming[rank]). When ranks trace contiguous id
// slices in ascending order, that is global photon-id order — the order the
// serial reference tallies in — whatever the window size or shape. (The
// spatial decomposition keys its records instead, par/spatial.cpp: its
// photons finish out of id order.)
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "engine/wire.hpp"
#include "hist/binforest.hpp"
#include "sim/tracer.hpp"

namespace photon {

class OrderedRouterSink final : public BinSink {
 public:
  OrderedRouterSink(BinForest& forest, const std::vector<int>& owner, int rank,
                    WireBuffer& wire)
      : forest_(&forest), owner_(&owner), rank_(rank), wire_(&wire) {}

  // Owned records are held for apply_batch; foreign records serialize in
  // place into the outgoing wire (one copy, straight into the bytes the
  // exchange will send).
  void record(const BounceRecord& rec) override {
    const int owner_rank = (*owner_)[static_cast<std::size_t>(rec.patch)];
    if (owner_rank == rank_) {
      held_.push_back(rec);
    } else {
      wire_->append(owner_rank, to_wire(rec));
    }
  }

  // Surrenders the records held since the last take (the WireBuffer::take
  // idiom): window k's held slice stays applicable while window k+1 records
  // into the same sink.
  std::vector<BounceRecord> take_held() { return std::move(held_); }

  // Applies part `part` of `parts` of one window in canonical source order:
  // for each source rank s, incoming[s]'s records — except s == rank, whose
  // slot is `held`, this rank's own records for the window as runs in
  // ascending id order (the take_held slice, or the chunk buffers when
  // nothing was routed). incoming[rank] is ignored; incoming may be empty
  // when no other rank exists. A part applies only the records of patches
  // with patch % parts == part, so the `parts` parts touch disjoint trees
  // and may run concurrently; every tree still sees its records in the
  // canonical order. Returns the records this part applied.
  std::uint64_t apply_batch(std::span<const std::vector<BounceRecord>> held,
                            const std::vector<Bytes>& incoming, std::uint32_t part = 0,
                            std::uint32_t parts = 1);

 private:
  template <typename Keep>
  std::uint64_t apply_filtered(std::span<const std::vector<BounceRecord>> held,
                               const std::vector<Bytes>& incoming, Keep keep);

  BinForest* forest_;
  const std::vector<int>* owner_;
  int rank_;
  WireBuffer* wire_;
  std::vector<BounceRecord> held_;
};

}  // namespace photon
