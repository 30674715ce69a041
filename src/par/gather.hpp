// End-of-run gather shared by the partitioned-forest loops (the particle
// engine and dist-spatial): emission totals agree via allreduce, every
// non-root rank sends its owned trees to rank 0 as binary frames, and rank 0
// folds the totals (plus a resumed checkpoint's) into the gathered forest.
// Extracted so both loops' gather semantics — including the easy-to-miss
// resume-emitted re-add — stay provably identical.
#pragma once

#include <vector>

#include "core/spectrum.hpp"
#include "hist/binforest.hpp"
#include "mp/minimpi.hpp"

namespace photon {

// Runs the collective gather on `comm`. `owner[p]` maps patch p to its
// owning rank; `local_emitted` is this rank's per-channel emission count;
// `resume_forest` (rank 0 only consults it) contributes a checkpoint's
// emission totals. Returns the allreduced per-channel totals (every rank).
// On rank 0 `forest` ends as the complete answer; elsewhere it is spent.
ChannelCounts gather_partitioned_forest(Comm& comm, BinForest& forest,
                                        const std::vector<int>& owner,
                                        const ChannelCounts& local_emitted,
                                        const BinForest* resume_forest, int tag);

}  // namespace photon
