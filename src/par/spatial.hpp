// Distributed geometry (chapter 6, "Massive Parallelism") — the engine's
// `dist-spatial` backend, implementing the paper's future-work design:
// "Currently, the octree representation of the geometry is replicated on all
// nodes. This could limit the size of the input geometry. Distribution of the
// geometry would allow computation of a global illumination solution for very
// complex scenes... a photon is then only passed to those processors that are
// responsible for the space the photon is traveling through. The photons can
// then be queued and sent in a batch to the appropriate processors."
//
// Space is partitioned into one axis-aligned region per rank (recursive
// bisection balancing patch counts). Each rank builds an octree over only the
// patches overlapping its region. A photon traces inside the current region
// until it is absorbed or crosses a region face, at which point it is queued
// for the neighbouring owner and exchanged in the next batched all-to-all
// (engine/wire.hpp defines the shared codec). `config.workers` sets the rank
// count.
//
// Every photon carries its own RNG stream (a disjoint 4096-element block of
// the global sequence), so its path is identical no matter which ranks
// execute its segments — the partition cannot change the answer, which the
// test suite verifies against a single-octree reference run.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/backend.hpp"
#include "geom/scene.hpp"

namespace photon {

// Splits the scene bounds into `nranks` boxes by recursive bisection along
// the longest axis, balancing patch-centroid counts. The boxes tile the
// padded scene bounds exactly.
std::vector<Aabb> partition_space(const Scene& scene, int nranks);

// Index of the region containing `p` (half-open on shared faces so boundary
// points resolve to exactly one region); -1 when outside all regions.
int region_of(const std::vector<Aabb>& regions, const Vec3& p);

// Runs the distributed-geometry simulation on `config.workers` MiniMPI ranks.
// A `resume` result (a loaded checkpoint) is folded into the partitioned
// trees, and photon ids continue where the checkpoint stopped — the resumed
// leg draws the exact continuation of the same global per-photon streams.
RunResult run_spatial(const Scene& scene, const RunConfig& config,
                      const RunResult* resume = nullptr);

}  // namespace photon
