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
// bisection balancing patch counts). Each rank indexes only the patches
// within a surface nudge of its region, with the scene's acceleration
// structure (Scene::accel_kind). `config.workers` sets the rank count.
//
// It answers bitwise-equal to the serial run at every rank count (DESIGN.md,
// "Spatial decomposition"):
//  - every photon draws from its own RNG block, and a region runs the serial
//    tracer's bounce body (Tracer::scatter);
//  - a flight keeps its ray across hand-offs: a region accepts its closest
//    local hit only at or before its own exit, else passes the photon on
//    with t_min at the exit, so the accepted hit is the scene's closest;
//  - records are keyed by (photon id, index along the path), and each owner
//    applies them in key order once every lower id has finished.
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

// Runs the distributed-geometry simulation on `config.workers` MiniMPI ranks,
// `config.batch` fresh photons per rank per round. A `resume` result (a
// loaded checkpoint) is folded into the partitioned trees, and photon ids
// continue where the checkpoint stopped: a bitwise continuation.
RunResult run_spatial(const Scene& scene, const RunConfig& config,
                      const RunResult* resume = nullptr);

}  // namespace photon
