// Shared-memory parallel Photon (Fig 5.2) — the engine's `shared` backend.
//
// All threads share the geometry and the bin forest. Work is scheduled
// through the persistent WorkerPool (engine/pool.hpp): the photon-id range
// is cut into `config.chunk`-photon chunks that idle workers claim/steal
// dynamically — the paper's static nphot/nprocessors split (whose Table 5.2
// imbalance the static schedule bakes in) survives only as the pool's
// initial chunk distribution, which stealing then rebalances.
//
// Determinism contract (strictly stronger than the old leapfrog version):
// every photon draws from its own disjoint RNG block (photon_stream), each
// chunk traces into a chunk-private record buffer, and after each window
// the buffers drain into the forest on the pool: T parts, part k applying
// the records of patches with patch % T == k, each part walking the buffers
// in ascending chunk order. Every tree thus sees its records in ascending
// photon-id order, and the populated forest is bitwise identical to the
// serial photon-stream reference (RunConfig::photon_streams) at EVERY
// worker count, chunk size, and steal interleaving — pinned by the shared
// suite at workers {1, 2, 3, 4, 8}, by the conformance suite, and under
// forced-steal schedules.
//
// `config.workers` sets the worker width; `config.batch` windows bound the
// record-buffer memory; both are scheduling knobs with no effect on the
// result.
#pragma once

#include "engine/backend.hpp"

namespace photon {

// When `resume_from` is non-null its forest and counters are adopted and
// `config.photons` additional photons are traced on top, continuing the
// photon-id sequence where the checkpoint stopped. Ids index disjoint RNG
// blocks, so the continuation is bitwise identical to an uninterrupted run
// (the same guarantee as the serial photon-stream mode).
RunResult run_shared(const Scene& scene, const RunConfig& config,
                     const RunResult* resume_from = nullptr);

}  // namespace photon
