// The particle engine: the paper's shared-memory Photon (Fig 5.2), its
// distributed Photon (Fig 5.3) and their composition on a cluster of
// multiprocessors, as one window loop. The registry runs it under three
// names (engine/backend.cpp): `shared` is shape 1×workers, `dist-particle`
// is workers×1, and `hybrid` is groups×workers.
//
// `config.groups` MiniMPI ranks ("boxes") each run `config.workers`
// shared-memory threads. Geometry is replicated; the bin forest is
// partitioned across groups by the probe-driven load balancer (one group
// owns every tree and skips the probe); foreign records travel through
// OrderedRouterSink/WireBuffer into the split-phase all-to-all, and trees
// gather to rank 0 as binary frames.
//
// Determinism contract: the populated forest is bitwise identical for EVERY
// groups × threads shape, window size, chunk size, steal interleaving and
// resume point, and equal to the serial reference (sim/simulator.hpp).
// Three mechanisms compose to guarantee it:
//
//   1. Per-photon RNG streams (core/rng.hpp photon_stream): photon i's path
//      is a pure function of (scene, seed, i), whoever traces it.
//   2. Contiguous id slices, chunked scheduling: each window of ids is split
//      contiguously across groups; each group cuts its slice into a
//      `config.chunk`-photon chunk grid that its WorkerPool schedules
//      dynamically. Chunk-private record buffers are read in ascending chunk
//      order, so a group's window records come out in ascending photon-id
//      order whichever worker traced which chunk.
//   3. Canonical window application (OrderedRouterSink::apply_batch): a
//      window's records apply to the owner trees in source-group order —
//      with contiguous slices, global photon-id order — on the group's pool
//      in `workers` parts of disjoint trees. Windows apply in order, so every
//      tree sees its records in global id order whatever the window size:
//      window size, `adapt_batch` and leg boundaries cannot move a bit.
//      Tracing never reads the forest, so the one-window-deep exchange
//      overlap cannot perturb any path.
//
// One group runs on WorkerPool::instance() (the photon service shares it
// across jobs) and applies each window right after tracing it — there is no
// exchange to overlap. Several groups each spawn a private team once per
// run, so the G groups' windows schedule concurrently.
#pragma once

#include "engine/backend.hpp"

namespace photon {

// Runs `config.photons` photons on `config.groups` × `config.workers`.
// `config.batch` is the GLOBAL ids-per-window size; with `config.adapt_batch`
// the BatchController sizes each group's slice instead (every group reads
// the same agreed window time, so all agree and the window is groups ×
// size). A `resume` result — a checkpoint from any backend — is adopted
// (one group) or folded into the partitioned trees, and the photon-id
// sequence continues where it stopped: a bitwise continuation of an
// uninterrupted run at any leg boundary. `label` names the run's progress
// ticks.
RunResult run_hybrid(const Scene& scene, const RunConfig& config,
                     const RunResult* resume = nullptr, const char* label = "hybrid");

}  // namespace photon
