// The elastic runner: checkpointed legs + rank-failure recovery on top of
// any Backend.
//
// run_elastic cuts a run into legs of config.checkpoint_photons photons and
// holds the last completed leg's RunResult as an in-memory checkpoint (the
// same object save_checkpoint serializes). When a leg dies with a WorldFailure
// — a scripted kill, or the heartbeat detector declaring a rank dead
// (mp/fault.hpp) — the runner rewinds to that checkpoint, removes the dead
// ranks from the parallel width (groups for hybrid, workers for the dist
// backends), and re-runs the open leg at the survivor shape: the dead rank's
// photon-id slice re-shards across the survivors automatically because every
// backend derives its slice from (width, rank).
//
// Determinism after recovery (DESIGN.md "Fault model"): every backend is
// bitwise shape-invariant and resumes bitwise at any leg boundary, so a
// recovered run is bitwise equal to an undisturbed run at the survivor
// shape.
#pragma once

#include "engine/backend.hpp"

namespace photon {

// Runs `backend` to config.photons total, recovering from WorldFailures as
// above. With no faults, no deadline policy, and checkpoint_photons == 0
// this is exactly one backend.run() call. Throws the last WorldFailure when
// the width would drop below 1 or config.max_recoveries is exhausted; other
// exceptions propagate untouched. `stats` (and result.recovery) report what
// happened.
RunResult run_elastic(Backend& backend, const Scene& scene, const RunConfig& config,
                      const RunResult* resume = nullptr, RecoveryStats* stats = nullptr);

}  // namespace photon
