// Serial Photon simulation driver — the paper's "best serial version" that
// every speedup in chapter 5 is measured against, and the reference
// implementation behind the engine's `serial` backend.
//
// The performance methodology breaks a simulation into batches and reports
// photons-per-second after each batch (the speed trace), sampling bin-forest
// memory per batch (Fig 5.4). Both collections come from engine/telemetry.
#pragma once

#include "engine/backend.hpp"

namespace photon {

// Runs the serial simulation of Fig 4.1 and returns the populated forest.
// Photon i draws from its own disjoint RNG block (core/rng.hpp
// photon_stream) and tallies straight into the forest in id order: the
// bitwise reference every parallel shape is pinned against. When
// `resume_from` is non-null its forest and counters are adopted and
// `config.photons` *additional* photons continue the id sequence — bitwise
// identical to having run them in one go.
RunResult run_serial(const Scene& scene, const RunConfig& config,
                     const RunResult* resume_from = nullptr);

}  // namespace photon
