// The pluggable execution layer: one photon pipeline, four decompositions.
//
// Every backend runs the same hierarchical-histogram simulation — emit,
// trace, tally into the adaptive bin forest — and differs only in how the
// work and the forest are decomposed:
//
//   serial        one thread, the paper's "best serial version" baseline and
//                 the bitwise reference every other shape is pinned against
//   shared        the particle engine at 1 × workers: shared-memory forall
//                 over pool chunks, each window drained per tree on the pool
//                 (Fig 5.2)
//   dist-particle the particle engine at workers × 1: replicated geometry,
//                 partitioned forest, batched all-to-all record exchange
//                 (Fig 5.3)
//   hybrid        the particle engine at groups × workers: message passing
//                 between groups, shared memory within them (the paper's
//                 cluster-of-multiprocessors target)
//   dist-spatial  partitioned geometry; photons migrate between region
//                 owners (chapter 6, "Massive Parallelism")
//
// One contract covers all five: every photon draws from its own RNG block
// and every tree applies its records in (photon id, bounce) order, so each
// backend answers bitwise-equal to the serial run at every shape, window
// size and resume point. The particle engine (par/hybrid.hpp) is one window
// loop under three names; dist-spatial (par/spatial.hpp) traces the same
// rays region by region with the serial tracer's bounce body.
//
// Backends are selected by name through make_backend(); the cross-backend
// conformance suite (tests/test_conformance.cpp) pins every name to that
// contract.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/aabb.hpp"
#include "engine/config.hpp"
#include "engine/governor.hpp"
#include "engine/telemetry.hpp"
#include "hist/binforest.hpp"
#include "par/loadbalance.hpp"
#include "sim/tracer.hpp"

namespace photon {

// Per-rank report. The first block is filled by the particle engine (one
// report per group), the second by the spatial decomposition; unused fields
// stay zero.
struct RankReport {
  std::uint64_t traced = 0;     // photons generated and traced by this rank
  std::uint64_t processed = 0;  // tally updates performed (Table 5.2 metric)
  std::uint64_t sent_bytes = 0;
  std::uint64_t sent_messages = 0;
  std::uint64_t rounds = 0;     // exchange rounds executed
  // Wall time blocked in recv on the overlapped record exchange only (the
  // overlap metric) — synchronous photon migration and the tree gather ride
  // other tags, and collective skew lives in the allreduce barriers.
  double wait_seconds = 0.0;
  std::vector<std::uint64_t> batch_sizes;
  TraceCounters counters;

  // Spatial decomposition (chapter 6).
  std::uint64_t local_patches = 0;    // patches overlapping this rank's region
  std::uint64_t local_nodes = 0;      // local octree nodes or grid cells (the memory win)
  std::uint64_t photons_in = 0;       // in-flight photons received
  std::uint64_t photons_out = 0;      // in-flight photons forwarded
  std::uint64_t tallies = 0;          // records applied by this rank

  // Deadline expiries this rank retried through under the CommPolicy
  // (mp/fault.hpp) — slack the policy absorbed without declaring anything.
  std::uint64_t deadline_retries = 0;
};

// Outcome of an elastic run (engine/recovery.hpp): how many checkpoint legs
// executed, what failed, and what the failures cost. All zeros for an
// undisturbed single-leg run.
struct RecoveryStats {
  int legs = 0;                          // legs that completed
  int failures = 0;                      // WorldFailures recovered from
  int ranks_lost = 0;                    // ranks removed across all failures
  int final_width = 0;                   // surviving parallel width at the end
  std::uint64_t photons_retraced = 0;    // open-leg photons re-traced after failures
  double lost_seconds = 0.0;             // wall time inside failed legs
  std::vector<int> dead_ranks;           // per-failure rank ids (world-local)
};

// Scheduler telemetry from the persistent worker pool (engine/pool.hpp):
// how the chunk grid actually landed on the workers — the Table 5.2
// imbalance observable. With dynamic stealing, *chunks executed* and *steals
// performed* per worker are the interesting skew numbers, not just photon
// totals. Slot group*workers+tid is thread tid of group `group` (for
// `shared` the slots are its worker threads).
struct PoolTelemetry {
  std::uint64_t chunk_size = 0;  // photons per scheduling chunk
  std::uint64_t chunks = 0;      // chunks executed across the run
  std::uint64_t steals = 0;      // claims outside the claimer's static range
  std::vector<std::uint64_t> worker_photons;  // photons traced per worker slot
  std::vector<std::uint64_t> worker_chunks;   // chunks executed per worker slot
  std::vector<std::uint64_t> worker_steals;   // steals performed per worker slot
};

// The unified result: the populated forest (the "answer file") plus the
// telemetry every backend collects. Backend-specific detail (per-rank
// reports, the ownership map, the region partition) rides along where the
// backend produces it.
struct RunResult {
  BinForest forest;
  SpeedTrace trace;
  TraceCounters counters;
  std::vector<MemoryPoint> memory;

  PoolTelemetry pool;                            // particle engine
  std::vector<RankReport> ranks;                 // particle engine, dist-spatial
  LoadBalance balance;                           // particle engine
  std::vector<Aabb> regions;                     // dist-spatial
  RecoveryStats recovery;                        // filled by run_elastic

  // How a governed run ended (engine/governor.hpp). kComplete unless
  // config.governed and the run stopped early at a window boundary; a
  // non-complete result is still a valid resume point — counters.emitted
  // photons are done, rerunning with the same checkpoint continues bitwise.
  RunStatus status = RunStatus::kComplete;
};

class Backend {
 public:
  virtual ~Backend() = default;

  virtual std::string name() const = 0;

  // A `resume` result (a loaded checkpoint, from any backend) is adopted:
  // config.photons *additional* photons continue its photon-id sequence,
  // bitwise equal to an uninterrupted run whatever shape either leg ran at.
  virtual RunResult run(const Scene& scene, const RunConfig& config,
                        const RunResult* resume = nullptr) = 0;
};

// Instantiates a backend by name; nullptr for unknown names.
std::unique_ptr<Backend> make_backend(const std::string& name);

// The five names, sorted.
std::vector<std::string> backend_names();

}  // namespace photon
