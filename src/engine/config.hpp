// The unified simulation configuration.
//
// One RunConfig drives every backend (serial, shared, dist-particle,
// hybrid, dist-spatial); fields a backend does not use are simply ignored.
// Defaults are backend-independent: fixed 10000-photon batches everywhere,
// with the chapter-5 adaptive batching opt-in through adapt_batch. The
// acceleration structure is not a run knob: the scene owns it (picked by
// patch count, default_accel_kind, unless Scene::set_accel pins one), and
// every index a run builds follows the scene's kind.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/stats.hpp"
#include "engine/batch.hpp"
#include "mp/fault.hpp"
#include "sim/tracer.hpp"

namespace photon {

class RunControl;  // engine/governor.hpp

struct RunConfig {
  std::uint64_t photons = 100000;  // total across all workers
  std::uint64_t seed = 0x1234ABCD330EULL;

  // Parallel width: threads for `shared`, ranks for `dist-particle` and
  // `dist-spatial`, threads per group for `hybrid`. Ignored by `serial`.
  int workers = 2;

  // Message-passing groups for the `hybrid` backend (groups × workers total
  // threads: each MiniMPI rank is one multiprocessor "box" running `workers`
  // shared-memory threads). Ignored by every other backend.
  int groups = 1;

  // Batching. `batch` is the fixed batch size: photons per batch for serial,
  // per rank per round for dist-particle and dist-spatial, and the GLOBAL ids
  // per window for shared and hybrid. When `adapt_batch` is set, the
  // engine's BatchController adapts the size to the measured rate instead
  // (chapter 5, "Communication vs. Computation"): the batch for serial, each
  // rank's or group's slice of the window for the particle engine;
  // dist-spatial keeps its fixed rounds. Every backend applies records in
  // photon-id order at every window size, so both knobs are scheduling
  // only: the answer is the same whatever they are set to.
  std::uint64_t batch = 10000;
  bool adapt_batch = false;
  BatchPolicy batch_policy{};

  // Photons per scheduling chunk for the particle engine (shared,
  // dist-particle, hybrid): each group's id slice is cut into `chunk`-photon
  // chunks that idle workers claim/steal dynamically (engine/pool.hpp).
  // Purely a scheduling grain — per-chunk record buffers are read in
  // ascending chunk order, so the populated forest is bitwise identical for
  // ANY chunk size, worker count, or steal interleaving. Clamped to >= 1.
  std::uint64_t chunk = 64;

  // When non-empty, every speed-trace point — and, for serial, every
  // bin-forest memory point — streams to this file (JSONL, one point per
  // line, appended as it is sampled) instead of accumulating in
  // RunResult::trace.points / RunResult::memory — a multi-hour run's
  // telemetry no longer grows resident memory. Totals
  // (total_photons/total_time_s/final_rate) are still filled in the returned
  // trace.
  std::string trace_path;

  // Load balancing for the partitioned particle engine (dist-particle,
  // hybrid at groups > 1): probe photons (k) and assignment strategy.
  std::uint64_t lb_photons = 2000;
  bool bestfit = true;  // false: naive contiguous ownership

  SplitPolicy policy{};
  TraceLimits limits{};

  // --- Fault tolerance (mp/fault.hpp; engine/recovery.hpp) ----------------
  // Scripted fault injection for the MiniMPI world the distributed backends
  // run in. Shared (not owned per run) so a consumed fault stays consumed
  // across the elastic runner's recovery legs. Null disables injection.
  std::shared_ptr<FaultPlan> fault_plan;
  // Deadline/heartbeat policy for every blocking MiniMPI path. The default
  // (deadline 0) is the historical block-forever behavior; setting a
  // deadline turns hangs into typed CommErrors and, with `heartbeats`,
  // arms the failure detector.
  CommPolicy comm{};
  // Elastic-runner leg size: run_elastic cuts the run into legs of this many
  // photons, holding the last completed leg's RunResult as the in-memory
  // checkpoint a recovery rewinds to. Any size: resume continues the
  // photon-id sequence, so a leg may end mid-window and stay bitwise.
  // 0 = one leg (no intermediate checkpoints: a failure re-traces the run).
  std::uint64_t checkpoint_photons = 0;
  // World failures tolerated before run_elastic gives up and rethrows.
  int max_recoveries = 8;

  // --- Run governance (engine/governor.hpp) -------------------------------
  // Governed runs poll the preempt flag and the memory budget at window
  // boundaries and stop gracefully with a non-kComplete RunStatus. Off by
  // default: governance adds one allreduce per window on the distributed
  // backends, and collectives must be unconditional across ranks — so the
  // flag must be identical on every rank of a world (the CLI always sets it;
  // library callers opt in).
  bool governed = false;
  // Watchdog deadline: no Progress tick for this many seconds makes the run
  // suspect; none for a further watchdog_grace_s declares it wedged
  // (emergency checkpoint + typed abort). 0 disables the watchdog.
  double watchdog_s = 0.0;
  double watchdog_grace_s = 0.0;  // 0 = same as watchdog_s
  // Planning + runtime memory budget in bytes (0 = unlimited). Admission
  // applies the degradation ladder (govern_admission); governed runs also
  // stop with RunStatus::kOverBudget when the summed forest footprint
  // crosses it mid-run.
  std::uint64_t memory_budget = 0;
  // Where the watchdog's emergency callback flushes the last completed leg
  // when a run is declared wedged (empty = no emergency checkpoint).
  std::string emergency_checkpoint_path;
  // Last-resort _Exit(6) when a wedge is unreachable by world poisoning
  // (e.g. a stuck compute loop). CLI-only; never set in library use.
  bool watchdog_exit = false;
  // Per-run governance scope (engine/governor.hpp). When set, the governed
  // loops poll THIS control's preempt flag and tick ITS Progress beacon
  // instead of the process globals — the photon service attaches one per job
  // so cancelling or watching one job never touches another. Null keeps the
  // historical process-global behavior (the CLI path).
  std::shared_ptr<RunControl> control;
};

}  // namespace photon
