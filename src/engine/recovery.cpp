#include "engine/recovery.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

#include "core/error.hpp"
#include "engine/governor.hpp"
#include "mp/fault.hpp"
#include "sim/checkpoint.hpp"

namespace photon {

RunResult run_elastic(Backend& backend, const Scene& scene, const RunConfig& config,
                      const RunResult* resume, RecoveryStats* stats) {
  using Clock = std::chrono::steady_clock;
  RecoveryStats rec;
  RunConfig cfg = config;
  // The dimension a rank death shrinks: hybrid's MiniMPI ranks are groups;
  // the dist backends' are workers. Other backends run no world and can only
  // fail through a rethrown WorldFailure (never shrink).
  const bool shrink_groups = backend.name() == "hybrid";
  const std::uint64_t total = config.photons;

  // Leg size aligned down to whole batch windows: hybrid's resume is bitwise
  // only at window boundaries, and the alignment costs the other backends
  // nothing.
  std::uint64_t leg = config.checkpoint_photons;
  if (leg > 0) {
    const std::uint64_t window = std::max<std::uint64_t>(cfg.batch, 1);
    leg = std::max(window, leg - leg % window);
  }

  // The last completed state: the caller's resume (read in place — it
  // outlives this call, so copying it would only cost time and memory) until
  // the first leg completes, then `state`. `state_m` guards `last` and
  // `state` against the watchdog's emergency callback, which reads them from
  // the monitor thread while the loop thread writes them between legs.
  RunResult state;
  const RunResult* last = resume;
  std::mutex state_m;

  // Stuck-run watchdog (engine/governor.hpp): monitors the Progress beacon
  // for the whole elastic run. On a wedge it flushes the last completed leg
  // as an emergency checkpoint, then poisons every MiniMPI world so blocked
  // waits throw — the WorldFailure that surfaces here is converted to a
  // typed WedgedError below instead of retrying forever.
  std::unique_ptr<Watchdog> wd;
  if (config.watchdog_s > 0.0) {
    // A scoped run's watchdog watches its own beacon: another job's ticks
    // must not keep a wedged job looking alive.
    Progress* beacon = config.control ? &config.control->progress() : nullptr;
    wd = std::make_unique<Watchdog>(config.watchdog_s, config.watchdog_grace_s, beacon);
    wd->set_exit_on_wedge(config.watchdog_exit);
    if (!config.emergency_checkpoint_path.empty()) {
      wd->set_emergency([&](const ProgressSnapshot&) {
        std::lock_guard<std::mutex> lock(state_m);
        if (last) save_checkpoint(*last, config.emergency_checkpoint_path);
      });
    }
  }

  std::uint64_t done = 0;
  bool ran_any = false;
  int recoveries_left = config.max_recoveries;
  while (!ran_any || done < total) {
    const std::uint64_t n = leg > 0 ? std::min(leg, total - done) : total - done;
    cfg.photons = n;
    const Clock::time_point t0 = Clock::now();
    try {
      RunResult r = backend.run(scene, cfg, last);
      {
        std::lock_guard<std::mutex> lock(state_m);
        state = std::move(r);
        last = &state;
      }
      done += n;
      ran_any = true;
      ++rec.legs;
      // A governed stop ended this leg early at a window boundary. Do not
      // start another leg: the partial result is the caller's resumable
      // checkpoint (counters.emitted says how far it got).
      if (state.status != RunStatus::kComplete) break;
    } catch (const WorldFailure& failure) {
      if (wd && wd->fired()) {
        // Not a rank failure: the watchdog poisoned the world. Shrinking and
        // retrying would re-wedge; surface the typed abort instead.
        const ProgressSnapshot snap = wd->wedged_snapshot();
        if (stats) *stats = rec;
        throw WedgedError(
            "run declared wedged by the watchdog (no progress for " +
                std::to_string(config.watchdog_s + (config.watchdog_grace_s > 0.0
                                                        ? config.watchdog_grace_s
                                                        : config.watchdog_s)) +
                "s); world poisoned",
            snap.to_string());
      }
      rec.lost_seconds += std::chrono::duration<double>(Clock::now() - t0).count();
      ++rec.failures;
      rec.photons_retraced += n;
      rec.ranks_lost += static_cast<int>(failure.dead_ranks.size());
      for (const int r : failure.dead_ranks) rec.dead_ranks.push_back(r);
      int& width = shrink_groups ? cfg.groups : cfg.workers;
      width -= static_cast<int>(failure.dead_ranks.size());
      if (width < 1 || recoveries_left-- <= 0) {
        if (stats) *stats = rec;
        throw;
      }
      // Rewind: `last` still holds the last completed leg; the loop re-runs
      // the open leg from it at the survivor shape. A pure timeout (no
      // deaths) retries at the same shape — the consumed fault plan entries
      // will not re-fire.
    }
  }

  rec.final_width = shrink_groups ? cfg.groups : cfg.workers;
  state.recovery = rec;
  if (stats) *stats = rec;
  return state;
}

}  // namespace photon
