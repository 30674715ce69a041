// The photon service: many governed runs multiplexed onto one process
// (DESIGN.md "Photon service").
//
// The session/scheduler split the service is built around:
//
//   Sessions     Scenes are RESIDENT: loaded and built once per (name, accel)
//                key, then shared by reference across every job that names
//                them. Backend::run takes `const Scene&` and the accel
//                snapshot and SoA patch arenas are immutable after build(),
//                so concurrent jobs read one copy — the Iray-style session
//                model from PAPERS.md, without per-job load/build cost.
//
//   Scheduler    A FIFO job queue drained by `max_active` executor threads.
//                Each executor runs its job through the ordinary elastic
//                runner; the jobs' batch windows interleave on the
//                process-lifetime WorkerPool, whose ticket queue grants the
//                dispatch slot in strict arrival order — fair-share at window
//                granularity, no job starves another (engine/pool.cpp).
//
//   Governance   Per job, not per process: every job gets its own RunControl
//                (preempt flag + Progress beacon) via RunConfig::control, so
//                cancel(id) stops exactly one job at its next window boundary
//                and a job's watchdog never sees another job's heartbeats.
//                The process-global flag (SIGTERM) stays the daemon's: on
//                shutdown the service fans preemption out to every active
//                job's control.
//
//   Admission    Each job is admitted against the service-wide memory budget
//                before it starts: jobs whose estimate alone exceeds the
//                budget are refused; admissible jobs WAIT until enough
//                reserved bytes free up. No rung of govern_admission's
//                ladder applies: its accel-coarsening rung would rebuild a
//                resident scene other jobs are reading.
//
// Determinism contract: a job's result is bitwise identical to the same
// RunConfig executed solo via the CLI — scheduling (ticket order, steals,
// concurrency) never reaches the record order any backend feeds its forest.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/backend.hpp"
#include "engine/config.hpp"
#include "geom/scene.hpp"

namespace photon {

// One submitted run. `scene` and `accel` key the resident scene the loader
// builds; `config` carries the usual knobs (photons, seed, workers, batch,
// trace_path, ...); the service forces `governed` on and attaches its own
// RunControl.
struct JobSpec {
  std::string scene;             // resident-scene name, resolved by the loader
  AccelKind accel = AccelKind::kOctree;  // explicit, not the scene-size rule
  std::string backend = "serial";
  RunConfig config;
  std::string checkpoint_path;   // non-empty: save the final result here (atomic)
};

enum class JobState {
  kQueued,     // accepted, waiting for an executor + admission
  kRunning,    // tracing photons
  kDone,       // ran to the requested count
  kPreempted,  // governed stop (service shutdown) — partial, resumable
  kOverBudget, // governed stop on the runtime memory budget
  kCancelled,  // cancel(id) — dequeued, or preempted at a window boundary
  kRefused,    // admission refused (coarsest plan exceeds the budget)
  kFailed,     // typed engine error; see `error`
};
const char* job_state_name(JobState state);
bool job_state_terminal(JobState state);

// The queryable snapshot of a job. Result fields are zero until the job
// reaches a terminal state.
struct JobInfo {
  std::uint64_t id = 0;
  JobState state = JobState::kQueued;
  std::string scene;
  std::string backend;
  std::uint64_t photons_requested = 0;
  std::uint64_t emitted = 0;
  std::uint64_t bounces = 0;
  double wall_s = 0.0;
  double rate = 0.0;              // photons per second over the run
  std::uint64_t estimated_bytes = 0;  // admission estimate (0 until admitted)
  std::uint64_t progress_ticks = 0;   // the job's own beacon, not the process's
  std::string error;              // non-empty for kRefused / kFailed
};

struct ServiceConfig {
  int max_active = 2;                // concurrent executor threads
  std::uint64_t memory_budget = 0;   // service-wide bytes; 0 = unlimited
  double watchdog_s = 0.0;           // per-job watchdog deadline (0 = off)
  double watchdog_grace_s = 0.0;
};

// Resolves a resident-scene key to a built scene. Called once per (name,
// accel) pair; the service caches the result for every later job. Returning
// null (or throwing SceneError) fails the job, not the service.
using SceneLoader =
    std::function<std::shared_ptr<const Scene>(const std::string& name, AccelKind kind)>;

class PhotonService {
 public:
  PhotonService(ServiceConfig config, SceneLoader loader);
  ~PhotonService();  // shutdown(): preempts active jobs and joins
  PhotonService(const PhotonService&) = delete;
  PhotonService& operator=(const PhotonService&) = delete;

  // Enqueues a job and returns its id. Throws ConfigError on a bad spec
  // (unknown backend, zero photons, out-of-range width).
  std::uint64_t submit(const JobSpec& spec);

  // Requests a graceful stop of one job: dequeues it if still queued,
  // preempts its control if running (it stops at the next window boundary,
  // result resumable). False when the id is unknown or already terminal.
  bool cancel(std::uint64_t id);

  // Snapshot of one job / all jobs. status() throws ConfigError on an
  // unknown id.
  JobInfo status(std::uint64_t id) const;
  std::vector<JobInfo> jobs() const;

  // Blocks until the job reaches a terminal state and returns its info.
  JobInfo wait(std::uint64_t id);

  // Stops accepting submissions, preempts every queued/active job, joins the
  // executors. Idempotent; the destructor calls it.
  void shutdown();

  // Resident-scene cache misses — N jobs on one scene must report 1 (the
  // residency test pins this).
  std::uint64_t scene_loads() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace photon
