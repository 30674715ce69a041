#include "service/service.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>

#include "core/error.hpp"
#include "engine/governor.hpp"
#include "engine/recovery.hpp"
#include "mp/minimpi.hpp"
#include "sim/checkpoint.hpp"

namespace photon {

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kPreempted: return "preempted";
    case JobState::kOverBudget: return "over-budget";
    case JobState::kCancelled: return "cancelled";
    case JobState::kRefused: return "refused";
    case JobState::kFailed: return "failed";
  }
  return "?";
}

bool job_state_terminal(JobState state) {
  switch (state) {
    case JobState::kQueued:
    case JobState::kRunning:
      return false;
    default:
      return true;
  }
}

namespace {

struct Job {
  JobSpec spec;
  JobInfo info;
  std::shared_ptr<RunControl> control = std::make_shared<RunControl>();
  bool cancel_requested = false;
};

}  // namespace

struct PhotonService::Impl {
  ServiceConfig config;
  SceneLoader loader;

  mutable std::mutex m;
  std::condition_variable cv;       // executors wait for work / admission here
  std::condition_variable done_cv;  // wait() parks here
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs;  // queued and running
  std::map<std::uint64_t, JobInfo> finished;          // terminal: the info alone
  std::deque<std::uint64_t> pending;  // FIFO submission order
  std::uint64_t next_id = 1;
  std::uint64_t reserved_bytes = 0;  // admitted-but-unfinished estimates
  std::uint64_t loads = 0;           // scene cache misses
  bool stopping = false;

  // Resident scenes, keyed by "name/accel". shared_ptr<const Scene> because a
  // job may still hold the scene while a (future) eviction drops the cache
  // entry.
  std::map<std::string, std::shared_ptr<const Scene>> scenes;

  std::vector<std::thread> executors;

  static std::string scene_key(const std::string& name, AccelKind kind) {
    return name + "/" + accel_kind_name(kind);
  }

  // Caller holds `m`. Loads through the cache; throws SceneError on a loader
  // failure so the executor fails just this job.
  std::shared_ptr<const Scene> resident_scene(const JobSpec& spec) {
    const std::string key = scene_key(spec.scene, spec.accel);
    auto it = scenes.find(key);
    if (it != scenes.end()) return it->second;
    ++loads;
    std::shared_ptr<const Scene> scene = loader(spec.scene, spec.accel);
    if (!scene) throw SceneError("cannot load scene '" + spec.scene + "'");
    scenes.emplace(key, scene);
    return scene;
  }

  // Caller holds `m`. Moves the job's info, now terminal, to `finished` and
  // destroys the Job (its spec and control): a finished job keeps only its
  // JobInfo. `job` is dangling on return.
  void finish(Job& job, JobState state, const std::string& error) {
    job.info.state = state;
    job.info.error = error;
    const std::uint64_t id = job.info.id;
    finished.emplace(id, std::move(job.info));
    jobs.erase(id);
    done_cv.notify_all();
    // Admission capacity freed: wake executors parked on the budget.
    cv.notify_all();
  }

  void run_job(Job& job, const std::shared_ptr<const Scene>& scene) {
    RunResult result;
    {
      // The run's copy of the spec's config ends with this scope, before
      // finish() can report the job terminal.
      RunConfig cfg = job.spec.config;
      cfg.governed = true;
      cfg.control = job.control;
      cfg.watchdog_s = config.watchdog_s;
      cfg.watchdog_grace_s = config.watchdog_grace_s;
      cfg.watchdog_exit = false;  // a wedged job must never _Exit the service
      if (!job.spec.checkpoint_path.empty()) {
        cfg.emergency_checkpoint_path = job.spec.checkpoint_path;
      }
      const std::unique_ptr<Backend> backend = make_backend(job.spec.backend);
      result = run_elastic(*backend, *scene, cfg, nullptr);
    }

    // Atomic tmp+rename save: a kill mid-write leaves any previous
    // checkpoint at the path loadable. Done before taking the lock — the
    // flush must not stall status queries.
    bool checkpoint_ok = true;
    if (!job.spec.checkpoint_path.empty()) {
      checkpoint_ok = save_checkpoint(result, job.spec.checkpoint_path);
    }

    std::lock_guard<std::mutex> lock(m);
    JobState state = JobState::kDone;
    std::string error;
    switch (result.status) {
      case RunStatus::kComplete: state = JobState::kDone; break;
      case RunStatus::kPreempted:
        // cancel_requested is read under `m`: cancel() writes it there.
        state = job.cancel_requested ? JobState::kCancelled : JobState::kPreempted;
        break;
      case RunStatus::kOverBudget: state = JobState::kOverBudget; break;
    }
    if (!checkpoint_ok) {
      state = JobState::kFailed;
      error = "cannot write checkpoint '" + job.spec.checkpoint_path + "'";
    }
    job.info.emitted = result.counters.emitted;
    job.info.bounces = result.counters.bounces;
    job.info.wall_s = result.trace.total_time_s;
    job.info.rate = result.trace.final_rate();
    job.info.progress_ticks = job.control->progress().total_ticks();
    finish(job, state, error);
  }

  void executor_main() {
    std::unique_lock<std::mutex> lock(m);
    for (;;) {
      cv.wait(lock, [&] { return stopping || !pending.empty(); });
      if (pending.empty()) {
        if (stopping) return;
        continue;
      }
      Job& job = *jobs.at(pending.front());
      pending.pop_front();
      if (job.cancel_requested || stopping) {
        finish(job, JobState::kCancelled, "");
        continue;
      }

      // Resolve the resident scene and score admission. Refuse only when the
      // job can NEVER fit; an admissible job waits for reserved capacity.
      std::shared_ptr<const Scene> scene;
      std::uint64_t estimate = 0;
      try {
        scene = resident_scene(job.spec);
        // No rung applies: rung 1 would rebuild the shared accel, which is off
        // the table for a resident scene, so an over-budget job is refused.
        estimate = admission_estimate_bytes(*scene, job.spec.config);
      } catch (const EngineError& e) {
        finish(job, JobState::kFailed, e.what());
        continue;
      }
      if (config.memory_budget != 0 && estimate > config.memory_budget) {
        finish(job, JobState::kRefused,
               "admission refused: coarsest plan needs ~" + std::to_string(estimate) +
                   " bytes against a " + std::to_string(config.memory_budget) +
                   "-byte service budget");
        continue;
      }
      // Admissible: wait for capacity. FIFO is preserved — this executor
      // holds the job while it waits, and submissions behind it queue for
      // the other executors.
      cv.wait(lock, [&] {
        return stopping || job.cancel_requested || config.memory_budget == 0 ||
               reserved_bytes + estimate <= config.memory_budget;
      });
      if (stopping || job.cancel_requested) {
        finish(job, JobState::kCancelled, "");
        continue;
      }
      reserved_bytes += estimate;
      job.info.estimated_bytes = estimate;
      job.info.state = JobState::kRunning;

      lock.unlock();
      try {
        run_job(job, scene);
      } catch (const EngineError& e) {
        std::lock_guard<std::mutex> relock(m);
        finish(job, JobState::kFailed, e.what());
      } catch (const WorldFailure& e) {
        std::lock_guard<std::mutex> relock(m);
        finish(job, JobState::kFailed,
               std::string("run failed beyond recovery: ") + e.what());
      }
      lock.lock();
      reserved_bytes -= estimate;
      cv.notify_all();
    }
  }
};

PhotonService::PhotonService(ServiceConfig config, SceneLoader loader)
    : impl_(std::make_unique<Impl>()) {
  impl_->config = config;
  impl_->config.max_active = std::max(config.max_active, 1);
  impl_->loader = std::move(loader);
  for (int i = 0; i < impl_->config.max_active; ++i) {
    impl_->executors.emplace_back([this] { impl_->executor_main(); });
  }
}

PhotonService::~PhotonService() { shutdown(); }

std::uint64_t PhotonService::submit(const JobSpec& spec) {
  if (spec.config.photons == 0) throw ConfigError("job needs photons >= 1");
  if (spec.config.workers < 1 || spec.config.workers > 4096 || spec.config.groups < 1 ||
      spec.config.groups > 4096) {
    throw ConfigError("workers and groups must be in [1, 4096]");
  }
  if (!make_backend(spec.backend)) {
    throw ConfigError("unknown backend '" + spec.backend + "'");
  }

  std::lock_guard<std::mutex> lock(impl_->m);
  if (impl_->stopping) throw ConfigError("service is shutting down");
  const std::uint64_t id = impl_->next_id++;
  auto job = std::make_unique<Job>();
  job->spec = spec;
  job->info.id = id;
  job->info.scene = spec.scene;
  job->info.backend = spec.backend;
  job->info.photons_requested = spec.config.photons;
  impl_->jobs.emplace(id, std::move(job));
  impl_->pending.push_back(id);
  // notify_all: an executor parked on the admission budget shares this cv
  // with executors parked on the queue — notify_one could wake only the
  // former (whose predicate is still false) and strand the new job.
  impl_->cv.notify_all();
  return id;
}

bool PhotonService::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(impl_->m);
  auto it = impl_->jobs.find(id);
  if (it == impl_->jobs.end()) return false;  // unknown or finished
  Job& job = *it->second;
  job.cancel_requested = true;
  // Still in the pending deque: no executor holds it, so nothing will look
  // at cancel_requested until one frees up — finish it here instead of
  // leaving it queued behind the active jobs.
  auto p = std::find(impl_->pending.begin(), impl_->pending.end(), id);
  if (p != impl_->pending.end()) {
    impl_->pending.erase(p);
    impl_->finish(job, JobState::kCancelled, "");
    return true;
  }
  // Held by an executor: either parked on the admission cv (the wait
  // predicate reads cancel_requested) or running (scoped preempt — exactly
  // this job's loops see the vote; the process flag and every other job are
  // untouched).
  job.control->request_preempt();
  impl_->cv.notify_all();
  return true;
}

JobInfo PhotonService::status(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(impl_->m);
  if (auto it = impl_->jobs.find(id); it != impl_->jobs.end()) return it->second->info;
  if (auto it = impl_->finished.find(id); it != impl_->finished.end()) return it->second;
  throw ConfigError("unknown job " + std::to_string(id));
}

std::vector<JobInfo> PhotonService::jobs() const {
  std::lock_guard<std::mutex> lock(impl_->m);
  std::vector<JobInfo> out;
  out.reserve(impl_->jobs.size() + impl_->finished.size());
  for (const auto& [id, job] : impl_->jobs) out.push_back(job->info);
  for (const auto& [id, info] : impl_->finished) out.push_back(info);
  // Both tables are in id order; merge them into one.
  std::inplace_merge(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(impl_->jobs.size()),
                     out.end(), [](const JobInfo& a, const JobInfo& b) { return a.id < b.id; });
  return out;
}

JobInfo PhotonService::wait(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(impl_->m);
  if (impl_->jobs.count(id) == 0 && impl_->finished.count(id) == 0) {
    throw ConfigError("unknown job " + std::to_string(id));
  }
  // finish() destroys the Job, so each wake looks the id up again.
  impl_->done_cv.wait(lock, [&] { return impl_->finished.count(id) != 0; });
  return impl_->finished.at(id);
}

void PhotonService::shutdown() {
  std::vector<std::thread> joinable;
  {
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->stopping = true;
    // Fan preemption out per job: each active run stops at its next window
    // boundary with a resumable partial result.
    for (auto& [id, job] : impl_->jobs) job->control->request_preempt();
    impl_->cv.notify_all();
    joinable.swap(impl_->executors);
  }
  for (std::thread& t : joinable) t.join();
}

std::uint64_t PhotonService::scene_loads() const {
  std::lock_guard<std::mutex> lock(impl_->m);
  return impl_->loads;
}

}  // namespace photon
