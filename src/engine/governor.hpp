// Run governance: graceful preemption, the stuck-run watchdog, and the
// memory budget — the robustness layer every backend runs under.
//
// Four services (DESIGN.md "Run governance"):
//
//   Preemption   An async-signal-safe SIGTERM/SIGINT/SIGUSR1 handler sets a
//                lock-free flag; governed backend loops poll it at window
//                boundaries and stop cleanly with RunStatus::kPreempted —
//                the partial RunResult is a valid window-aligned checkpoint,
//                so rerunning with the same --checkpoint continues bitwise.
//                The distributed backends agree on the stop window with one
//                allreduce of a packed stop word (below), so every rank
//                breaks at the same window and the in-flight exchange drains
//                through the existing end-of-loop path.
//
//   Progress     A process-global liveness beacon generalizing MiniMPI's
//                per-batch heartbeat counters to every backend: serial and
//                shared batch loops, each distributed rank, the worker pool's
//                chunk claims and the accel builds all tick it. Ticking is an
//                atomic bump (no lock on the hot path); labeled slots carry
//                the last batch/window index per participant for the
//                watchdog's snapshot.
//
//   Watchdog     A monitor thread that reads the beacon: no tick for
//                deadline_s seconds makes the run suspect, none for a
//                further grace_s declares it wedged — emergency checkpoint
//                (via callback), progress snapshot, then poison_all_worlds()
//                so every blocked MiniMPI wait throws a typed CommError
//                instead of hanging; run_elastic converts that WorldFailure
//                into a WedgedError (exit 6). A typed abort, never a hang.
//
//   MemoryBudget govern_admission applies the documented degradation ladder
//                to an over-budget run before it starts: rung 1 coarsens the
//                accel leaf parameters (bitwise-neutral by contract), rung 2
//                refuses admission with a typed ResourceError. At run time the
//                governed loops fold the forest footprint into the same stop
//                word and stop with RunStatus::kOverBudget — a resumable
//                graceful stop, not an OOM kill. Window size is
//                result-neutral on every backend, so a shrink-the-window
//                rung could join the ladder bitwise-neutrally; it is not
//                built yet.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/config.hpp"
#include "geom/scene.hpp"

namespace photon {

// How a governed run ended. Not serialized into checkpoints — a checkpoint
// is the same bytes whether the leg ended by count or by preemption.
enum class RunStatus {
  kComplete,    // ran to the configured photon count
  kPreempted,   // stopped at a window boundary on the preempt flag
  kOverBudget,  // stopped at a window boundary on the memory budget
};
const char* run_status_name(RunStatus status);

// ---- Preemption ------------------------------------------------------------

// Installs SIGTERM/SIGINT/SIGUSR1 handlers that call request_preempt().
// Idempotent. The handler writes one lock-free atomic flag and nothing else
// (the async-signal-safety argument in DESIGN.md); everything slow —
// checkpoint flush, telemetry — happens on the polling thread at the next
// window boundary.
void install_preempt_handlers();

// Sets the preempt flag. Async-signal-safe; also callable directly (tests
// preempt deterministically by setting it before the run starts).
void request_preempt();
bool preempt_requested();
void clear_preempt();

// ---- The distributed stop word --------------------------------------------
//
// One allreduce_sum_u64 per window lets every rank derive the same stop
// decision from the same sum: the low 13 bits count preempt votes (world
// width is capped at 4096 ranks), the high bits carry the rank's forest
// footprint in 64 KiB units. The encoding keeps the world-wide sum below
// 2^53 — MiniMPI's allreduce reduces in double, so anything bigger would
// round the vote bits away.
std::uint64_t encode_stop_word(bool preempt, std::uint64_t forest_bytes);
bool stop_word_preempted(std::uint64_t sum);
// True when the summed forest footprint exceeds budget_bytes (0 = unlimited).
bool stop_word_over_budget(std::uint64_t sum, std::uint64_t budget_bytes);

// ---- Progress beacon -------------------------------------------------------

struct ProgressSlot {
  std::string label;         // "serial", "hybrid-rank0", "pool", "accel-build"
  std::uint64_t ticks = 0;   // times this slot ticked
  std::uint64_t detail = 0;  // last batch/window/chunk index reported
  double age_s = 0.0;        // seconds since this slot last ticked
};

struct ProgressSnapshot {
  std::uint64_t total_ticks = 0;
  double stalled_s = 0.0;  // seconds since ANY slot ticked
  std::vector<ProgressSlot> slots;
  std::string to_string() const;  // one line per slot, for diagnostics
};

// A liveness beacon. tick() is the labeled per-batch heartbeat (one
// mutex-free atomic bump plus a short slot update); pulse() is the label-free
// fast path for fine-grained callers (the pool's per-chunk claims). The
// watchdog reads only the atomic total and timestamp, so a beacon tick never
// blocks on the monitor.
//
// instance() is the process-global beacon every unscoped run ticks; beacons
// are also directly constructible so a RunControl can scope one per run (the
// photon service runs one per job — a job's watchdog and tick telemetry must
// not see another job's, or a previous run's, heartbeats).
class Progress {
 public:
  Progress();
  ~Progress();
  Progress(const Progress&) = delete;
  Progress& operator=(const Progress&) = delete;

  static Progress& instance();

  void tick(const char* label, std::uint64_t detail = 0);
  void pulse();  // liveness only; no slot bookkeeping

  std::uint64_t total_ticks() const;
  double seconds_since_tick() const;  // +inf when nothing ever ticked
  ProgressSnapshot snapshot() const;

  // Drops all slots and zeroes the counters (test isolation).
  void reset();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// ---- Per-run scope ---------------------------------------------------------
//
// The preempt flag and the Progress beacon above are process-global — the
// right scope for one CLI run per process, and the wrong one the moment a
// process hosts several runs (the photon service) or runs jobs back to back:
// a stale preempt vote or beacon ticks from a preempted job must not leak
// into the next. A RunControl instances both per run. Attach one via
// RunConfig::control and the governed loops poll/tick it instead of the
// globals; cancelling THIS run is control->request_preempt(), which no other
// job observes. Runs without a control keep the historical global behavior.
class RunControl {
 public:
  RunControl() = default;
  RunControl(const RunControl&) = delete;
  RunControl& operator=(const RunControl&) = delete;

  void request_preempt() { preempt_.store(true, std::memory_order_release); }
  bool preempt_requested() const { return preempt_.load(std::memory_order_acquire); }
  void clear_preempt() { preempt_.store(false, std::memory_order_release); }

  Progress& progress() { return beacon_; }
  const Progress& progress() const { return beacon_; }

 private:
  std::atomic<bool> preempt_{false};
  Progress beacon_;
};

// Scope-aware polling, used by every governed backend loop: the run's own
// control when config.control is set, the process globals otherwise.
bool preempt_requested(const RunConfig& config);

// Consumes the preempt vote the run just honored: called once by the backend
// at the moment it commits to RunStatus::kPreempted, so a SECOND governed
// run in the same process starts with a clean flag instead of inheriting the
// stale vote (the back-to-back-runs bug). Scoped runs clear their own
// control; unscoped runs clear the process flag.
void acknowledge_preempt(const RunConfig& config);

// The beacon a run ticks and its watchdog watches: config.control's
// instance, or the process-global.
Progress& run_progress(const RunConfig& config);

// Labeled per-window tick on the run's beacon. A scoped tick also pulses the
// process-global beacon, so a process-wide watchdog still sees liveness from
// jobs governed by their own controls.
void progress_tick(const RunConfig& config, const char* label, std::uint64_t detail = 0);

// ---- Watchdog --------------------------------------------------------------

// Monitors the Progress beacon from a dedicated thread. State machine:
// HEALTHY --(no tick for deadline_s)--> SUSPECT --(no tick for a further
// grace_s)--> WEDGED (one-way); any tick before the grace expires returns to
// HEALTHY. On WEDGED: capture the snapshot, invoke the emergency callback
// (run_elastic registers the checkpoint flush), poison every MiniMPI world
// so blocked comm waits throw, and — only when exit_on_wedge is set (the CLI
// fallback for a wedge poison cannot reach, e.g. a stuck compute loop) —
// _Exit with the wedged code after one more grace period with no ticks.
class Watchdog {
 public:
  // Monitors `beacon` (the process-global Progress when null). A service
  // passes each job's RunControl beacon so one job's watchdog cannot be fed
  // by another job's ticks.
  Watchdog(double deadline_s, double grace_s, Progress* beacon = nullptr);
  ~Watchdog();  // stops and joins the monitor thread

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Called exactly once when the run is declared wedged, from the monitor
  // thread, before the worlds are poisoned. Set before the run starts.
  void set_emergency(std::function<void(const ProgressSnapshot&)> fn);
  void set_exit_on_wedge(bool enabled);

  // True once the run is declared wedged, the snapshot captured and the
  // emergency callback returned.
  bool fired() const;
  // The snapshot captured at firing (empty when !fired()).
  ProgressSnapshot wedged_snapshot() const;

 private:
  struct Impl;
  Impl* impl_;
};

// ---- Memory budget ---------------------------------------------------------

// What govern_admission decided: the (possibly degraded) accel build
// parameters to run with. estimate_bytes is the planning-time footprint —
// accel + virgin forest + window buffers — not a promise.
struct AdmissionPlan {
  std::uint64_t estimated_bytes = 0;
  AccelBuildParams accel_params{};     // leaf params (rung 1)
  bool coarsened_accel = false;
};

// Applies the degradation ladder for config.memory_budget (0 = unlimited:
// returns the config's own knobs untouched). Rung 1 rebuilds the scene's
// accel with coarser leaf parameters and re-measures the real footprint —
// bitwise-neutral by the AccelStructure contract. Rung 2 throws
// ResourceError when even the coarsest plan exceeds the budget (refused
// admission).
AdmissionPlan govern_admission(Scene& scene, const RunConfig& config);

// The planning-time footprint govern_admission scores, without the ladder:
// const, never rebuilds anything. The photon service admits jobs against a
// shared budget with this and applies no rung — rung 1 (rebuild the accel)
// is off the table for a resident scene other jobs are reading.
std::uint64_t admission_estimate_bytes(const Scene& scene, const RunConfig& config);

}  // namespace photon
