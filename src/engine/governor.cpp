#include "engine/governor.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/error.hpp"
#include "engine/wire.hpp"
#include "hist/binforest.hpp"
#include "mp/minimpi.hpp"

namespace photon {

const char* run_status_name(RunStatus status) {
  switch (status) {
    case RunStatus::kComplete: return "complete";
    case RunStatus::kPreempted: return "preempted";
    case RunStatus::kOverBudget: return "over-budget";
  }
  return "?";
}

// ---- Preemption ------------------------------------------------------------

namespace {

// The whole cross-signal surface: one lock-free flag. The handler stores it
// and returns — no locks, no allocation, no I/O — which is the entirety of
// the async-signal-safety argument (DESIGN.md "Run governance").
std::atomic<bool> g_preempt{false};
static_assert(std::atomic<bool>::is_always_lock_free,
              "the signal handler may only touch lock-free atomics");

void preempt_signal_handler(int) { g_preempt.store(true, std::memory_order_release); }

}  // namespace

void install_preempt_handlers() {
  static std::atomic<bool> installed{false};
  if (installed.exchange(true)) return;
  struct sigaction action {};
  action.sa_handler = preempt_signal_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;  // interrupted syscalls resume; the flag is the signal
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGUSR1, &action, nullptr);
}

void request_preempt() { g_preempt.store(true, std::memory_order_release); }
bool preempt_requested() { return g_preempt.load(std::memory_order_acquire); }
void clear_preempt() { g_preempt.store(false, std::memory_order_release); }

// ---- Stop word -------------------------------------------------------------

namespace {

// Low 13 bits: preempt votes (world width is validated <= 4096 = 2^12, so
// the vote sum can never carry into the footprint field). High bits: forest
// footprint in 64 KiB units (rounded UP, so a small-but-nonzero forest is
// visible to small budgets), capped per rank so even a 4096-rank sum of
// maximal words — including every partial sum of the reduction — stays
// strictly below 2^53: MiniMPI reduces in double, and anything bigger would
// round the vote bits away. 4096 * ((2^27 << 13) | 1) = 2^52 + 2^12.
constexpr int kVoteBits = 13;
constexpr std::uint64_t kVoteMask = (1ull << kVoteBits) - 1;
constexpr int kUnitShift = 16;  // 64 KiB footprint granularity
constexpr std::uint64_t kUnitCap = 1ull << 27;  // 8 TiB per rank

}  // namespace

std::uint64_t encode_stop_word(bool preempt, std::uint64_t forest_bytes) {
  // Overflow-safe ceiling division (a naive `bytes + 65535` wraps at ~0).
  std::uint64_t units =
      (forest_bytes >> kUnitShift) + ((forest_bytes & ((1ull << kUnitShift) - 1)) != 0 ? 1 : 0);
  if (units > kUnitCap) units = kUnitCap;
  return (preempt ? 1ull : 0ull) | (units << kVoteBits);
}

bool stop_word_preempted(std::uint64_t sum) { return (sum & kVoteMask) != 0; }

bool stop_word_over_budget(std::uint64_t sum, std::uint64_t budget_bytes) {
  if (budget_bytes == 0) return false;
  return ((sum >> kVoteBits) << kUnitShift) > budget_bytes;
}

// ---- Progress beacon -------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

struct Progress::Impl {
  std::atomic<std::uint64_t> total{0};
  std::atomic<std::int64_t> last_ns{-1};

  // Labeled slots: found-or-created under the mutex (ticks are batch-grain,
  // so a lock per tick is noise next to the batch body); unique_ptr keeps
  // addresses stable while the vector grows.
  struct Slot {
    std::string label;
    std::atomic<std::uint64_t> ticks{0};
    std::atomic<std::uint64_t> detail{0};
    std::atomic<std::int64_t> last_ns{-1};
  };
  mutable std::mutex m;
  std::vector<std::unique_ptr<Slot>> slots;
};

Progress::Progress() : impl_(std::make_unique<Impl>()) {}
Progress::~Progress() = default;

Progress& Progress::instance() {
  static Progress beacon;
  return beacon;
}

void Progress::pulse() {
  Impl& i = *impl_;
  i.total.fetch_add(1, std::memory_order_relaxed);
  i.last_ns.store(now_ns(), std::memory_order_relaxed);
}

void Progress::tick(const char* label, std::uint64_t detail) {
  Impl& i = *impl_;
  const std::int64_t t = now_ns();
  i.total.fetch_add(1, std::memory_order_relaxed);
  i.last_ns.store(t, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(i.m);
  for (const std::unique_ptr<Impl::Slot>& s : i.slots) {
    if (s->label == label) {
      s->ticks.fetch_add(1, std::memory_order_relaxed);
      s->detail.store(detail, std::memory_order_relaxed);
      s->last_ns.store(t, std::memory_order_relaxed);
      return;
    }
  }
  auto slot = std::make_unique<Impl::Slot>();
  slot->label = label;
  slot->ticks.store(1, std::memory_order_relaxed);
  slot->detail.store(detail, std::memory_order_relaxed);
  slot->last_ns.store(t, std::memory_order_relaxed);
  i.slots.push_back(std::move(slot));
}

std::uint64_t Progress::total_ticks() const {
  return impl_->total.load(std::memory_order_relaxed);
}

double Progress::seconds_since_tick() const {
  const std::int64_t last = impl_->last_ns.load(std::memory_order_relaxed);
  if (last < 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(now_ns() - last) * 1e-9;
}

ProgressSnapshot Progress::snapshot() const {
  Impl& i = *impl_;
  ProgressSnapshot snap;
  snap.total_ticks = i.total.load(std::memory_order_relaxed);
  snap.stalled_s = seconds_since_tick();
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(i.m);
  snap.slots.reserve(i.slots.size());
  for (const std::unique_ptr<Impl::Slot>& s : i.slots) {
    ProgressSlot out;
    out.label = s->label;
    out.ticks = s->ticks.load(std::memory_order_relaxed);
    out.detail = s->detail.load(std::memory_order_relaxed);
    const std::int64_t last = s->last_ns.load(std::memory_order_relaxed);
    out.age_s = last < 0 ? -1.0 : static_cast<double>(t - last) * 1e-9;
    snap.slots.push_back(std::move(out));
  }
  return snap;
}

void Progress::reset() {
  Impl& i = *impl_;
  std::lock_guard<std::mutex> lock(i.m);
  i.slots.clear();
  i.total.store(0, std::memory_order_relaxed);
  i.last_ns.store(-1, std::memory_order_relaxed);
}

// ---- Per-run scope ---------------------------------------------------------

bool preempt_requested(const RunConfig& config) {
  if (config.control) return config.control->preempt_requested();
  return preempt_requested();
}

void acknowledge_preempt(const RunConfig& config) {
  if (config.control) {
    config.control->clear_preempt();
    return;
  }
  clear_preempt();
}

Progress& run_progress(const RunConfig& config) {
  if (config.control) return config.control->progress();
  return Progress::instance();
}

void progress_tick(const RunConfig& config, const char* label, std::uint64_t detail) {
  if (config.control) {
    config.control->progress().tick(label, detail);
    // A scoped job must still register as process liveness: a service-wide
    // watchdog watching the global beacon would otherwise see a busy process
    // as wedged.
    Progress::instance().pulse();
    return;
  }
  Progress::instance().tick(label, detail);
}

std::string ProgressSnapshot::to_string() const {
  std::ostringstream out;
  out << "progress: " << total_ticks << " ticks, stalled " << stalled_s << "s";
  for (const ProgressSlot& s : slots) {
    out << "; " << s.label << ": " << s.ticks << " ticks at index " << s.detail
        << " (" << s.age_s << "s ago)";
  }
  return out.str();
}

// ---- Watchdog --------------------------------------------------------------

struct Watchdog::Impl {
  double deadline_s;
  double grace_s;
  Progress* beacon = nullptr;  // null = the process-global beacon

  Progress& watched() const { return beacon ? *beacon : Progress::instance(); }

  mutable std::mutex m;
  std::condition_variable cv;
  bool stop = false;
  std::function<void(const ProgressSnapshot&)> emergency;
  ProgressSnapshot snap;  // captured at firing

  std::atomic<bool> exit_on_wedge{false};
  std::atomic<bool> fired{false};
  Clock::time_point created = Clock::now();
  std::thread monitor;

  // Age of the last beacon tick, clamped to this watchdog's lifetime so a
  // beacon idle since a previous run does not trip the new watchdog before
  // its run starts ticking.
  double effective_age() const {
    const double since_created =
        std::chrono::duration<double>(Clock::now() - created).count();
    const double since_tick = watched().seconds_since_tick();
    return since_tick < since_created ? since_tick : since_created;
  }

  void monitor_main() {
    const auto slice = std::chrono::duration<double>(
        std::min(std::max(deadline_s / 8.0, 0.01), 0.25));
    std::unique_lock<std::mutex> lock(m);
    for (;;) {
      if (cv.wait_for(lock, slice, [&] { return stop; })) return;
      // HEALTHY below deadline_s; SUSPECT until deadline_s + grace_s (any
      // tick resets the age and returns to HEALTHY); then WEDGED, one-way.
      if (effective_age() < deadline_s + grace_s) continue;

      snap = watched().snapshot();
      if (emergency) {
        // Flush the emergency checkpoint BEFORE poisoning: the callback
        // saves the last completed leg, which no wedged rank can touch.
        emergency(snap);
      }
      // fired() promises the snapshot and the emergency save, so it turns
      // true only after both, and before the poison unwinds the run.
      fired.store(true, std::memory_order_release);
      lock.unlock();
      poison_all_worlds();

      if (!exit_on_wedge.load(std::memory_order_acquire)) return;
      // The CLI fallback for wedges the poison cannot reach (a stuck compute
      // loop runs no comm wait): give the poison one more grace period to
      // unwind the run; a tick means it worked and the typed error path owns
      // the exit.
      const Clock::time_point poisoned_at = Clock::now();
      while (std::chrono::duration<double>(Clock::now() - poisoned_at).count() <
             std::max(grace_s, deadline_s)) {
        std::this_thread::sleep_for(slice);
        {
          std::lock_guard<std::mutex> relock(m);
          if (stop) return;
        }
        if (effective_age() < deadline_s) return;  // run unwedged itself
      }
      std::fprintf(stderr, "photon: watchdog: run wedged and unreachable; %s\n",
                   snap.to_string().c_str());
      std::_Exit(engine_error_exit_code(EngineErrorKind::kWedged));
    }
  }
};

Watchdog::Watchdog(double deadline_s, double grace_s, Progress* beacon)
    : impl_(new Impl) {
  impl_->deadline_s = deadline_s;
  impl_->grace_s = grace_s > 0.0 ? grace_s : deadline_s;
  impl_->beacon = beacon;
  impl_->monitor = std::thread([this] { impl_->monitor_main(); });
}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  impl_->monitor.join();
  delete impl_;
}

void Watchdog::set_emergency(std::function<void(const ProgressSnapshot&)> fn) {
  std::lock_guard<std::mutex> lock(impl_->m);
  impl_->emergency = std::move(fn);
}

void Watchdog::set_exit_on_wedge(bool enabled) {
  impl_->exit_on_wedge.store(enabled, std::memory_order_release);
}

bool Watchdog::fired() const { return impl_->fired.load(std::memory_order_acquire); }

ProgressSnapshot Watchdog::wedged_snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->m);
  return impl_->snap;
}

// ---- Memory budget ---------------------------------------------------------

// Planning-time footprint: the built accel, a virgin forest, and the window
// buffers — the wire bytes of one window and the chunk-record buffers, one
// BounceRecord per photon of the held window. Every photon records its
// emission and most record bounces too, so the record term is a floor. Both
// terms take width × batch photons per window, the largest any backend's
// `batch` reading gives. Coarse by design — the runtime forest growth is
// governed by the stop word, not by this estimate.
std::uint64_t admission_estimate_bytes(const Scene& scene, const RunConfig& config) {
  const int width = std::max(config.workers, 1) * std::max(config.groups, 1);
  const std::uint64_t accel = scene.accel().memory_bytes();
  const std::uint64_t forest = BinForest::virgin_bytes(scene.patch_count());
  const std::uint64_t window =
      static_cast<std::uint64_t>(width) * std::max<std::uint64_t>(config.batch, 1);
  const std::uint64_t wire = window * sizeof(WireRecord);
  const std::uint64_t records = window * sizeof(BounceRecord);
  return accel + forest + wire + records;
}

AdmissionPlan govern_admission(Scene& scene, const RunConfig& config) {
  AdmissionPlan plan;
  plan.estimated_bytes = admission_estimate_bytes(scene, config);
  const std::uint64_t budget = config.memory_budget;
  if (budget == 0 || plan.estimated_bytes <= budget) return plan;

  // Rung 1: coarsen the accel leaf parameters and rebuild — fatter leaves,
  // shallower tree, smaller index. Every structure answers queries bitwise
  // identically at any build parameters (the AccelStructure contract), so
  // this trades traversal speed for memory, never results.
  plan.accel_params.max_leaf_items = 64;
  plan.accel_params.max_depth = 8;
  plan.accel_params.grid_refine_threshold = 96;
  plan.accel_params.grid_sub_res = 2;
  plan.coarsened_accel = true;
  scene.build(plan.accel_params);
  progress_tick(config, "accel-build", scene.patch_count());
  plan.estimated_bytes = admission_estimate_bytes(scene, config);
  if (plan.estimated_bytes <= budget) return plan;

  // Rung 2: refuse admission. Window size is result-neutral on every
  // backend, but no shrink-the-window rung exists yet.
  std::ostringstream what;
  what << "memory budget " << budget << " bytes refused: coarsest plan still needs ~"
       << plan.estimated_bytes << " bytes (accel "
       << scene.accel().memory_bytes() << ", scene " << scene.patch_count()
       << " patches)";
  throw ResourceError(what.str());
}

}  // namespace photon
