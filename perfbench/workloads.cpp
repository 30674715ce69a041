#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/rng.hpp"
#include "engine/backend.hpp"
#include "engine/governor.hpp"
#include "engine/pool.hpp"
#include "engine/recovery.hpp"
#include "engine/wire.hpp"
#include "geom/scenes.hpp"
#include "hist/metrics.hpp"
#include "layers.hpp"
#include "office.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/service.hpp"
#include "sim/checkpoint.hpp"
#include "view/viewer.hpp"

namespace perfbench {

using photon::BinForest;
using photon::RunConfig;
using photon::RunResult;
using photon::Scene;
using Clock = std::chrono::steady_clock;

namespace {

// Parallel width of every workload: the four cores of the target machine.
constexpr int kWidth = 4;
constexpr double kMiB = 1024.0 * 1024.0;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Workload seeds become 48-bit photon seeds (splitmix64, so nearby seeds
// give unrelated streams).
std::uint64_t photon_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + salt;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return (x ^ (x >> 31)) & photon::Lcg48::kModMask;
}

// The run configuration photon_cli builds for `simulate`: governed, default
// batch/chunk/split policy, default (octree) accel.
RunConfig cli_config(std::uint64_t seed, const std::string& stop_path) {
  RunConfig config;
  config.seed = seed;
  config.workers = kWidth;
  config.governed = true;
  config.emergency_checkpoint_path = stop_path;
  return config;
}

bool conserved(const RunResult& r, std::uint64_t photons) {
  return r.forest.total_tally_all() == r.counters.emitted + r.counters.bounces &&
         r.forest.emitted_total() == photons && r.counters.emitted == photons;
}

// Window durations from a run's speed trace (points are cumulative times).
void append_windows(const photon::SpeedTrace& trace, std::vector<double>& out) {
  double prev = 0.0;
  for (const photon::SpeedPoint& p : trace.points) {
    out.push_back(p.time_s - prev);
    prev = p.time_s;
  }
}

double max_over_mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0, mx = 0.0;
  for (const double x : v) {
    sum += x;
    mx = std::max(mx, x);
  }
  return sum > 0.0 ? mx / (sum / static_cast<double>(v.size())) : 0.0;
}

// p99 under the percentile rule; a refused percentile reports 0.
double p99_or_zero(const std::vector<double>& v) { return percentile(v, 99.0).value_or(0.0); }

// Collects per-layer values by catalog name; finish() emits the whole
// catalog in order, 0 for layers the workload does not exercise.
class Layers {
 public:
  void set(const std::string& name, double value) {
    const auto& cat = per_layer_catalog();
    if (std::none_of(cat.begin(), cat.end(), [&](const Metric& m) { return m.name == name; })) {
      throw std::logic_error("per-layer metric not in the catalog: " + name);
    }
    values_[name] = value;
  }
  std::vector<Metric> finish() const {
    std::vector<Metric> out = per_layer_catalog();
    for (Metric& m : out) {
      const auto it = values_.find(m.name);
      m.value = it == values_.end() ? 0.0 : it->second;
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

// The single-thread rate the run would have at width 1 (trace + tally on one
// thread), and from it the run's parallel efficiency and the wall time no
// layer accounts for.
void set_par_model(Layers& layers, double run_s, std::uint64_t photons, std::uint64_t tallies,
                   double trace_rate, double tally_rate) {
  const double serial_s = static_cast<double>(photons) / trace_rate +
                          static_cast<double>(tallies) / tally_rate;
  layers.set("par.efficiency", (static_cast<double>(photons) / run_s) /
                                   (kWidth * static_cast<double>(photons) / serial_s));
  layers.set("par.unaccounted_s", run_s - serial_s / kWidth);
}

void set_ray_layers(Layers& layers, const Scene& scene, const Capture& capture) {
  const RayStats rays = ray_stats(scene, photon_rays(scene, capture.records));
  layers.set("geom.photon_rays_per_s", rays.rays_per_s);
  layers.set("geom.nodes_per_ray", rays.nodes_per_ray);
  layers.set("geom.tests_per_ray", rays.tests_per_ray);
}

void set_forest_layers(Layers& layers, const BinForest& forest) {
  const photon::ForestMetrics m = photon::compute_metrics(forest);
  layers.set("hist.bins", static_cast<double>(m.leaves));
  layers.set("hist.max_depth", m.max_depth);
  layers.set("hist.forest_mb", static_cast<double>(forest.memory_bytes()) / kMiB);
}

void set_counter_layers(Layers& layers, const photon::TraceCounters& c) {
  const double emitted = static_cast<double>(std::max<std::uint64_t>(c.emitted, 1));
  layers.set("geom.rays_per_photon",
             static_cast<double>(c.bounces + c.absorbed + c.escaped) / emitted);
  layers.set("sim.bounces_per_photon", c.bounces_per_photon());
  layers.set("hist.tallies", static_cast<double>(c.emitted + c.bounces));
}

// ---- interior-bake ---------------------------------------------------------

constexpr int kBakeSetups = 5;
constexpr int kBakeLegs = 4;
constexpr std::uint64_t kLegPhotons = 150000;
constexpr std::uint64_t kWarmupPhotons = 40000;
constexpr int kViews = 8;
constexpr int kViewWidth = 640;
constexpr int kViewHeight = 480;
constexpr std::uint64_t kBakeReplayPhotons = 20000;

// One timed bake + view cycle.
struct Bake {
  double bake_s = 0.0;  // first leg started -> answer file on disk
  double view_s = 0.0;  // answer load started -> last view rendered
  double run_s = 0.0;   // summed run_elastic wall of the four legs
  photon::TraceCounters counters;
  std::vector<double> windows;
  std::uint64_t pool_chunks = 0;
  std::uint64_t pool_steals = 0;
  std::vector<double> worker_photons;
};

struct BakeInputs {
  const Scene& scene;
  const std::vector<photon::Camera>& cameras;
  photon::Backend& backend;
  RunConfig config;
  std::string checkpoint;
  std::string answer;
};

Bake bake_cycle(const BakeInputs& in, SpanRecorder& spans, Checks& checks, BinForest& loaded) {
  namespace fs = std::filesystem;
  using photon::CheckpointStatus;
  Bake bake;
  std::error_code ec;
  fs::remove(in.checkpoint, ec);  // every bake starts as a fresh job

  const auto t0 = Clock::now();
  const int bake_span = spans.open("bake");
  RunResult last;
  for (int leg = 1; leg <= kBakeLegs; ++leg) {
    // A preemptible job rerunning `simulate --checkpoint`: adopt the
    // checkpoint (none yet on the first leg), trace up to this leg's total,
    // save atomically.
    RunResult resume;
    CheckpointStatus status;
    {
      Scope s(spans, leg == 1 ? "ckpt.probe" : "ckpt.load", bake_span);
      status = photon::load_checkpoint_status(in.checkpoint, resume);
    }
    const bool adopted = status == CheckpointStatus::kOk;
    const CheckpointStatus expected =
        leg == 1 ? CheckpointStatus::kOpenFailed : CheckpointStatus::kOk;
    const std::uint64_t target = static_cast<std::uint64_t>(leg) * kLegPhotons;
    const std::uint64_t done = adopted ? resume.counters.emitted : 0;
    RunConfig config = in.config;
    config.photons = target > done ? target - done : 0;

    RunResult result;
    {
      Scope s(spans, "run", bake_span);
      const auto r0 = Clock::now();
      result = photon::run_elastic(in.backend, in.scene, config, adopted ? &resume : nullptr);
      bake.run_s += since(r0);
    }
    checks.record(status == expected && result.status == photon::RunStatus::kComplete &&
                      result.counters.emitted == target,
                  "bake leg " + std::to_string(leg) + ": checkpoint " +
                      photon::checkpoint_status_name(status) + ", run " +
                      photon::run_status_name(result.status));
    bool saved;
    {
      Scope s(spans, "ckpt.save", bake_span);
      saved = photon::save_checkpoint(result, in.checkpoint);
    }
    checks.record(saved, "checkpoint save");

    append_windows(result.trace, bake.windows);
    bake.pool_chunks += result.pool.chunks;
    bake.pool_steals += result.pool.steals;
    bake.worker_photons.resize(result.pool.worker_photons.size(), 0.0);
    for (std::size_t w = 0; w < result.pool.worker_photons.size(); ++w) {
      bake.worker_photons[w] += static_cast<double>(result.pool.worker_photons[w]);
    }
    last = std::move(result);
  }
  bool saved;
  {
    Scope s(spans, "hist.answer_save", bake_span);
    saved = last.forest.save(in.answer);
  }
  bake.bake_s = since(t0);
  spans.close(bake_span);
  checks.record(saved && conserved(last, kBakeLegs * kLegPhotons),
                "answer save and conservation (tallies == emitted + bounces)");
  bake.counters = last.counters;

  const auto v0 = Clock::now();
  const int view_span = spans.open("view");
  bool reloaded;
  {
    Scope s(spans, "hist.answer_load", view_span);
    reloaded = BinForest::load(in.answer, loaded);
  }
  checks.record(reloaded && loaded == last.forest, "answer file reloads equal to the saved forest");
  photon::ViewOptions view;
  view.threads = kWidth;
  for (const photon::Camera& camera : in.cameras) {
    double luminance;
    {
      Scope s(spans, "view.render", view_span);
      luminance = photon::render(in.scene, loaded, camera, view).mean_luminance();
    }
    checks.record(std::isfinite(luminance) && luminance > 0.0, "view mean luminance finite, > 0");
  }
  bake.view_s = since(v0);
  spans.close(view_span);
  return bake;
}

// ---- cornell-dist ----------------------------------------------------------

constexpr std::size_t kDistSetups = 1001;
constexpr int kDistSetupBlock = 50;
constexpr std::uint64_t kDistBatch = 1000;  // photons per rank per round
constexpr std::uint64_t kDistPhotons = 1000000;
constexpr std::uint64_t kDistWarmupPhotons = 100000;
constexpr std::uint64_t kDistReplayPhotons = 50000;

struct DistRun {
  double run_s = 0.0;    // run_elastic wall
  double total_s = 0.0;  // run start -> answer file on disk
  std::vector<double> windows;
};

// ---- service-mix -----------------------------------------------------------

constexpr int kServiceSetups = 11;
constexpr int kClients = 4;
constexpr int kMaxActive = 2;
constexpr std::uint64_t kJobPhotons = 5000;
// The job list is 200 jobs per second of --seconds (about as long as a
// 4-core machine takes to serve them on a quiet host) and never under 1000,
// so p99 has ten beyond it. A fixed list, not a deadline: the daemon keeps
// every finished connection thread's stack until it stops, so a pass's
// memory grows with the jobs it has served, and a fixed list keeps that the
// same run to run.
constexpr double kJobsPerSecond = 200.0;
constexpr std::size_t kMinJobs = 1000;
constexpr std::size_t kWarmupJobs = 270;
constexpr int kPings = 500;

struct JobKind {
  const char* scene;
  const char* backend;
  int workers;
  int groups;
};
constexpr JobKind kJobKinds[] = {
    {"cornell", "serial", 1, 1},     {"cornell", "shared", 2, 1},
    {"cornell", "hybrid", 1, 2},     {"harpsichord", "serial", 1, 1},
    {"harpsichord", "shared", 2, 1}, {"harpsichord", "hybrid", 1, 2},
    {"lab", "serial", 1, 1},         {"lab", "shared", 2, 1},
    {"lab", "hybrid", 1, 2},
};
constexpr int kKindCount = static_cast<int>(sizeof(kJobKinds) / sizeof(kJobKinds[0]));

// The seeded job list: every block of nine jobs is one shuffle of the nine
// kinds, so every seed runs the same mix in a different order.
std::vector<int> job_list(std::uint64_t seed, std::size_t jobs) {
  photon::Lcg48 rng(seed);
  std::vector<int> list;
  int block[kKindCount];
  while (list.size() < jobs) {
    for (int i = 0; i < kKindCount; ++i) block[i] = i;
    for (int i = kKindCount - 1; i > 0; --i) {
      std::swap(block[i], block[rng.uniform_int(static_cast<std::uint64_t>(i) + 1)]);
    }
    list.insert(list.end(), block, block + kKindCount);
  }
  list.resize(jobs);
  return list;
}

// Raw value of `"key": value` in a one-line JSON reply ("" when absent).
std::string json_field(const std::string& reply, const std::string& key) {
  const std::string tag = "\"" + key + "\": ";
  const std::size_t at = reply.find(tag);
  if (at == std::string::npos) return "";
  std::size_t b = at + tag.size();
  if (b < reply.size() && reply[b] == '"') {
    const std::size_t e = reply.find('"', b + 1);
    return e == std::string::npos ? "" : reply.substr(b + 1, e - b - 1);
  }
  const std::size_t e = reply.find_first_of(",}", b);
  return reply.substr(b, e == std::string::npos ? std::string::npos : e - b);
}

struct JobSample {
  double latency_s = 0.0;  // submit sent -> wait reply received
  double wall_s = 0.0;     // the job's own run time, from the reply
  std::uint64_t emitted = 0;
  std::uint64_t bounces = 0;
  std::string state;
  bool ok = false;
};

// One job the way `photon_cli submit --wait` runs it: one connection for
// submit, one for wait.
JobSample run_job(const std::string& socket, const JobKind& kind, std::uint64_t seed,
                  SpanRecorder& spans, int parent) {
  JobSample job;
  char line[256];
  std::snprintf(line, sizeof line,
                "submit scene=%s backend=%s photons=%llu seed=%llu workers=%d groups=%d",
                kind.scene, kind.backend, static_cast<unsigned long long>(kJobPhotons),
                static_cast<unsigned long long>(seed), kind.workers, kind.groups);
  const double t0 = spans.now();
  const auto c0 = Clock::now();
  std::string reply;
  {
    photon::ServiceClient client(socket);
    if (!client.ok() || !client.request(line, reply)) return job;
  }
  const double t1 = spans.now();
  const std::string id = json_field(reply, "job");
  if (id.empty()) return job;
  {
    photon::ServiceClient client(socket);
    if (!client.ok() || !client.request("wait job=" + id, reply)) return job;
  }
  job.latency_s = since(c0);
  const double t2 = spans.now();
  const std::int64_t job_id = std::atoll(id.c_str());
  const int span = spans.add("service.job", t0, t2, parent, job_id);
  spans.add("service.submit", t0, t1, span, job_id);
  spans.add("service.wait", t1, t2, span, job_id);

  job.state = json_field(reply, "state");
  job.emitted = std::strtoull(json_field(reply, "emitted").c_str(), nullptr, 10);
  job.bounces = std::strtoull(json_field(reply, "bounces").c_str(), nullptr, 10);
  job.wall_s = std::strtod(json_field(reply, "wall_s").c_str(), nullptr);
  job.ok = job.state == "done" && job.emitted == kJobPhotons;
  return job;
}

// A PhotonService with its in-process daemon thread on `socket`.
class Daemon {
 public:
  Daemon(const std::map<std::string, std::shared_ptr<const Scene>>& scenes,
         const std::string& socket)
      : service_(service_config(), [scenes](const std::string& name, photon::AccelKind) {
          const auto it = scenes.find(name);
          if (it == scenes.end()) throw photon::SceneError("unknown scene '" + name + "'");
          return it->second;
        }),
        socket_(socket),
        thread_([this] {
          // A socket that cannot be set up shows as wait_ready() failing.
          photon::run_daemon(service_, socket_, [this] {
            return stop_.load(std::memory_order_acquire) || photon::preempt_requested();
          });
        }) {}
  ~Daemon() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Blocks until the daemon answers `ping` (false after ~10 s of refusals).
  bool wait_ready() const {
    for (int attempt = 0; attempt < 10000; ++attempt) {
      photon::ServiceClient client(socket_);
      std::string reply;
      if (client.ok() && client.request("ping", reply) && reply.find("\"ok\"") != std::string::npos) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  photon::PhotonService& service() { return service_; }

 private:
  static photon::ServiceConfig service_config() {
    photon::ServiceConfig config;
    config.max_active = kMaxActive;
    return config;
  }

  photon::PhotonService service_;
  const std::string socket_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: it uses every member above
};

}  // namespace

bool Checks::record(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
  return ok;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

const std::vector<Metric>& per_layer_catalog() {
  static const std::vector<Metric> catalog = {
      {"geom.build_s", 0, "s"},
      {"geom.accel_mb", 0, "MiB"},
      {"geom.rays_per_photon", 0, "rays/photon"},
      {"geom.photon_rays_per_s", 0, "rays/s"},
      {"geom.nodes_per_ray", 0, "nodes/ray"},
      {"geom.tests_per_ray", 0, "tests/ray"},
      {"geom.view_rays_per_s", 0, "rays/s"},
      {"sim.trace_photons_per_s", 0, "photons/s"},
      {"sim.bounces_per_photon", 0, "bounces/photon"},
      {"hist.tallies", 0, "count"},
      {"hist.tallies_per_s", 0, "tallies/s"},
      {"hist.lookups_per_s", 0, "lookups/s"},
      {"hist.bins", 0, "count"},
      {"hist.max_depth", 0, "count"},
      {"hist.forest_mb", 0, "MiB"},
      {"hist.answer_save_s", 0, "s"},
      {"hist.answer_load_s", 0, "s"},
      {"ckpt.save_s", 0, "s"},
      {"ckpt.load_s", 0, "s"},
      {"ckpt.mb", 0, "MiB"},
      {"pool.chunks", 0, "count"},
      {"pool.steals", 0, "count"},
      {"pool.imbalance", 0, "ratio"},
      {"pool.dispatch_us", 0, "us"},
      {"par.windows", 0, "count"},
      {"par.window_s_p50", 0, "s"},
      {"par.window_s_p99", 0, "s"},
      {"par.efficiency", 0, "ratio"},
      {"par.unaccounted_s", 0, "s"},
      {"mp.bytes_per_photon", 0, "B/photon"},
      {"mp.messages", 0, "count"},
      {"mp.rounds", 0, "count"},
      {"mp.deadline_retries", 0, "count"},
      {"mp.record_wait_s", 0, "s"},
      {"mp.rank_imbalance", 0, "ratio"},
      {"mp.foreign_share", 0, "ratio"},
      {"mp.alltoall_us", 0, "us"},
      {"view.render_s", 0, "s"},
      {"view.pixels_per_s", 0, "pixels/s"},
      {"service.latency_p99_s", 0, "s"},
      {"service.run_s_p50", 0, "s"},
      {"service.queue_s_p50", 0, "s"},
      {"service.queue_s_p99", 0, "s"},
      {"service.rpc_us", 0, "us"},
      {"service.scene_loads", 0, "count"},
      {"service.refused", 0, "count"},
      {"service.failed", 0, "count"},
      {"trace.overhead", 0, "ratio"},
  };
  return catalog;
}

// ---- interior-bake ---------------------------------------------------------

Outcome run_interior_bake(const Options& options, SpanRecorder& spans) {
  Outcome out;
  Checks& checks = out.checks;

  // Setup: generate, validate, build the default accel — several times, the
  // median is setup_s; the last scene is the one baked.
  std::vector<double> setups;
  Office office;
  for (int i = 0; i < kBakeSetups; ++i) {
    office = Office{};  // free the previous accel before the next build
    const auto t0 = Clock::now();
    const int setup_span = spans.open("setup");
    {
      Scope s(spans, "office.generate", setup_span);
      office = generate_office(options.seed);
    }
    {
      Scope s(spans, "scene.validate", setup_span);
      photon::validate_scene(office.scene);
    }
    {
      Scope s(spans, "geom.build", setup_span);
      office.scene.build();
    }
    setups.push_back(since(t0));
    spans.close(setup_span);
  }
  const Scene& scene = office.scene;
  const std::vector<photon::Camera> cameras =
      walkthrough(office, options.seed, kViews, kViewWidth, kViewHeight);
  const std::unique_ptr<photon::Backend> backend = photon::make_backend("shared");
  const BakeInputs in{scene,
                      cameras,
                      *backend,
                      cli_config(photon_seed(options.seed, 1), options.work_dir + "/office.ckpt"),
                      options.work_dir + "/office.ckpt",
                      options.work_dir + "/office.answer"};

  // Warm-up: pool threads, page cache, the forest's first allocations.
  {
    RunConfig warm = in.config;
    warm.photons = kWarmupPhotons;
    const RunResult r = photon::run_elastic(*backend, scene, warm);
    photon::ViewOptions view;
    view.threads = kWidth;
    photon::render(scene, r.forest, cameras.front(), view);
  }

  BinForest loaded;
  const auto timed_pass = [&](SpanRecorder& rec) {
    std::vector<Bake> bakes;
    const auto t0 = Clock::now();
    do {
      bakes.push_back(bake_cycle(in, rec, checks, loaded));
    } while (since(t0) < options.seconds);
    return bakes;
  };
  const auto photons_per_s = [](const std::vector<Bake>& bakes) {
    std::vector<double> v;
    for (const Bake& b : bakes) v.push_back(kBakeLegs * kLegPhotons / b.bake_s);
    return median(v);
  };
  const auto pixels_per_s = [](const std::vector<Bake>& bakes) {
    std::vector<double> v;
    for (const Bake& b : bakes) v.push_back(kViews * kViewWidth * kViewHeight / b.view_s);
    return median(v);
  };

  SpanRecorder off(false);
  const std::vector<Bake> timed = timed_pass(off);
  // A job is one bake followed by its walkthrough; jobs run one at a time.
  std::vector<double> job_s;
  for (const Bake& b : timed) job_s.push_back(b.bake_s + b.view_s);
  out.end_to_end = {
      {"photons_per_s", photons_per_s(timed), "photons/s"},
      {"jobs_per_s", 1.0 / median(job_s), "jobs/s"},
      {"latency_p50_s", median(job_s), "s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
  out.other = {{"view_pixels_per_s", pixels_per_s(timed), "pixels/s"}};
  if (!options.trace) return out;

  const std::vector<Bake> traced = timed_pass(spans);
  const Bake& last = traced.back();
  Layers layers;
  layers.set("trace.overhead", photons_per_s(timed) / photons_per_s(traced) - 1.0);
  layers.set("geom.build_s", median(spans.durations("geom.build")));
  layers.set("geom.accel_mb", static_cast<double>(scene.accel().memory_bytes()) / kMiB);
  set_counter_layers(layers, last.counters);
  set_forest_layers(layers, loaded);
  layers.set("hist.answer_save_s", median(spans.durations("hist.answer_save")));
  layers.set("hist.answer_load_s", median(spans.durations("hist.answer_load")));
  layers.set("ckpt.save_s", median(spans.durations("ckpt.save")));
  layers.set("ckpt.load_s", median(spans.durations("ckpt.load")));
  std::error_code ec;
  layers.set("ckpt.mb", static_cast<double>(std::filesystem::file_size(in.checkpoint, ec)) / kMiB);
  layers.set("pool.chunks", static_cast<double>(last.pool_chunks));
  layers.set("pool.steals", static_cast<double>(last.pool_steals));
  layers.set("pool.imbalance", max_over_mean(last.worker_photons));
  layers.set("view.render_s", median(spans.durations("view.render")));
  layers.set("view.pixels_per_s", pixels_per_s(traced));
  std::vector<double> windows, run_s;
  for (const Bake& b : traced) {
    windows.insert(windows.end(), b.windows.begin(), b.windows.end());
    run_s.push_back(b.run_s);
  }
  layers.set("par.windows", static_cast<double>(last.windows.size()));
  layers.set("par.window_s_p50", median(windows));
  layers.set("par.window_s_p99", p99_or_zero(windows));

  // Replays, single-threaded, on the bake's first photon ids.
  const Capture capture = capture_records(scene, in.config, kBakeReplayPhotons);
  const double trace_rate = trace_photons_per_s(scene, in.config, kBakeReplayPhotons);
  const double tally_rate = tallies_per_s(scene, in.config, capture.records);
  layers.set("sim.trace_photons_per_s", trace_rate);
  layers.set("hist.tallies_per_s", tally_rate);
  set_ray_layers(layers, scene, capture);
  std::vector<photon::Ray> view_rays;
  for (const photon::Camera& camera : cameras) {
    const std::vector<photon::Ray> rays = camera_rays(camera, 4);
    view_rays.insert(view_rays.end(), rays.begin(), rays.end());
  }
  layers.set("geom.view_rays_per_s", ray_stats(scene, view_rays).rays_per_s);
  layers.set("hist.lookups_per_s", lookups_per_s(scene, loaded, view_rays));
  layers.set("pool.dispatch_us",
             pool_dispatch_us(photon::chunk_count(in.config.batch, in.config.chunk), kWidth));
  set_par_model(layers, median(run_s), kBakeLegs * kLegPhotons,
                last.counters.emitted + last.counters.bounces, trace_rate, tally_rate);
  out.per_layer = layers.finish();
  return out;
}

// ---- cornell-dist ----------------------------------------------------------

Outcome run_cornell_dist(const Options& options, SpanRecorder& spans) {
  Outcome out;
  Checks& checks = out.checks;

  // A setup takes ~10 or ~16 us, depending on where the pool's helper
  // threads are when the octree build dispatches to them, and that changes
  // over seconds. So the setups run in blocks spread over the timed pass,
  // not in one burst that would sit in one mode.
  std::vector<double> setups;
  Scene scene;
  std::unique_ptr<photon::Backend> backend;
  const auto setup_block = [&] {
    for (int i = 0; i < kDistSetupBlock && setups.size() < kDistSetups; ++i) {
      const auto t0 = Clock::now();
      Scope s(spans, "setup");
      scene = photon::scenes::cornell_box();
      photon::validate_scene(scene);
      backend = photon::make_backend("dist-particle");
      setups.push_back(since(t0));
    }
  };
  setup_block();
  RunConfig config = cli_config(photon_seed(options.seed, 2), options.work_dir + "/cornell.ckpt");
  config.batch = kDistBatch;
  config.photons = kDistPhotons;
  const std::string answer = options.work_dir + "/cornell.answer";

  {
    RunConfig warm = config;
    warm.photons = kDistWarmupPhotons;
    photon::run_elastic(*backend, scene, warm);
  }

  RunResult last;  // the last run's result, for the per-layer counts
  const auto timed_pass = [&](SpanRecorder& rec) {
    std::vector<DistRun> runs;
    const auto t0 = Clock::now();
    do {
      DistRun run;
      const int span = rec.open("dist");
      const auto r0 = Clock::now();
      {
        Scope s(rec, "run", span);
        last = photon::run_elastic(*backend, scene, config);
      }
      run.run_s = since(r0);
      bool saved;
      {
        Scope s(rec, "hist.answer_save", span);
        saved = last.forest.save(answer);
      }
      run.total_s = since(r0);
      rec.close(span);
      checks.record(last.status == photon::RunStatus::kComplete && conserved(last, kDistPhotons),
                    std::string("dist run ") + photon::run_status_name(last.status) +
                        " and conservation (tallies == emitted + bounces)");
      checks.record(saved, "answer save");
      append_windows(last.trace, run.windows);
      runs.push_back(std::move(run));
      setup_block();
    } while (since(t0) < options.seconds);
    return runs;
  };
  const auto photons_per_s = [](const std::vector<DistRun>& runs) {
    std::vector<double> v;
    for (const DistRun& r : runs) v.push_back(kDistPhotons / r.total_s);
    return median(v);
  };

  SpanRecorder off(false);
  const std::vector<DistRun> timed = timed_pass(off);
  // A job is one run and its answer save; jobs run one at a time.
  std::vector<double> job_s;
  for (const DistRun& r : timed) job_s.push_back(r.total_s);
  out.end_to_end = {
      {"photons_per_s", photons_per_s(timed), "photons/s"},
      {"jobs_per_s", 1.0 / median(job_s), "jobs/s"},
      {"latency_p50_s", median(job_s), "s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
  if (!options.trace) return out;

  const std::vector<DistRun> traced = timed_pass(spans);
  Layers layers;
  layers.set("trace.overhead", photons_per_s(timed) / photons_per_s(traced) - 1.0);
  {
    // Scene::build on the resident scene: the build span setup_s contains.
    std::vector<double> builds;
    for (int i = 0; i < 11; ++i) {
      const auto t0 = Clock::now();
      Scope s(spans, "geom.build");
      scene.build();
      builds.push_back(since(t0));
    }
    layers.set("geom.build_s", median(builds));
  }
  layers.set("geom.accel_mb", static_cast<double>(scene.accel().memory_bytes()) / kMiB);
  set_counter_layers(layers, last.counters);
  set_forest_layers(layers, last.forest);
  layers.set("hist.answer_save_s", median(spans.durations("hist.answer_save")));

  std::vector<double> windows, run_s;
  for (const DistRun& r : traced) {
    windows.insert(windows.end(), r.windows.begin(), r.windows.end());
    run_s.push_back(r.run_s);
  }
  layers.set("par.windows", static_cast<double>(last.trace.points.size()));
  layers.set("par.window_s_p50", median(windows));
  layers.set("par.window_s_p99", p99_or_zero(windows));

  // MiniMPI and wire: summed over the rank reports of the last run.
  std::uint64_t bytes = 0, messages = 0, rounds = 0, retries = 0;
  double wait_s = 0.0;
  std::vector<double> processed;
  for (const photon::RankReport& r : last.ranks) {
    bytes += r.sent_bytes;
    messages += r.sent_messages;
    rounds += r.rounds;
    retries += r.deadline_retries;
    wait_s += r.wait_seconds;
    processed.push_back(static_cast<double>(r.processed));
  }
  // The end-of-run gather ships every non-root rank's owned trees; what is
  // left of the sent bytes is the record exchange.
  std::uint64_t gather_bytes = 0;
  for (int rank = 1; rank < static_cast<int>(last.ranks.size()); ++rank) {
    gather_bytes += last.forest.pack_owned_trees(last.balance.owner, rank).size();
  }
  const std::uint64_t record_bytes = bytes > gather_bytes ? bytes - gather_bytes : 0;
  const double tallies = static_cast<double>(last.counters.emitted + last.counters.bounces);
  layers.set("mp.bytes_per_photon", static_cast<double>(bytes) / kDistPhotons);
  layers.set("mp.messages", static_cast<double>(messages));
  layers.set("mp.rounds", static_cast<double>(rounds));
  layers.set("mp.deadline_retries", static_cast<double>(retries));
  layers.set("mp.record_wait_s", wait_s);
  layers.set("mp.rank_imbalance", max_over_mean(processed));
  layers.set("mp.foreign_share",
             static_cast<double>(record_bytes / sizeof(photon::WireRecord)) / tallies);

  const Capture capture = capture_records(scene, config, kDistReplayPhotons);
  const double trace_rate = trace_photons_per_s(scene, config, kDistReplayPhotons);
  const double tally_rate = tallies_per_s(scene, config, capture.records);
  layers.set("sim.trace_photons_per_s", trace_rate);
  layers.set("hist.tallies_per_s", tally_rate);
  set_ray_layers(layers, scene, capture);
  layers.set("mp.alltoall_us",
             alltoall_us(kWidth, rounds ? record_bytes / rounds : 0));
  set_par_model(layers, median(run_s), kDistPhotons,
                last.counters.emitted + last.counters.bounces, trace_rate, tally_rate);
  out.per_layer = layers.finish();
  return out;
}

// ---- service-mix -----------------------------------------------------------

Outcome run_service_mix(const Options& options, SpanRecorder& spans) {
  Outcome out;
  Checks& checks = out.checks;
  const std::string socket = options.work_dir + "/service.sock";
  const char* const scene_names[] = {"cornell", "harpsichord", "lab"};

  // Setup: the three scenes built and the daemon answering ping.
  std::vector<double> setups;
  std::map<std::string, std::shared_ptr<const Scene>> scenes;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kServiceSetups; ++i) {
    daemon.reset();
    scenes.clear();
    const auto t0 = Clock::now();
    Scope s(spans, "setup");
    for (const char* name : scene_names) {
      scenes[name] = std::make_shared<const Scene>(photon::scenes::by_name(name));
    }
    daemon = std::make_unique<Daemon>(scenes, socket);
    if (!checks.record(daemon->wait_ready(), "daemon answers ping")) return out;
    setups.push_back(since(t0));
  }

  const std::vector<int> kinds = job_list(
      photon_seed(options.seed, 5),
      std::max(kMinJobs, static_cast<std::size_t>(std::ceil(kJobsPerSecond * options.seconds))));
  // One pass serves the whole list with kClients closed-loop clients, each
  // taking the next job once its previous one is answered.
  const auto serve = [&](const std::vector<int>& kinds, SpanRecorder& rec, double& wall_s) {
    std::vector<JobSample> jobs(kinds.size());
    std::atomic<std::size_t> next{0};
    const auto t0 = Clock::now();
    const int loop_span = rec.open("service.clients");
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        for (std::size_t i; (i = next.fetch_add(1)) < kinds.size();) {
          jobs[i] = run_job(socket, kJobKinds[kinds[i]], photon_seed(options.seed, 6 + i), rec,
                            loop_span);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    wall_s = since(t0);
    rec.close(loop_span);
    checks.record(daemon->service().scene_loads() == 3,
                  "service.scene_loads == 3, got " +
                      std::to_string(daemon->service().scene_loads()));
    for (const JobSample& j : jobs) {
      checks.record(j.ok, "service job " + (j.state.empty() ? "unanswered" : j.state) +
                              " with " + std::to_string(j.emitted) + " photons emitted");
    }
    return jobs;
  };
  // A failed job counts as over any latency limit.
  const auto latencies = [](const std::vector<JobSample>& jobs) {
    std::vector<double> v;
    for (const JobSample& j : jobs) v.push_back(j.ok ? j.latency_s : HUGE_VAL);
    return v;
  };
  const auto photons = [](const std::vector<JobSample>& jobs) {
    double n = 0.0;
    for (const JobSample& j : jobs) n += j.ok ? static_cast<double>(j.emitted) : 0.0;
    return n;
  };

  // Warm-up before each timed pass: a short list through the same clients,
  // which also makes the three scenes resident.
  SpanRecorder off(false);
  const auto warm_up = [&] {
    double ignored = 0.0;
    serve(job_list(photon_seed(options.seed, 3), kWarmupJobs), off, ignored);
  };
  warm_up();
  double wall_s = 0.0;
  const std::vector<JobSample> timed = serve(kinds, off, wall_s);
  out.end_to_end = {
      {"photons_per_s", photons(timed) / wall_s, "photons/s"},
      {"jobs_per_s", static_cast<double>(timed.size()) / wall_s, "jobs/s"},
      {"latency_p50_s", median(latencies(timed)), "s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
  out.other = {{"latency_p99_s", p99_or_zero(latencies(timed)), "s"}};
  if (!options.trace) return out;

  // The traced pass gets a fresh daemon too, so it starts with no leftover
  // connection threads (see kJobsPerSecond). The old daemon goes first:
  // stopping removes the socket file at the shared path.
  daemon.reset();
  daemon = std::make_unique<Daemon>(scenes, socket);
  if (!checks.record(daemon->wait_ready(), "daemon answers ping")) return out;
  warm_up();
  double traced_wall_s = 0.0;
  const std::vector<JobSample> traced = serve(kinds, spans, traced_wall_s);
  Layers layers;
  layers.set("trace.overhead", traced_wall_s / wall_s - 1.0);
  std::vector<double> run_s, queue_s;
  photon::TraceCounters counters;
  std::uint64_t refused = 0, failed = 0;
  for (const JobSample& j : traced) {
    run_s.push_back(j.wall_s);
    queue_s.push_back(j.latency_s - j.wall_s);
    counters.emitted += j.emitted;
    counters.bounces += j.bounces;
    refused += j.state == "refused" ? 1 : 0;
    failed += j.state == "failed" ? 1 : 0;
  }
  layers.set("service.latency_p99_s", p99_or_zero(latencies(traced)));
  layers.set("service.run_s_p50", median(run_s));
  layers.set("service.queue_s_p50", median(queue_s));
  layers.set("service.queue_s_p99", p99_or_zero(queue_s));
  layers.set("service.refused", static_cast<double>(refused));
  layers.set("service.failed", static_cast<double>(failed));
  layers.set("service.scene_loads", static_cast<double>(daemon->service().scene_loads()));
  layers.set("sim.bounces_per_photon", counters.bounces_per_photon());
  layers.set("hist.tallies", static_cast<double>(counters.emitted + counters.bounces) /
                                 static_cast<double>(traced.size()));
  {
    photon::ServiceClient client(socket);
    std::vector<double> us;
    std::string reply;
    for (int i = 0; i < kPings && client.ok(); ++i) {
      const auto t0 = Clock::now();
      if (!client.request("ping", reply)) break;
      us.push_back(1e6 * since(t0));
    }
    checks.record(us.size() == kPings, "ping round trips");
    layers.set("service.rpc_us", median(us));
  }
  daemon.reset();

  // Replays over one job's photons on each scene: the mix's single-thread
  // rates, as total work over total time.
  RunConfig config;
  config.seed = photon_seed(options.seed, 4);
  double build_s = 0.0, accel_bytes = 0.0, trace_s = 0.0, tally_s = 0.0, ray_s = 0.0;
  double rays = 0.0, nodes = 0.0, tests = 0.0;
  photon::TraceCounters replayed;
  for (const char* name : scene_names) {
    Scene scene = photon::scenes::by_name(name);
    {
      const auto t0 = Clock::now();
      Scope s(spans, "geom.build");
      scene.build();
      build_s += since(t0);
    }
    accel_bytes += static_cast<double>(scene.accel().memory_bytes());
    const Capture capture = capture_records(scene, config, kJobPhotons);
    replayed += capture.counters;
    trace_s += kJobPhotons / trace_photons_per_s(scene, config, kJobPhotons);
    const double n = static_cast<double>(capture.records.size());
    tally_s += n / tallies_per_s(scene, config, capture.records);
    const RayStats stats = ray_stats(scene, photon_rays(scene, capture.records));
    ray_s += n / stats.rays_per_s;
    rays += n;
    nodes += n * stats.nodes_per_ray;
    tests += n * stats.tests_per_ray;
  }
  layers.set("geom.build_s", build_s);
  layers.set("geom.accel_mb", accel_bytes / kMiB);
  layers.set("geom.rays_per_photon",
             static_cast<double>(replayed.bounces + replayed.absorbed + replayed.escaped) /
                 static_cast<double>(replayed.emitted));
  layers.set("geom.photon_rays_per_s", rays / ray_s);
  layers.set("geom.nodes_per_ray", nodes / rays);
  layers.set("geom.tests_per_ray", tests / rays);
  layers.set("sim.trace_photons_per_s", static_cast<double>(replayed.emitted) / trace_s);
  layers.set("hist.tallies_per_s", rays / tally_s);
  layers.set("pool.dispatch_us", pool_dispatch_us(photon::chunk_count(kJobPhotons, 64), 2));
  out.per_layer = layers.finish();
  return out;
}

}  // namespace perfbench
