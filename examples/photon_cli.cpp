// photon_cli — command-line front end for the library.
//
//   photon_cli scenes
//       List the built-in scenes.
//   photon_cli backends
//       List the registered simulation backends.
//   photon_cli info <scene>
//       Print geometry/material/luminaire statistics.
//   photon_cli simulate <scene> <answer-file> [--backend=NAME] [--photons=N]
//                        [--seed=N] [--workers=N] [--groups=N] [--batch=N]
//                        [--chunk=N] [--adapt] [--accel=octree|grid]
//                        [--split-z=S] [--split-min=N]
//                        [--split-leaf=N] [--split-growth=G] [--max-bounces=N]
//                        [--checkpoint=FILE] [--resume=FILE] [--trace=FILE]
//                        [--checkpoint-every=N] [--max-recoveries=N]
//                        [--fault-plan=SPEC] [--heartbeat=SECONDS]
//                        [--watchdog=SECONDS] [--watchdog-grace=SECONDS]
//                        [--memory-budget=BYTES[k|m|g]]
//                        [--report=json]
//       Run the simulation on the selected backend (serial | shared |
//       dist-particle | dist-spatial | hybrid) and write the answer file,
//       optionally checkpointing so long runs can continue later. The hybrid
//       backend runs --groups message-passing groups of --workers threads
//       each. The --split-* flags set the adaptive-histogram SplitPolicy
//       (significance threshold in sigma, minimum count before testing,
//       count-driven leaf threshold and its per-depth growth); --max-bounces
//       guards pathological mirror corridors. --trace streams the per-batch
//       speed trace to a JSONL file instead of holding it in memory (long
//       runs). --report=json replaces the human-readable summary with
//       machine-readable JSON objects on stdout (the bench harness consumes
//       them); errors then also emit a structured {"error": ...} block.
//
//       Run governance (engine/governor.hpp; DESIGN.md "Run governance"):
//       every simulate run is governed — SIGTERM/SIGINT/SIGUSR1 stops it
//       gracefully at the next window boundary, writes the checkpoint
//       (--checkpoint=FILE, or <answer>.ckpt without one) and exits with the
//       resumable code 5. Rerunning the SAME command with the SAME
//       --checkpoint resumes bitwise: with --checkpoint, --photons is the
//       TOTAL photon count and an existing valid checkpoint at that path is
//       adopted automatically (--resume=FILE keeps its historical meaning:
//       simulate --photons ADDITIONAL photons on top of FILE).
//       --watchdog=S arms the stuck-run watchdog: no engine progress for S
//       seconds (plus a grace of --watchdog-grace, default S again) declares
//       the run wedged — emergency checkpoint, typed abort with exit code 6,
//       never a hang. --memory-budget=B admits the run only under the
//       degradation ladder (coarsen accel leaves, then refuse with exit 9)
//       and stops the run gracefully (exit 9, resumable) if the forest
//       footprint crosses B mid-run.
//
//       Exit codes (core/error.hpp): 0 ok, 1 generic I/O, 2 usage,
//       3 checkpoint rejected, 4 comm failure beyond recovery,
//       5 preempted (resumable), 6 wedged, 7 config, 8 scene, 9 resource.
//
//       Fault tolerance (engine/recovery.hpp, mp/fault.hpp):
//       --checkpoint-every=N cuts the run into legs of N photons held as
//       in-memory checkpoints; when a rank dies mid-leg the run rewinds to
//       the last leg and re-shards the dead rank's work across the survivors
//       (up to --max-recoveries times, default 8). --heartbeat=SECONDS arms
//       the failure detector: every blocking receive and barrier gets that
//       deadline, and a rank whose per-batch liveness counter stops
//       advancing is declared dead instead of hanging the run.
//       --fault-plan=SPEC injects scripted faults for testing, e.g.
//       "kill:rank=1,batch=2,point=mid" or "drop:src=0,dst=1,nth=3" or
//       "delay:src=0,dst=1,ms=50" (';'-separated, each entry fires once).
//   photon_cli render <scene> <answer-file> <out.ppm>
//                        [--eye=x,y,z] [--look=x,y,z] [--fov=deg]
//                        [--size=WxH] [--spp=N] [--threads=N]
//       Render a viewpoint from an existing answer file (no re-simulation).
//
//   photon_cli serve --socket=PATH [--max-active=N] [--memory-budget=BYTES]
//                        [--watchdog=SECONDS] [--watchdog-grace=SECONDS]
//       Run the photon service daemon (src/service/): resident scenes,
//       concurrent governed jobs multiplexed fair-share onto the worker
//       pool, per-job cancel, admission against a service-wide memory
//       budget. SIGTERM/SIGINT stops the daemon; every active job stops at
//       its next window boundary with a resumable checkpoint (if the job
//       named one).
//   photon_cli submit --socket=PATH --scene=NAME [--backend=NAME]
//                        [--photons=N] [--seed=N] [--workers=N] [--groups=N]
//                        [--batch=N] [--chunk=N] [--accel=octree|grid]
//                        [--checkpoint=FILE] [--trace=FILE] [--wait]
//       Submit one job to a running daemon; prints the service's one-line
//       JSON response. --wait blocks until the job finishes and prints its
//       final report instead.
//   photon_cli status --socket=PATH [--job=N]
//       One job's JSON report, or {"jobs": [...]} for all of them.
//   photon_cli cancel --socket=PATH --job=N
//       Gracefully stop one job (it halts at the next window boundary;
//       every other job keeps running).
//
// <scene> is a built-in name (cornell | harpsichord | lab) or a path to a
// photon-scene text file.
#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include "core/error.hpp"
#include "engine/backend.hpp"
#include "engine/governor.hpp"
#include "engine/recovery.hpp"
#include "geom/scene_io.hpp"
#include "geom/scenes.hpp"
#include "hist/metrics.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/service.hpp"
#include "sim/checkpoint.hpp"
#include "view/viewer.hpp"

namespace {

using namespace photon;

// ---- Strict flag parsing ---------------------------------------------------
//
// Every flag is validated against a per-command table: unknown flags,
// duplicate flags, and malformed values are typed ConfigErrors (exit 7), not
// silently-ignored tokens or strtoull's silent zeros. A mistyped
// "--photons=1e6" must stop the run before it starts, not simulate zero
// photons and report success.

std::uint64_t parse_u64_flag(const std::string& flag, const std::string& s) {
  if (s.empty() || s[0] == '-' || s[0] == '+') {
    throw ConfigError("--" + flag + "= needs a non-negative integer, got '" + s + "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) {
    throw ConfigError("--" + flag + "= needs a non-negative integer, got '" + s + "'");
  }
  return static_cast<std::uint64_t>(v);
}

double parse_double_flag(const std::string& flag, const std::string& s) {
  if (s.empty()) throw ConfigError("--" + flag + "= needs a number");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) {
    throw ConfigError("--" + flag + "= needs a number, got '" + s + "'");
  }
  return v;
}

// Byte counts accept a k/m/g suffix (powers of 1024): --memory-budget=512m.
std::uint64_t parse_bytes_flag(const std::string& flag, const std::string& s) {
  std::uint64_t scale = 1;
  std::string digits = s;
  if (!s.empty()) {
    const char suffix = s.back();
    if (suffix == 'k' || suffix == 'K') scale = 1ull << 10;
    if (suffix == 'm' || suffix == 'M') scale = 1ull << 20;
    if (suffix == 'g' || suffix == 'G') scale = 1ull << 30;
    if (scale != 1) digits = s.substr(0, s.size() - 1);
  }
  return parse_u64_flag(flag, digits) * scale;
}

class Args {
 public:
  // Parses argv[first..): every element must be --key=value with `key` in
  // `known_kv`, or a bare --key in `known_flags`. Throws ConfigError
  // otherwise — including on repeats, so "--photons=1000 --photons=10"
  // cannot silently half-win.
  Args(int argc, char** argv, int first, std::set<std::string> known_kv,
       std::set<std::string> known_flags)
      : known_kv_(std::move(known_kv)), known_flags_(std::move(known_flags)) {
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        throw ConfigError("unexpected argument '" + arg + "'");
      }
      const std::size_t eq = arg.find('=');
      const std::string key = arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2);
      if (eq == std::string::npos) {
        if (known_flags_.count(key) == 0) {
          if (known_kv_.count(key) != 0) {
            throw ConfigError("flag --" + key + " needs a value (--" + key + "=...)");
          }
          throw ConfigError("unknown flag '--" + key + "'");
        }
        if (!flags_.insert(key).second) throw ConfigError("duplicate flag '--" + key + "'");
      } else {
        if (known_kv_.count(key) == 0) {
          if (known_flags_.count(key) != 0) {
            throw ConfigError("flag --" + key + " takes no value");
          }
          throw ConfigError("unknown flag '--" + key + "'");
        }
        if (!values_.emplace(key, arg.substr(eq + 1)).second) {
          throw ConfigError("duplicate flag '--" + key + "'");
        }
      }
    }
  }

  const std::string* get(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }
  bool flag(const std::string& key) const { return flags_.count(key) != 0; }

  std::uint64_t u64(const std::string& key, std::uint64_t fallback) const {
    const std::string* v = get(key);
    return v ? parse_u64_flag(key, *v) : fallback;
  }
  double dbl(const std::string& key, double fallback) const {
    const std::string* v = get(key);
    return v ? parse_double_flag(key, *v) : fallback;
  }
  std::uint64_t bytes(const std::string& key, std::uint64_t fallback) const {
    const std::string* v = get(key);
    return v ? parse_bytes_flag(key, *v) : fallback;
  }

 private:
  std::set<std::string> known_kv_;
  std::set<std::string> known_flags_;
  std::map<std::string, std::string> values_;
  std::set<std::string> flags_;
};

bool arg_vec3(const Args& args, const char* name, Vec3& out) {
  const std::string* v = args.get(name);
  if (!v) return false;
  if (std::sscanf(v->c_str(), "%lf,%lf,%lf", &out.x, &out.y, &out.z) != 3) {
    throw ConfigError(std::string("--") + name + "= needs x,y,z");
  }
  return true;
}

// ---- Error reporting -------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// One structured error surface for both humans and supervisors: stderr gets
// the prose, --report=json stdout gets a machine-readable block with the
// stable code and documented exit code.
int report_engine_error(const EngineError& e, bool json_report) {
  if (json_report) {
    std::printf("{\"error\": {\"code\": \"%s\", \"exit_code\": %d, \"message\": \"%s\"",
                e.code(), e.exit_code(), json_escape(e.what()).c_str());
    if (const auto* scene = dynamic_cast<const SceneError*>(&e); scene && scene->patch >= 0) {
      std::printf(", \"patch\": %d", scene->patch);
    }
    if (const auto* wedged = dynamic_cast<const WedgedError*>(&e)) {
      std::printf(", \"snapshot\": \"%s\"", json_escape(wedged->snapshot).c_str());
    }
    std::printf("}}\n");
  }
  std::fprintf(stderr, "error [%s]: %s\n", e.code(), e.what());
  return e.exit_code();
}

void load_any_scene(const std::string& spec, Scene& scene) {
  if (spec == "cornell" || spec == "harpsichord" || spec == "lab") {
    scene = scenes::by_name(spec);
    return;
  }
  if (!load_scene(spec, scene)) {
    throw SceneError("cannot load scene '" + spec + "'");
  }
  scene.build();
}

int cmd_scenes() {
  std::printf("built-in scenes:\n");
  std::printf("  cornell      Cornell Box with a floating two-sided mirror (~30 polygons)\n");
  std::printf("  harpsichord  Harpsichord Practice Room, sun+sky skylights (~100 polygons)\n");
  std::printf("  lab          Computer Laboratory, 100 workstations (~2000 polygons)\n");
  return 0;
}

int cmd_info(const std::string& spec) {
  Scene scene;
  load_any_scene(spec, scene);
  std::printf("scene: %s\n", scene.name().c_str());
  std::printf("  defining polygons : %zu\n", scene.patch_count());
  std::printf("  materials         : %zu\n", scene.materials().size());
  std::printf("  luminaires        : %zu\n", scene.luminaires().size());
  const Rgb power = scene.total_power();
  std::printf("  total power (RGB) : %.2f %.2f %.2f\n", power.r, power.g, power.b);
  const Aabb b = scene.bounds();
  std::printf("  bounds            : (%.2f %.2f %.2f) .. (%.2f %.2f %.2f)\n", b.lo.x, b.lo.y,
              b.lo.z, b.hi.x, b.hi.y, b.hi.z);
  std::printf("  accel (%s)    : %zu nodes (depth %d)\n",
              accel_kind_name(scene.accel_kind()), scene.accel().node_count(),
              scene.accel().depth());
  return 0;
}

int cmd_backends() {
  std::printf("registered backends:\n");
  for (const std::string& name : backend_names()) {
    std::printf("  %s\n", name.c_str());
  }
  return 0;
}

int cmd_simulate_impl(const Args& args, const std::string& spec, const std::string& answer,
                      bool json_report) {
  Scene scene;
  load_any_scene(spec, scene);
  validate_scene(scene);

  const std::string* backend_name = args.get("backend");
  const std::string backend_sel = backend_name ? *backend_name : "serial";
  const std::unique_ptr<Backend> backend = make_backend(backend_sel);
  if (!backend) {
    throw ConfigError("unknown backend '" + backend_sel + "' (see `photon_cli backends`)");
  }

  if (const std::string* accel_name = args.get("accel")) {
    const AccelKind accel = parse_accel_kind(*accel_name);
    if (accel != scene.accel_kind()) {
      // load_any_scene built the default octree; swap and rebuild. Every
      // structure answers bitwise-identical queries, so results do not change.
      scene.set_accel(accel);
      scene.build();
    }
  }
  Progress::instance().tick("accel-build", scene.patch_count());

  RunConfig config;
  config.photons = args.u64("photons", 500000);
  config.seed = args.u64("seed", config.seed);
  // Validate before the int narrowing: a 2^32+1 request must error, not
  // silently wrap to 1 worker.
  const std::uint64_t workers_arg = args.u64("workers", 2);
  const std::uint64_t groups_arg = args.u64("groups", 2);
  if (workers_arg < 1 || workers_arg > 4096 || groups_arg < 1 || groups_arg > 4096) {
    throw ConfigError("--workers and --groups must be in [1, 4096]");
  }
  config.workers = static_cast<int>(workers_arg);
  config.groups = static_cast<int>(groups_arg);
  config.batch = args.u64("batch", config.batch);
  config.chunk = args.u64("chunk", config.chunk);
  if (const std::string* trace = args.get("trace")) config.trace_path = *trace;
  config.policy.z = args.dbl("split-z", config.policy.z);
  config.policy.min_count = args.u64("split-min", config.policy.min_count);
  config.policy.max_leaf_count = args.u64("split-leaf", config.policy.max_leaf_count);
  config.policy.count_growth = args.dbl("split-growth", config.policy.count_growth);
  config.limits.max_bounces = static_cast<int>(
      args.u64("max-bounces", static_cast<std::uint64_t>(config.limits.max_bounces)));
  if (config.policy.z <= 0.0 || config.policy.min_count < 1 ||
      config.policy.max_leaf_count < 1 || config.policy.count_growth < 1.0 ||
      config.limits.max_bounces < 1) {
    throw ConfigError(
        "--split-z must be > 0, --split-min/--split-leaf/--max-bounces >= 1, "
        "--split-growth >= 1");
  }
  // The RNG scheme assigns each photon a disjoint 4096-element block
  // (core/rng.hpp photon_stream); at a handful of draws per bounce, paths
  // beyond ~512 bounces could bleed into the next photon's block and
  // silently correlate streams.
  if (config.limits.max_bounces > 512) {
    throw ConfigError("--max-bounces must be <= 512 (per-photon RNG blocks are 4096 draws)");
  }
  config.adapt_batch = args.flag("adapt");

  // Fault-tolerance knobs: all runs route through run_elastic, which is a
  // plain backend->run() when none of these are set.
  config.checkpoint_photons = args.u64("checkpoint-every", 0);
  config.max_recoveries = static_cast<int>(
      args.u64("max-recoveries", static_cast<std::uint64_t>(config.max_recoveries)));
  if (args.get("heartbeat")) {
    config.comm.deadline_s = args.dbl("heartbeat", 0.0);
    config.comm.heartbeats = true;
    if (config.comm.deadline_s <= 0.0) {
      throw ConfigError("--heartbeat must be a positive deadline in seconds");
    }
  }
  if (const std::string* plan_spec = args.get("fault-plan")) {
    auto plan = std::make_shared<FaultPlan>();
    std::string error;
    if (!parse_fault_plan(*plan_spec, *plan, error)) {
      throw ConfigError("bad --fault-plan: " + error);
    }
    config.fault_plan = std::move(plan);
  }

  // Run governance: every CLI run is governed (the flag must simply be
  // identical on all ranks, which one process trivially guarantees), so
  // SIGTERM/SIGINT/SIGUSR1 stop it resumably at the next window boundary.
  install_preempt_handlers();
  clear_preempt();
  config.governed = true;
  config.watchdog_s = args.dbl("watchdog", 0.0);
  config.watchdog_grace_s = args.dbl("watchdog-grace", 0.0);
  if (config.watchdog_s < 0.0 || config.watchdog_grace_s < 0.0) {
    throw ConfigError("--watchdog and --watchdog-grace must be >= 0 seconds");
  }
  config.watchdog_exit = config.watchdog_s > 0.0;
  config.memory_budget = args.bytes("memory-budget", 0);

  const std::string* ckpt_path = args.get("checkpoint");
  const std::string stop_path = ckpt_path ? *ckpt_path : answer + ".ckpt";
  config.emergency_checkpoint_path = stop_path;

  // Memory admission (engine/governor.hpp): degrade in the documented
  // bitwise-neutral order or refuse with a typed ResourceError before any
  // photon is traced.
  if (config.memory_budget != 0) {
    const AdmissionPlan plan = govern_admission(scene, config);
    if (!json_report && plan.coarsened_accel) {
      std::printf("memory budget: degraded admission (coarsened accel leaves, ~%llu bytes "
                  "planned)\n",
                  static_cast<unsigned long long>(plan.estimated_bytes));
    }
  }

  RunResult resume;
  const RunResult* resume_ptr = nullptr;
  if (const std::string* path = args.get("resume")) {
    // Historical semantics: --photons ADDITIONAL photons on top of FILE.
    const CheckpointStatus status = load_checkpoint_status(*path, resume);
    if (status != CheckpointStatus::kOk) {
      // Say exactly which check failed: a refused multi-hour resume must be
      // diagnosable from stderr alone.
      throw CheckpointError("cannot load checkpoint '" + *path +
                            "': " + checkpoint_status_name(status));
    }
    resume_ptr = &resume;
  } else if (ckpt_path) {
    // Governed-resume semantics: with --checkpoint, --photons is the TOTAL
    // count, and an existing valid checkpoint at the path is adopted — so
    // rerunning the exact same command after a preemption (exit 5) simply
    // continues. A missing file is a fresh run; a present-but-damaged file
    // is a hard error (silently restarting a long run from zero because one
    // byte flipped would be worse).
    const CheckpointStatus status = load_checkpoint_status(*ckpt_path, resume);
    if (status == CheckpointStatus::kOk) {
      if (resume.counters.emitted >= config.photons) {
        config.photons = 0;
      } else {
        config.photons -= resume.counters.emitted;
      }
      resume_ptr = &resume;
    } else if (status != CheckpointStatus::kOpenFailed) {
      throw CheckpointError("cannot load checkpoint '" + *ckpt_path +
                            "': " + checkpoint_status_name(status));
    }
  }
  if (resume_ptr && !json_report) {
    std::printf("resuming (%llu photons so far)\n",
                static_cast<unsigned long long>(resume.counters.emitted));
  }

  RunResult result;
  if (resume_ptr && config.photons == 0) {
    result = std::move(resume);  // checkpoint already covers the request
    resume_ptr = nullptr;
  } else {
    try {
      result = run_elastic(*backend, scene, config, resume_ptr);
    } catch (const WorldFailure& failure) {
      throw CommError(CommErrorKind::kPeerDead, -1, -1,
                      std::string("run failed beyond recovery: ") + failure.what());
    }
  }
  const ForestMetrics metrics = compute_metrics(result.forest);
  const bool complete = result.status == RunStatus::kComplete;

  if (json_report) {
    std::printf(
        "{\"scene\": \"%s\", \"backend\": \"%s\", \"accel\": \"%s\", \"photons\": %llu, "
        "\"workers\": %d, \"groups\": %d, \"seed\": %llu, "
        "\"split_z\": %.4f, \"split_min\": %llu, \"split_leaf\": %llu, "
        "\"split_growth\": %.4f, \"max_bounces\": %d, \"wall_s\": %.6f, "
        "\"photons_per_sec\": %.1f, \"bounces\": %llu, "
        "\"bounces_per_photon\": %.4f, \"absorbed\": %llu, \"escaped\": %llu, "
        "\"bins\": %llu, \"forest_depth\": %d, \"mean_tally_per_leaf\": %.2f, "
        "\"forest_bytes\": %llu}\n",
        scene.name().c_str(), backend->name().c_str(), accel_kind_name(scene.accel_kind()),
        static_cast<unsigned long long>(result.counters.emitted), config.workers,
        config.groups, static_cast<unsigned long long>(config.seed), config.policy.z,
        static_cast<unsigned long long>(config.policy.min_count),
        static_cast<unsigned long long>(config.policy.max_leaf_count),
        config.policy.count_growth, config.limits.max_bounces, result.trace.total_time_s,
        result.trace.final_rate(),
        static_cast<unsigned long long>(result.counters.bounces),
        result.counters.bounces_per_photon(),
        static_cast<unsigned long long>(result.counters.absorbed),
        static_cast<unsigned long long>(result.counters.escaped),
        static_cast<unsigned long long>(metrics.leaves), metrics.max_depth,
        metrics.mean_tally_per_leaf,
        static_cast<unsigned long long>(result.forest.memory_bytes()));
    // Unified governance/liveness telemetry, for EVERY backend: the run
    // status, the Progress beacon's tick count, and the blocked-receive
    // clock (serial/shared run no exchange, so wait_s is legitimately 0 —
    // previously the whole line was simply missing for them).
    std::uint64_t retries = 0;
    double wait_s = 0.0;
    for (const RankReport& r : result.ranks) {
      retries += r.deadline_retries;
      wait_s += r.wait_seconds;
    }
    std::printf(
        "{\"status\": \"%s\", \"progress_ticks\": %llu, \"wait_s\": %.6f, "
        "\"deadline_retries\": %llu, \"emitted\": %llu}\n",
        run_status_name(result.status),
        static_cast<unsigned long long>(Progress::instance().total_ticks()), wait_s,
        static_cast<unsigned long long>(retries),
        static_cast<unsigned long long>(result.counters.emitted));
    if (!result.pool.worker_photons.empty()) {
      // Pool scheduler telemetry (shared/hybrid): how the chunk grid landed.
      std::printf(
          "{\"pool_chunk_size\": %llu, \"pool_chunks\": %llu, \"pool_steals\": %llu, "
          "\"pool_workers\": %zu, \"pool_min_photons\": %llu, \"pool_max_photons\": %llu}\n",
          static_cast<unsigned long long>(result.pool.chunk_size),
          static_cast<unsigned long long>(result.pool.chunks),
          static_cast<unsigned long long>(result.pool.steals),
          result.pool.worker_photons.size(),
          static_cast<unsigned long long>(*std::min_element(result.pool.worker_photons.begin(),
                                                            result.pool.worker_photons.end())),
          static_cast<unsigned long long>(*std::max_element(result.pool.worker_photons.begin(),
                                                            result.pool.worker_photons.end())));
    }
    if (result.recovery.legs > 1 || result.recovery.failures > 0) {
      // Elastic-run stats (engine/recovery.hpp): what failed and what the
      // recovery cost.
      std::printf(
          "{\"recovery_legs\": %d, \"recovery_failures\": %d, \"ranks_lost\": %d, "
          "\"final_width\": %d, \"photons_retraced\": %llu, \"lost_s\": %.6f}\n",
          result.recovery.legs, result.recovery.failures, result.recovery.ranks_lost,
          result.recovery.final_width,
          static_cast<unsigned long long>(result.recovery.photons_retraced),
          result.recovery.lost_seconds);
    }
  } else {
    std::printf("backend %s: simulated %llu photons (%.0f/s), %.2f bounces/photon\n",
                backend->name().c_str(),
                static_cast<unsigned long long>(result.counters.emitted),
                result.trace.final_rate(), result.counters.bounces_per_photon());
    std::printf("forest: %llu bins, depth <= %d, %.1f photons/bin, %.1f%% angular splits\n",
                static_cast<unsigned long long>(metrics.leaves), metrics.max_depth,
                metrics.mean_tally_per_leaf, 100.0 * metrics.angular_split_fraction);
    if (result.recovery.failures > 0) {
      std::printf("recovery: %d failure(s), %d rank(s) lost, %llu photons re-traced, "
                  "finished at width %d\n",
                  result.recovery.failures, result.recovery.ranks_lost,
                  static_cast<unsigned long long>(result.recovery.photons_retraced),
                  result.recovery.final_width);
    }
  }

  if (!complete) {
    // Graceful governed stop: the partial result IS the checkpoint. Flush
    // it and exit with the documented resumable code — rerunning the same
    // command with the same --checkpoint continues bitwise.
    if (!save_checkpoint(result, stop_path)) {
      throw CheckpointError("cannot write checkpoint '" + stop_path + "'");
    }
    if (!json_report) {
      std::printf("%s: checkpoint %s (%llu photons done); rerun with "
                  "--checkpoint=%s to continue\n",
                  run_status_name(result.status), stop_path.c_str(),
                  static_cast<unsigned long long>(result.counters.emitted),
                  stop_path.c_str());
    }
    return result.status == RunStatus::kPreempted
               ? engine_error_exit_code(EngineErrorKind::kPreempted)
               : engine_error_exit_code(EngineErrorKind::kResource);
  }

  if (ckpt_path) {
    if (!save_checkpoint(result, *ckpt_path)) {
      throw CheckpointError("cannot write checkpoint '" + *ckpt_path + "'");
    }
    if (!json_report) std::printf("checkpoint: %s\n", ckpt_path->c_str());
  }
  if (!result.forest.save(answer)) {
    std::fprintf(stderr, "error: cannot write answer file '%s'\n", answer.c_str());
    return 1;
  }
  if (!json_report) std::printf("answer file: %s\n", answer.c_str());
  return 0;
}

int cmd_simulate(int argc, char** argv, const std::string& spec, const std::string& answer) {
  bool json_report = false;
  try {
    const Args args(
        argc, argv, 4,
        {"backend", "photons", "seed", "workers", "groups", "batch", "chunk", "accel",
         "split-z", "split-min", "split-leaf", "split-growth", "max-bounces", "checkpoint",
         "resume", "trace", "checkpoint-every", "max-recoveries", "fault-plan", "heartbeat",
         "watchdog", "watchdog-grace", "memory-budget", "report"},
        {"adapt"});
    const std::string* report = args.get("report");
    json_report = report && *report == "json";
    if (report && !json_report) {
      // Validate before the run: a typo'd format must not discard hours of
      // simulation.
      throw ConfigError("unknown report format '" + *report + "' (supported: json)");
    }
    return cmd_simulate_impl(args, spec, answer, json_report);
  } catch (const EngineError& e) {
    return report_engine_error(e, json_report);
  }
}

int cmd_render(int argc, char** argv, const std::string& spec, const std::string& answer,
               const std::string& out) {
  const Args args(argc, argv, 5, {"eye", "look", "fov", "size", "spp", "threads"}, {});
  Scene scene;
  load_any_scene(spec, scene);
  BinForest forest;
  if (!BinForest::load(answer, forest)) {
    std::fprintf(stderr, "error: cannot load answer file '%s'\n", answer.c_str());
    return 1;
  }
  if (forest.patch_count() != scene.patch_count()) {
    std::fprintf(stderr, "error: answer file has %zu patches, scene has %zu\n",
                 forest.patch_count(), scene.patch_count());
    return 1;
  }

  const Aabb b = scene.bounds();
  Vec3 eye = b.center() + Vec3{0, 0, b.extent().z * 0.45};
  Vec3 look = b.center();
  arg_vec3(args, "eye", eye);
  arg_vec3(args, "look", look);
  int width = 320, height = 240;
  if (const std::string* size = args.get("size")) {
    if (std::sscanf(size->c_str(), "%dx%d", &width, &height) != 2 || width < 1 || height < 1) {
      throw ConfigError("--size= needs WxH");
    }
  }

  const Camera camera(eye, look, {0, 1, 0}, args.dbl("fov", 60.0), width, height);
  ViewOptions options;
  options.samples_per_pixel = static_cast<int>(args.u64("spp", 1));
  options.threads = static_cast<int>(args.u64("threads", 1));
  const Image image = render(scene, forest, camera, options);
  if (!image.write_ppm(out)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out.c_str());
    return 1;
  }
  std::printf("rendered %dx%d -> %s (mean luminance %.4f)\n", width, height, out.c_str(),
              image.mean_luminance());
  return 0;
}

// ---- Service commands ------------------------------------------------------

int cmd_serve(int argc, char** argv) {
  const Args args(argc, argv, 2,
                  {"socket", "max-active", "memory-budget", "watchdog", "watchdog-grace"}, {});
  const std::string* socket_path = args.get("socket");
  if (!socket_path) throw ConfigError("serve needs --socket=PATH");

  ServiceConfig cfg;
  cfg.max_active = static_cast<int>(args.u64("max-active", 2));
  if (cfg.max_active < 1 || cfg.max_active > 64) {
    throw ConfigError("--max-active= must be in [1, 64]");
  }
  cfg.memory_budget = args.bytes("memory-budget", 0);
  cfg.watchdog_s = args.dbl("watchdog", 0.0);
  cfg.watchdog_grace_s = args.dbl("watchdog-grace", 0.0);

  // The PROCESS preempt flag belongs to the daemon: SIGTERM/SIGINT stop the
  // accept loop, and PhotonService::shutdown() fans the stop out to each
  // job's own RunControl. Jobs never poll the global flag themselves.
  install_preempt_handlers();
  clear_preempt();

  PhotonService service(cfg, [](const std::string& name, AccelKind kind) {
    auto scene = std::make_shared<Scene>();
    load_any_scene(name, *scene);
    if (kind != scene->accel_kind()) {
      scene->set_accel(kind);
      scene->build();
    }
    return std::shared_ptr<const Scene>(std::move(scene));
  });
  std::printf("photon service: listening on %s (max-active %d%s)\n", socket_path->c_str(),
              cfg.max_active, cfg.memory_budget ? ", budgeted" : "");
  std::fflush(stdout);
  return run_daemon(service, *socket_path, [] { return preempt_requested(); }) ? 0 : 1;
}

// Sends one request line and prints the service's JSON reply. Exit 4 (comm)
// when the daemon cannot be reached — same taxonomy as a lost MPI peer.
int service_roundtrip(const std::string& socket_path, const std::string& line,
                      std::string* reply_out = nullptr) {
  ServiceClient client(socket_path);
  std::string reply;
  if (!client.ok() || !client.request(line, reply)) {
    throw CommError(CommErrorKind::kPeerDead, -1, -1, "service: " + client.error());
  }
  std::printf("%s\n", reply.c_str());
  if (reply_out) *reply_out = reply;
  return reply.rfind("{\"error\"", 0) == 0 ? 1 : 0;
}

int cmd_submit(int argc, char** argv) {
  const Args args(argc, argv, 2,
                  {"socket", "scene", "backend", "photons", "seed", "workers", "groups", "batch",
                   "chunk", "accel", "checkpoint", "trace"},
                  {"wait"});
  const std::string* socket_path = args.get("socket");
  if (!socket_path) throw ConfigError("submit needs --socket=PATH");
  if (!args.get("scene")) throw ConfigError("submit needs --scene=NAME");

  std::string line = "submit";
  for (const char* key : {"scene", "backend", "photons", "seed", "workers", "groups", "batch",
                          "chunk", "accel", "checkpoint", "trace"}) {
    if (const std::string* v = args.get(key)) line += std::string(" ") + key + "=" + *v;
  }

  std::string reply;
  const int rc = service_roundtrip(*socket_path, line, &reply);
  if (rc != 0 || !args.flag("wait")) return rc;

  unsigned long long id = 0;
  if (std::sscanf(reply.c_str(), "{\"job\": %llu", &id) != 1) {
    throw CommError(CommErrorKind::kPeerDead, -1, -1, "service: malformed submit reply: " + reply);
  }
  return service_roundtrip(*socket_path, "wait job=" + std::to_string(id));
}

int cmd_status(int argc, char** argv) {
  const Args args(argc, argv, 2, {"socket", "job"}, {});
  const std::string* socket_path = args.get("socket");
  if (!socket_path) throw ConfigError("status needs --socket=PATH");
  std::string line = "status";
  if (const std::string* job = args.get("job")) line += " job=" + *job;
  return service_roundtrip(*socket_path, line);
}

int cmd_cancel(int argc, char** argv) {
  const Args args(argc, argv, 2, {"socket", "job"}, {});
  const std::string* socket_path = args.get("socket");
  if (!socket_path) throw ConfigError("cancel needs --socket=PATH");
  const std::string* job = args.get("job");
  if (!job) throw ConfigError("cancel needs --job=N");
  return service_roundtrip(*socket_path, "cancel job=" + *job);
}

int usage() {
  std::fprintf(stderr,
               "usage: photon_cli scenes\n"
               "       photon_cli backends\n"
               "       photon_cli info <scene>\n"
               "       photon_cli simulate <scene> <answer> [--backend=NAME] [--photons=N]\n"
               "                  [--seed=N] [--workers=N] [--groups=N] [--batch=N]\n"
               "                  [--chunk=N] [--adapt] [--accel=octree|grid]\n"
               "                  [--split-z=S] [--split-min=N] [--split-leaf=N]\n"
               "                  [--split-growth=G] [--max-bounces=N]\n"
               "                  [--checkpoint=FILE] [--resume=FILE] [--trace=FILE]\n"
               "                  [--checkpoint-every=N] [--max-recoveries=N]\n"
               "                  [--fault-plan=SPEC] [--heartbeat=SECONDS]\n"
               "                  [--watchdog=SECONDS] [--watchdog-grace=SECONDS]\n"
               "                  [--memory-budget=BYTES[k|m|g]]\n"
               "                  [--report=json]\n"
               "       photon_cli render <scene> <answer> <out.ppm> [--eye=x,y,z]\n"
               "                  [--look=x,y,z] [--fov=deg] [--size=WxH] [--spp=N]"
               " [--threads=N]\n"
               "       photon_cli serve --socket=PATH [--max-active=N]\n"
               "                  [--memory-budget=BYTES[k|m|g]] [--watchdog=SECONDS]\n"
               "                  [--watchdog-grace=SECONDS]\n"
               "       photon_cli submit --socket=PATH --scene=NAME [--backend=NAME]\n"
               "                  [--photons=N] [--seed=N] [--workers=N] [--groups=N]\n"
               "                  [--batch=N] [--chunk=N] [--accel=octree|grid]\n"
               "                  [--checkpoint=FILE] [--trace=FILE] [--wait]\n"
               "       photon_cli status --socket=PATH [--job=N]\n"
               "       photon_cli cancel --socket=PATH --job=N\n"
               "exit codes: 0 ok, 1 i/o, 2 usage, 3 checkpoint, 4 comm, 5 preempted,\n"
               "            6 wedged, 7 config, 8 scene, 9 resource\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "scenes") return cmd_scenes();
    if (cmd == "backends") return cmd_backends();
    if (cmd == "info" && argc >= 3) return cmd_info(argv[2]);
    if (cmd == "simulate" && argc >= 4) return cmd_simulate(argc, argv, argv[2], argv[3]);
    if (cmd == "render" && argc >= 5) return cmd_render(argc, argv, argv[2], argv[3], argv[4]);
    if (cmd == "serve") return cmd_serve(argc, argv);
    if (cmd == "submit") return cmd_submit(argc, argv);
    if (cmd == "status") return cmd_status(argc, argv);
    if (cmd == "cancel") return cmd_cancel(argc, argv);
  } catch (const EngineError& e) {
    // Commands that manage their own reporting (simulate) catch first; this
    // is the fallback for the rest — same stderr format, same exit table.
    return report_engine_error(e, false);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
