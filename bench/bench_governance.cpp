// bench_governance — the cost of running governed (engine/governor.hpp).
//
// Per bundled scene, four hybrid runs at groups=2:
//
//   baseline        ungoverned, one leg — the reference rate
//   governed        the same run with governance on: the per-window preempt
//                   poll plus the stop-word allreduce. overhead_pct is the
//                   wall-time cost of being preemptible at all.
//   preempt-resume  a timed preempt ~40% in, the partial result round-
//                   tripped through the checkpoint serializer, then the
//                   resume leg. overhead_pct compares the stitched wall time
//                   (both legs + serialize + load) against baseline — the
//                   price of an interruption.
//   watchdog        a 60s delivery delay wedges the run under a
//                   deadline_s=0.15 / grace_s=0.1 watchdog. detect_s is the
//                   wall time from launch to the typed WedgedError; the
//                   configured floor is 0.25s, so detect_s - 0.25 is the
//                   monitor's reaction latency.
//
//   bench_governance [--photons=N] [--batch=N] [--out=FILE] [--label=NAME]
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "engine/governor.hpp"
#include "engine/recovery.hpp"
#include "sim/checkpoint.hpp"

namespace {

using namespace photon;
using benchutil::arg_str;
using benchutil::arg_u64;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct GovRow {
  const char* mode;
  double wall_s = 0.0;
  double rate = 0.0;
  double overhead_pct = 0.0;  // vs the scene's baseline wall time
  double detect_s = 0.0;      // watchdog mode only
  std::uint64_t emitted = 0;
};

RunConfig base_config(std::uint64_t photons, std::uint64_t batch) {
  RunConfig cfg;
  cfg.photons = photons;
  cfg.batch = batch;
  cfg.adapt_batch = false;
  cfg.groups = 2;
  cfg.workers = 2;
  return cfg;
}

GovRow timed_run(const char* mode, const Scene& scene, const RunConfig& cfg) {
  const auto backend = make_backend("hybrid");
  GovRow row;
  row.mode = mode;
  const auto t0 = Clock::now();
  const RunResult result = backend->run(scene, cfg, nullptr);
  row.wall_s = seconds_since(t0);
  row.emitted = result.counters.emitted;
  row.rate = row.wall_s > 0.0 ? static_cast<double>(row.emitted) / row.wall_s : 0.0;
  return row;
}

GovRow preempt_resume(const Scene& scene, const RunConfig& cfg, double preempt_after_s) {
  const auto backend = make_backend("hybrid");
  GovRow row;
  row.mode = "preempt-resume";
  clear_preempt();
  std::thread trigger([preempt_after_s] {
    std::this_thread::sleep_for(std::chrono::duration<double>(preempt_after_s));
    request_preempt();
  });
  const auto t0 = Clock::now();
  RunResult part = backend->run(scene, cfg, nullptr);
  trigger.join();
  clear_preempt();
  if (part.status == RunStatus::kPreempted && part.counters.emitted < cfg.photons) {
    // Round-trip the checkpoint the way a real preemption does, then resume.
    const Bytes bytes = encode_checkpoint(part);
    RunResult loaded;
    if (decode_checkpoint(bytes.data(), bytes.data() + bytes.size(), loaded) !=
        CheckpointStatus::kOk) {
      std::fprintf(stderr, "error: preempted checkpoint did not round-trip\n");
      return row;
    }
    RunConfig rest = cfg;
    rest.photons = cfg.photons - loaded.counters.emitted;
    part = backend->run(scene, rest, &loaded);
  }
  row.wall_s = seconds_since(t0);
  row.emitted = part.counters.emitted;
  row.rate = row.wall_s > 0.0 ? static_cast<double>(row.emitted) / row.wall_s : 0.0;
  return row;
}

GovRow watchdog_detect(const Scene& scene, const RunConfig& base) {
  GovRow row;
  row.mode = "watchdog";
  const auto backend = make_backend("hybrid");
  RunConfig cfg = base;
  auto plan = std::make_shared<FaultPlan>();
  plan->add_delay({0, 1, 0, 0, 60.0});  // wedge: no comm deadline to save us
  cfg.fault_plan = plan;
  cfg.watchdog_s = 0.15;
  cfg.watchdog_grace_s = 0.10;
  const auto t0 = Clock::now();
  try {
    (void)run_elastic(*backend, scene, cfg, nullptr);
    std::fprintf(stderr, "error: wedged run completed instead of aborting\n");
  } catch (const WedgedError&) {
    row.detect_s = seconds_since(t0);
  }
  row.wall_s = row.detect_s;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t photons = arg_u64(argc, argv, "photons", 200000);
  const std::uint64_t batch = arg_u64(argc, argv, "batch", 5000);
  const std::string out = arg_str(argc, argv, "out", "BENCH_governance.json");
  const std::string label = arg_str(argc, argv, "label", "dev");

  benchutil::header("run governance: preemption overhead and watchdog latency (hybrid)");
  std::printf("photons=%llu batch=%llu\n", static_cast<unsigned long long>(photons),
              static_cast<unsigned long long>(batch));

  std::vector<std::string> rows;
  for (const auto& spec : benchutil::bundled_scenes()) {
    const RunConfig plain = base_config(photons, batch);
    RunConfig governed = plain;
    governed.governed = true;

    std::vector<GovRow> results;
    results.push_back(timed_run("baseline", spec.scene, plain));
    const double baseline_wall = results[0].wall_s;
    results.push_back(timed_run("governed", spec.scene, governed));
    results.push_back(preempt_resume(spec.scene, governed, baseline_wall * 0.4));
    results.push_back(watchdog_detect(spec.scene, plain));

    benchutil::rule();
    std::printf("%-12s %-16s %10s %12s %10s %9s\n", spec.name, "mode", "wall_s",
                "photons/s", "overhead%", "detect_s");
    for (GovRow& r : results) {
      if (baseline_wall > 0.0 && r.mode != std::string("watchdog")) {
        r.overhead_pct = 100.0 * (r.wall_s - baseline_wall) / baseline_wall;
      }
      std::printf("%-12s %-16s %10.4f %12.0f %10.2f %9.3f\n", "", r.mode, r.wall_s, r.rate,
                  r.overhead_pct, r.detect_s);
      char row[384];
      std::snprintf(row, sizeof(row),
                    "{\"scene\": \"%s\", \"mode\": \"%s\", \"wall_s\": %.6f, "
                    "\"photons_per_sec\": %.1f, \"overhead_pct\": %.3f, "
                    "\"detect_s\": %.6f, \"emitted\": %llu}",
                    spec.name, r.mode, r.wall_s, r.rate, r.overhead_pct, r.detect_s,
                    static_cast<unsigned long long>(r.emitted));
      rows.emplace_back(row);
    }
  }

  char scalars[96];
  std::snprintf(scalars, sizeof(scalars), "\"photons\": %llu, \"batch\": %llu",
                static_cast<unsigned long long>(photons),
                static_cast<unsigned long long>(batch));
  if (!benchutil::write_json_artifact(out, "governance", label, {scalars}, rows)) return 1;
  return 0;
}
