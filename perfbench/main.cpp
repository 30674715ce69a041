// perfbench — the repository benchmark's measuring program (README.md).
//
//   perfbench --workload interior-bake|cornell-dist|service-mix --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--commit ID]
//
// Prints one environment line, one human-readable line per metric, and as
// its last line the result object:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Exits 1 when any output check failed, 2 on bad arguments.
// run.py builds this program and is the command BENCHMARK.json names.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "engine/governor.hpp"
#include "geom/accel.hpp"
#include "geom/leaf_kernel.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

// CPU time the hypervisor gave other guests while this VM's CPUs wanted to
// run (the `steal` column of /proc/stat), and all CPU time, in clock ticks.
// The synchronising workloads slow down most when it rises.
struct CpuTicks {
  unsigned long long steal = 0, total = 0;
};
CpuTicks cpu_ticks() {
  CpuTicks t;
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2], &v[3],
                    &v[4], &v[5], &v[6], &v[7]) == 8) {
      for (const unsigned long long x : v) t.total += x;
      t.steal = v[7];
    }
    std::fclose(f);
  }
  return t;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload interior-bake|cornell-dist|service-mix --seed N\n"
               "                 --seconds S --trace 0|1 --work-dir DIR [--commit ID]\n",
               why);
  return 2;
}

// A failed service job makes latencies infinite; JSON has no infinity, so a
// non-finite value prints as null (the run is incorrect anyway).
void print_metrics(const std::vector<Metric>& metrics) {
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[32] = "null";
    if (std::isfinite(metrics[i].value)) {
      std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    }
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), value, metrics[i].unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir, commit = "unknown";
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoll(value.c_str(), &end, 10);
      if (*end != '\0' || seed < 0) return usage("--seed needs a non-negative integer");
    } else if (key == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(seconds > 0.0)) return usage("--seconds needs a positive number");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return usage("--trace needs 0 or 1");
      trace = value == "1";
    } else if (key == "--work-dir") {
      work_dir = value;
    } else if (key == "--commit") {
      commit = value;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1 || workload.empty() || work_dir.empty() || seed < 0 || seconds <= 0.0 ||
      trace < 0) {
    return usage("missing arguments");
  }
  Outcome (*run)(const Options&, SpanRecorder&) = nullptr;
  if (workload == "interior-bake") run = run_interior_bake;
  if (workload == "cornell-dist") run = run_cornell_dist;
  if (workload == "service-mix") run = run_service_mix;
  if (!run) return usage(("unknown workload " + workload).c_str());

  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);
  if (ec) return usage(("cannot create " + work_dir).c_str());

  // Governed as photon_cli governs a run: SIGTERM/SIGINT stop it at the next
  // window boundary, which then fails its checks instead of hanging.
  photon::install_preempt_handlers();
  photon::clear_preempt();

  char env[512];
  std::snprintf(env, sizeof env,
                "{\"workload\": \"%s\", \"seed\": %lld, \"seconds\": %.3f, \"trace\": %d, "
                "\"nproc\": %u, \"kernel_backend\": \"%s\", \"kernel_lane_width\": %d, "
                "\"build_type\": \"%s\", \"accel\": \"%s\", \"commit\": \"%s\"}",
                workload.c_str(), seed, seconds, trace, std::thread::hardware_concurrency(),
                photon::kernel_backend(), photon::kernel_lane_width(), PERFBENCH_BUILD_TYPE,
                photon::accel_kind_name(photon::AccelKind::kOctree), commit.c_str());
  std::printf("{\"env\": %s}\n", env);
  std::fflush(stdout);

  Options options;
  options.seed = static_cast<std::uint64_t>(seed);
  options.seconds = seconds;
  options.trace = trace == 1;
  options.work_dir = work_dir;
  SpanRecorder spans(options.trace);
  Outcome outcome;
  const CpuTicks before = cpu_ticks();
  try {
    outcome = run(options, spans);
  } catch (const std::exception& e) {
    outcome.checks.record(false, std::string("workload aborted: ") + e.what());
  }
  const CpuTicks after = cpu_ticks();
  for (const char* leftover : {"office.ckpt", "office.answer", "cornell.answer"}) {
    std::filesystem::remove(work_dir + "/" + leftover, ec);
  }

  const Checks& checks = outcome.checks;
  for (const std::string& failure : checks.failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());
  }
  for (const auto* metrics : {&outcome.end_to_end, &outcome.other}) {
    for (const Metric& m : *metrics) {
      std::printf("# %-24s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  // failed_ratio is reported here and as `failed`/`attempted` in the result:
  // it is 0 on a healthy run, so it cannot carry a relative bound.
  const double failed_ratio = checks.attempted
                                  ? static_cast<double>(checks.failed) / checks.attempted
                                  : 1.0;
  std::printf("# %-24s %.6g ratio\n", "failed_ratio", failed_ratio);
  std::printf("# %-24s %.6g ratio\n", "host_cpu_steal_share",
              after.total > before.total ? static_cast<double>(after.steal - before.steal) /
                                               static_cast<double>(after.total - before.total)
                                         : 0.0);
  for (const Metric& m : outcome.per_layer) {
    std::printf("# %-24s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (options.trace) {
    const std::string path = work_dir + "/spans.json";
    if (!spans.write_json(path, env)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    } else {
      std::printf("# spans: %s\n", path.c_str());
    }
  }

  const bool correct = checks.attempted > 0 && checks.failed == 0 &&
                       (!options.trace || !outcome.per_layer.empty());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(checks.attempted, 1)),
              static_cast<unsigned long long>(checks.failed));
  print_metrics(options.trace ? outcome.per_layer : outcome.end_to_end);
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
