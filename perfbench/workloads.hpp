// The three benchmark workloads (README.md explains the choice of each).
//
// Each drives the photon library only through the calls photon_cli makes —
// the scene API, validate_scene and Scene::build; make_backend and
// run_elastic; save_checkpoint and load_checkpoint_status; BinForest::save
// and BinForest::load; render; run_daemon and ServiceClient — at parallel
// width 4, from this one process.
//
// A run sets up several times (setup_s is their median), warms up untimed,
// then repeats the timed part until Options::seconds have passed and reports
// medians. With Options::trace it then repeats the timed part once more with
// spans on, runs the single-layer replays, and reports the per-layer metrics
// and the tracing overhead instead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Output checks, counted per operation: a bake leg, a save, a load, a view,
// a service job. A failed operation makes the run incorrect.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // what failed, for stderr

  bool record(bool ok, const std::string& what);
};

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // checkpoints, answer files, the service socket, spans
};

struct Outcome {
  // Every workload reports the same end-to-end set (BENCHMARK.json), from
  // the untraced pass.
  std::vector<Metric> end_to_end;
  // End-to-end numbers only some workloads have (view_pixels_per_s on
  // interior-bake, latency_p99_s on service-mix): printed, not gated.
  std::vector<Metric> other;
  std::vector<Metric> per_layer;  // filled when Options::trace
  Checks checks;
};

Outcome run_interior_bake(const Options& options, SpanRecorder& spans);
Outcome run_cornell_dist(const Options& options, SpanRecorder& spans);
Outcome run_service_mix(const Options& options, SpanRecorder& spans);

// Every per-layer metric name with its unit, in report order. Layers a
// workload does not exercise report 0 (README.md, "Per-layer metrics").
const std::vector<Metric>& per_layer_catalog();

// getrusage max RSS of this process, MiB.
double peak_rss_mb();

}  // namespace perfbench
