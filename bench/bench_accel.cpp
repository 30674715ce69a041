// Acceleration-structure shootout. Chapter 4 notes that "increasing the
// speed of intersection determination holds the most promise for decreasing
// solution time"; this bench (which grew out of the octree-parameter
// ablation) races the structures behind the AccelStructure seam — octree and
// nested uniform grid — on every bundled scene and on the repository
// benchmark's ~90k-patch office (perfbench/office.cpp, seed 1: the only scene
// whose index outgrows L2), with the brute linear scan as the baseline on the
// bundled scenes. Build time, memory, closest-hit throughput, deterministic
// work counters (patch tests / cells visited per ray), and end-to-end
// photons/s through the serial backend, per structure.
//
//   bench_accel [--rays=N] [--photons=N] [--reps=N] [--out=FILE] [--label=NAME]
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/rng.hpp"
#include "engine/backend.hpp"
#include "geom/scenes.hpp"
#include "office.hpp"

using namespace photon;

namespace {

// `b` is the scene's bounds, computed once per scene: Scene::bounds() scans
// every patch, which would dominate the office's ray loop.
Ray random_interior_ray(const Aabb& b, Lcg48& rng) {
  const Vec3 e = b.extent();
  const Vec3 origin = b.lo + Vec3{0.1 * e.x + 0.8 * e.x * rng.uniform(),
                                  0.1 * e.y + 0.8 * e.y * rng.uniform(),
                                  0.1 * e.z + 0.8 * e.z * rng.uniform()};
  Vec3 dir{rng.uniform() * 2 - 1, rng.uniform() * 2 - 1, rng.uniform() * 2 - 1};
  while (dir.length_squared() < 1e-9) {
    dir = Vec3{rng.uniform() * 2 - 1, rng.uniform() * 2 - 1, rng.uniform() * 2 - 1};
  }
  return Ray(origin, dir.normalized());
}

double seconds_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  const int rays = static_cast<int>(benchutil::arg_u64(argc, argv, "rays", 30000));
  const auto photons = benchutil::arg_u64(argc, argv, "photons", 20000);
  const int reps = static_cast<int>(benchutil::arg_u64(argc, argv, "reps", 10));
  const std::string out = benchutil::arg_str(argc, argv, "out", "");
  const std::string label = benchutil::arg_str(argc, argv, "label", "current");

  std::vector<std::string> rows;
  char buf[512];

  benchutil::header("Acceleration-structure shootout (closest-hit + serial photon rate)");
  std::printf("%12s %-7s | %9s %8s %8s | %10s %9s %9s | %11s\n", "scene", "accel", "build ms",
              "nodes", "mem KB", "rays/sec", "tests/ray", "cells/ray", "photons/s");
  benchutil::rule();

  std::vector<benchutil::NamedScene> specs = benchutil::bundled_scenes();
  specs.push_back({"office", perfbench::generate_office(1).scene});
  for (auto& spec : specs) {
    const Aabb bounds = spec.scene.bounds();
    // Brute-force baseline: the reference every structure must answer
    // bitwise-identically (the equivalence suite enforces it; this row just
    // prices it). Skipped on the office, where 90k tests per ray would take
    // the whole bench's budget.
    if (spec.scene.patch_count() < 10000) {
      Lcg48 rng(7);
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < rays; ++i) spec.scene.intersect_brute(random_interior_ray(bounds, rng));
      const double rate = rays / seconds_since(start);
      std::printf("%12s %-7s | %9s %8s %8s | %10.0f %9zu %9s | %11s\n", spec.name, "brute", "-",
                  "-", "-", rate, spec.scene.patch_count(), "-", "-");
      std::snprintf(buf, sizeof(buf),
                    "{\"section\": \"shootout\", \"scene\": \"%s\", \"accel\": \"brute\", "
                    "\"rays_per_s\": %.0f, \"tests_per_ray\": %zu}",
                    spec.name, rate, spec.scene.patch_count());
      rows.push_back(buf);
    }

    for (const AccelKind kind : accel_kinds()) {
      spec.scene.set_accel(kind);
      const auto build_start = std::chrono::steady_clock::now();
      for (int rep = 0; rep < reps; ++rep) spec.scene.build();
      const double build_ms = seconds_since(build_start) * 1e3 / reps;
      const AccelStructure& accel = spec.scene.accel();

      Lcg48 rng(7);
      const auto start = std::chrono::steady_clock::now();
      std::uint64_t hits = 0;
      for (int i = 0; i < rays; ++i) {
        SceneHit best;
        if (accel.intersect(random_interior_ray(bounds, rng), kNoHit, best)) ++hits;
      }
      const double rate = rays / seconds_since(start) + (hits == 0 ? 1e-9 : 0.0);

      // Deterministic work counters over the identical ray set.
      TraversalStats stats;
      Lcg48 rng2(7);
      for (int i = 0; i < rays; ++i) {
        SceneHit best;
        accel.intersect_counted(random_interior_ray(bounds, rng2), kNoHit, best, stats);
      }
      const double tests_per_ray = static_cast<double>(stats.patch_tests) / rays;
      const double cells_per_ray = static_cast<double>(stats.nodes_visited) / rays;

      // End-to-end: the serial backend over this scene+structure.
      RunConfig config;
      config.photons = photons;
      const RunResult result = make_backend("serial")->run(spec.scene, config, nullptr);
      const double photon_rate = result.trace.final_rate();

      const char* name = accel_kind_name(kind);
      std::printf("%12s %-7s | %9.3f %8zu %8zu | %10.0f %9.1f %9.1f | %11.0f\n", spec.name,
                  name, build_ms, accel.node_count(), accel.memory_bytes() / 1024, rate,
                  tests_per_ray, cells_per_ray, photon_rate);
      std::snprintf(
          buf, sizeof(buf),
          "{\"section\": \"shootout\", \"scene\": \"%s\", \"accel\": \"%s\", "
          "\"build_ms\": %.3f, \"nodes\": %zu, \"depth\": %d, \"refs\": %zu, "
          "\"lanes\": %zu, \"memory_bytes\": %zu, \"rays_per_s\": %.0f, "
          "\"tests_per_ray\": %.2f, \"cells_per_ray\": %.2f, \"photons_per_s\": %.0f}",
          spec.name, name, build_ms, accel.node_count(), accel.depth(),
          accel.item_ref_count(), accel.lane_count(), accel.memory_bytes(), rate,
          tests_per_ray, cells_per_ray, photon_rate);
      rows.push_back(buf);
    }
  }
  benchutil::rule();
  std::printf(
      "Shape to check: every structure beats brute by an order of magnitude; the\n"
      "grid's photons/s lead over the octree grows with scene size (on cornell\n"
      "the two are within run-to-run noise).\n");

  benchutil::header("Parallel build — fixed task decomposition (Computer Lab)");
  std::printf("%-7s %8s | %12s | %10s\n", "accel", "workers", "build ms", "identical");
  benchutil::rule();
  {
    const Scene lab = scenes::computer_lab();
    for (const AccelKind kind : accel_kinds()) {
      AccelBuildParams ref_params;
      ref_params.workers = 1;
      const auto reference = make_accel(kind);
      reference->build(lab.patches(), ref_params);
      for (const int workers : {1, 2, 4, 8}) {
        const auto tree = make_accel(kind);
        AccelBuildParams params;
        params.workers = workers;
        const auto start = std::chrono::steady_clock::now();
        for (int rep = 0; rep < reps; ++rep) tree->build(lab.patches(), params);
        const double build_ms = seconds_since(start) * 1e3 / reps;
        const bool same = tree->identical_to(*reference);
        std::printf("%-7s %8d | %12.3f | %10s\n", accel_kind_name(kind), workers, build_ms,
                    same ? "yes" : "NO");
        std::snprintf(buf, sizeof(buf),
                      "{\"section\": \"build\", \"accel\": \"%s\", \"workers\": %d, "
                      "\"build_ms\": %.3f, \"identical\": %s}",
                      accel_kind_name(kind), workers, build_ms, same ? "true" : "false");
        rows.push_back(buf);
        if (!same) {
          std::fprintf(stderr, "error: %s build at workers=%d is not bitwise-identical\n",
                       accel_kind_name(kind), workers);
          return 1;
        }
      }
    }
  }
  benchutil::rule();
  std::printf(
      "Built arrays are bitwise-identical at every worker count (checked above);\n"
      "at the lab's ~2000 patches the parallel rows mostly measure task overhead.\n");

  if (!out.empty()) {
    char fields[128];
    std::snprintf(fields, sizeof(fields), "\"rays\": %d", rays);
    char fields2[128];
    std::snprintf(fields2, sizeof(fields2), "\"photons\": %llu",
                  static_cast<unsigned long long>(photons));
    return benchutil::write_json_artifact(out, "accel", label, {fields, fields2}, rows) ? 0 : 1;
  }
  return 0;
}
