// Self-tests for the benchmark's own code: the office generator, the
// percentile rule, and span self time. Run with
//   python3 perfbench/run.py --selftest
// Exits nonzero when any check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "engine/backend.hpp"
#include "office.hpp"
#include "spans.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

bool same_vec(const photon::Vec3& a, const photon::Vec3& b) {
  return a.x == b.x && a.y == b.y && a.z == b.z;
}

bool same_patches(const photon::Scene& a, const photon::Scene& b) {
  if (a.patch_count() != b.patch_count() || a.luminaires().size() != b.luminaires().size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.patch_count(); ++i) {
    const photon::Patch& p = a.patches()[i];
    const photon::Patch& q = b.patches()[i];
    if (!same_vec(p.origin(), q.origin()) || !same_vec(p.edge_s(), q.edge_s()) ||
        !same_vec(p.edge_t(), q.edge_t()) || p.material_id() != q.material_id()) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.luminaires().size(); ++i) {
    if (a.luminaires()[i].patch != b.luminaires()[i].patch) return false;
  }
  return true;
}

void test_office_generator() {
  const perfbench::Office a = perfbench::generate_office(7);
  const perfbench::Office again = perfbench::generate_office(7);
  const perfbench::Office other = perfbench::generate_office(8);
  CHECK(same_patches(a.scene, again.scene));
  CHECK(!same_patches(a.scene, other.scene));
  CHECK(a.scene.patch_count() > 80000 && a.scene.patch_count() < 100000);
  const double ratio = static_cast<double>(other.scene.patch_count()) /
                       static_cast<double>(a.scene.patch_count());
  CHECK(std::fabs(ratio - 1.0) < 0.03);
  bool valid = true;
  try {
    photon::validate_scene(a.scene);
    photon::validate_scene(other.scene);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "validate_scene: %s\n", e.what());
    valid = false;
  }
  CHECK(valid);

  // The office is closed: a short run loses no photon through the shell.
  perfbench::Office office = perfbench::generate_office(7);
  office.scene.build();
  photon::RunConfig config;
  config.photons = 20000;
  config.workers = 4;
  const photon::RunResult result = photon::make_backend("shared")->run(office.scene, config);
  CHECK(result.counters.emitted == 20000);
  CHECK(result.counters.escaped == 0);
  CHECK(result.counters.bounces > 0);

  const std::vector<photon::Camera> views = perfbench::walkthrough(office, 7, 4, 64, 48);
  CHECK(views.size() == 4);
}

void test_percentile_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  CHECK(!perfbench::percentile(v, 99.0).has_value());  // p99 needs 1000 samples
  CHECK(perfbench::percentile(v, 90.0).has_value());   // p90 needs 100
  v.push_back(1000);
  const auto p99 = perfbench::percentile(v, 99.0);
  CHECK(p99.has_value() && std::fabs(*p99 - 990.01) < 1e-9);
  CHECK(perfbench::percentile({4.0}, 50.0) == 4.0);
  CHECK(!perfbench::percentile({}, 50.0).has_value());
  CHECK(perfbench::median({3.0, 1.0, 2.0, 10.0}) == 2.5);
}

void test_self_time() {
  using perfbench::Span;
  // Concurrent jobs under one client-loop span: children overlap, and one
  // runs past the parent's end. Grandchildren count for their own parent.
  const std::vector<Span> spans = {
      {"loop", 0.0, 10.0, 0, -1, -1},  {"job", 1.0, 4.0, 1, 0, 1},
      {"job", 3.0, 6.0, 2, 0, 2},      {"job", 8.0, 9.0, 3, 0, 3},
      {"job", 9.5, 12.0, 4, 0, 4},     {"wait", 1.5, 3.5, 5, 1, 1},
  };
  CHECK(std::fabs(perfbench::self_time(spans[0], spans) - 3.5) < 1e-12);
  CHECK(std::fabs(perfbench::self_time(spans[1], spans) - 1.0) < 1e-12);
  CHECK(std::fabs(perfbench::self_time(spans[5], spans) - 2.0) < 1e-12);

  perfbench::SpanRecorder off(false);
  CHECK(off.open("x") == -1);
  CHECK(off.snapshot().empty());
  perfbench::SpanRecorder on(true);
  const int parent = on.open("parent");
  on.add("child", 0.0, 0.0, parent, 7);
  on.close(parent);
  CHECK(on.snapshot().size() == 2 && on.snapshot()[1].job == 7);
  CHECK(on.durations("child").size() == 1);
}

}  // namespace

int main() {
  test_percentile_rule();
  test_self_time();
  test_office_generator();
  if (failures) {
    std::fprintf(stderr, "perfbench selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
