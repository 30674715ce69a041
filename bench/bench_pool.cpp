// bench_pool — the persistent worker pool's two headline numbers.
//
// 1. Dispatch overhead: the per-batch cost of the seed's spawn/join idiom
//    (T fresh std::threads per batch window, the old hybrid inner loop)
//    against waking the parked pool. This is pure scheduling overhead — the
//    body is trivial — so the ratio is the thousands-of-windows tax a long
//    chapter-5 run used to pay.
//
// 2. Tail latency under skewed per-photon cost: the paper's Table 5.2
//    imbalance. Real per-photon costs (1 + bounces, traced once with
//    photon streams — deterministic) are laid on the pool's chunk grid and
//    scheduled two ways with a deterministic discrete-event simulation of
//    the pool's exact policy: the static contiguous split (kStaticOnly,
//    the pre-pool schedule) and dynamic steal-from-richest (kNone). The
//    critical path (the busiest worker's summed cost) is the wall clock a
//    fully parallel machine would see; reporting the simulated number keeps
//    the bench meaningful on this single-core container, where measured
//    wall time only shows timesharing. Wall seconds for real shared-backend
//    runs under both schedules ride along for completeness.
//
//    Scheduling is windowed exactly like the backends: each batch window
//    drains before the next starts, so every window's tail gates it. The
//    defaults (workers=8, batch=512, chunk=8) sit in the small-window
//    regime the adaptive batcher produces, which is where a static split
//    hurts most — few chunks per worker per window means one heavy chunk
//    cannot be averaged away, only stolen.
//
//   bench_pool [--photons=N] [--workers=N] [--chunk=N] [--batch=N]
//              [--batches=N] [--out=FILE] [--label=NAME]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "engine/backend.hpp"
#include "engine/pool.hpp"
#include "sim/emitter.hpp"
#include "sim/tracer.hpp"

namespace {

using namespace photon;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Part 1: dispatch overhead -------------------------------------------

// One trivial task per worker — any real work would mask the dispatch cost.
std::atomic<std::uint64_t> g_sink{0};

double spawn_join_us_per_batch(int threads, int batches) {
  const double t0 = now_s();
  for (int b = 0; b < batches; ++b) {
    std::vector<std::thread> team;
    team.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      team.emplace_back([] { g_sink.fetch_add(1, std::memory_order_relaxed); });
    }
    for (std::thread& t : team) t.join();
  }
  return (now_s() - t0) * 1e6 / batches;
}

double pool_dispatch_us_per_batch(int threads, int batches) {
  WorkerPool pool(threads - 1);
  // Warm the pool (helpers spawned, parked) before the clock starts — that
  // one-time cost is exactly what the pool amortizes away.
  pool.run(static_cast<std::uint64_t>(threads), threads,
           [](std::uint64_t, int) { g_sink.fetch_add(1, std::memory_order_relaxed); });
  const double t0 = now_s();
  for (int b = 0; b < batches; ++b) {
    pool.run(static_cast<std::uint64_t>(threads), threads,
             [](std::uint64_t, int) { g_sink.fetch_add(1, std::memory_order_relaxed); });
  }
  return (now_s() - t0) * 1e6 / batches;
}

// --- Part 2: tail latency on a skewed-cost chunk grid --------------------

struct BinDiscard final : BinSink {
  void record(const BounceRecord&) override {}
};

// Deterministic per-photon work: 1 emission + the photon's bounce count,
// traced once from its own stream (identical on every machine and run).
std::vector<std::uint64_t> photon_costs(const Scene& scene, std::uint64_t photons,
                                        std::uint64_t seed) {
  const Emitter emitter(scene);
  const Tracer tracer(scene, TraceLimits{});
  BinDiscard sink;
  TraceCounters counters;
  std::vector<std::uint64_t> cost(photons);
  std::uint64_t prev_bounces = 0;
  for (std::uint64_t i = 0; i < photons; ++i) {
    Lcg48 rng = photon_stream(seed, i);
    const EmissionSample emission = emitter.emit(rng);
    tracer.trace(emission, rng, sink, &counters);
    cost[i] = 1 + (counters.bounces - prev_bounces);
    prev_bounces = counters.bounces;
  }
  return cost;
}

std::vector<std::uint64_t> chunk_costs(const std::vector<std::uint64_t>& photon_cost,
                                       std::uint64_t chunk_size) {
  const std::uint64_t chunks = chunk_count(photon_cost.size(), chunk_size);
  std::vector<std::uint64_t> cost(chunks, 0);
  for (std::uint64_t i = 0; i < photon_cost.size(); ++i) cost[i / chunk_size] += photon_cost[i];
  return cost;
}

// The pool's even contiguous split, remainder to the low slots.
std::vector<std::pair<std::uint64_t, std::uint64_t>> static_ranges(std::uint64_t chunks,
                                                                   int width) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> r;
  const std::uint64_t base = chunks / static_cast<std::uint64_t>(width);
  const std::uint64_t extra = chunks % static_cast<std::uint64_t>(width);
  std::uint64_t at = 0;
  for (int s = 0; s < width; ++s) {
    const std::uint64_t n = base + (static_cast<std::uint64_t>(s) < extra ? 1 : 0);
    r.emplace_back(at, at + n);
    at += n;
  }
  return r;
}

struct TailResult {
  std::uint64_t critical_path = 0;  // busiest worker's summed chunk cost
  std::uint64_t steals = 0;
};

// Static schedule: each worker runs exactly its contiguous share.
TailResult simulate_static(const std::vector<std::uint64_t>& cost, int width) {
  TailResult out;
  for (const auto& [lo, hi] : static_ranges(cost.size(), width)) {
    std::uint64_t sum = 0;
    for (std::uint64_t c = lo; c < hi; ++c) sum += cost[c];
    out.critical_path = std::max(out.critical_path, sum);
  }
  return out;
}

// Cuts the photon range into `batch`-photon windows (the backends' drain
// barrier) and sums each window's critical path: the tail of every window
// gates that window, exactly as in the particle engine (par/hybrid.cpp).
template <typename Sim>
TailResult windowed(const std::vector<std::uint64_t>& photon_cost, std::uint64_t batch,
                    std::uint64_t chunk, int width, Sim sim) {
  TailResult total;
  for (std::uint64_t lo = 0; lo < photon_cost.size(); lo += batch) {
    const std::uint64_t hi = std::min<std::uint64_t>(lo + batch, photon_cost.size());
    const std::vector<std::uint64_t> window(photon_cost.begin() + static_cast<std::ptrdiff_t>(lo),
                                            photon_cost.begin() + static_cast<std::ptrdiff_t>(hi));
    const TailResult r = sim(chunk_costs(window, chunk), width);
    total.critical_path += r.critical_path;
    total.steals += r.steals;
  }
  return total;
}

// Dynamic schedule: discrete-event simulation of the pool's claim protocol —
// the worker with the lowest virtual clock claims next, from its own range's
// head or, when dry, one chunk off the richest victim's tail. This is the
// schedule real parallel hardware would execute, computed deterministically.
TailResult simulate_dynamic(const std::vector<std::uint64_t>& cost, int width) {
  auto ranges = static_ranges(cost.size(), width);
  std::vector<std::uint64_t> clock(static_cast<std::size_t>(width), 0);
  std::vector<bool> done(static_cast<std::size_t>(width), false);
  TailResult out;
  for (;;) {
    int w = -1;
    for (int s = 0; s < width; ++s) {
      if (!done[static_cast<std::size_t>(s)] && (w < 0 || clock[static_cast<std::size_t>(s)] <
                                                              clock[static_cast<std::size_t>(w)])) {
        w = s;
      }
    }
    if (w < 0) break;
    auto& own = ranges[static_cast<std::size_t>(w)];
    std::uint64_t chunk = 0;
    bool claimed = false;
    if (own.first < own.second) {
      chunk = own.first++;
      claimed = true;
    } else {
      int victim = -1;
      std::uint64_t best_remaining = 0;
      for (int v = 0; v < width; ++v) {
        const std::uint64_t remaining = ranges[static_cast<std::size_t>(v)].second -
                                        ranges[static_cast<std::size_t>(v)].first;
        if (v != w && remaining > best_remaining) {
          best_remaining = remaining;
          victim = v;
        }
      }
      if (victim >= 0) {
        chunk = --ranges[static_cast<std::size_t>(victim)].second;
        claimed = true;
        ++out.steals;
      }
    }
    if (!claimed) {
      done[static_cast<std::size_t>(w)] = true;
      continue;
    }
    clock[static_cast<std::size_t>(w)] += cost[static_cast<std::size_t>(chunk)];
  }
  for (int s = 0; s < width; ++s) {
    out.critical_path = std::max(out.critical_path, clock[static_cast<std::size_t>(s)]);
  }
  return out;
}

double wall_of_shared(const Scene& scene, std::uint64_t photons, int workers,
                      std::uint64_t chunk, std::uint64_t batch,
                      WorkerPool::TestSchedule schedule) {
  WorkerPool::ScheduleGuard guard(schedule);
  RunConfig cfg;
  cfg.photons = photons;
  cfg.workers = workers;
  cfg.chunk = chunk;
  cfg.batch = batch;
  const RunResult r = make_backend("shared")->run(scene, cfg);
  return r.trace.total_time_s;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t photons = benchutil::arg_u64(argc, argv, "photons", 40000);
  const int workers = static_cast<int>(benchutil::arg_u64(argc, argv, "workers", 8));
  const std::uint64_t chunk = benchutil::arg_u64(argc, argv, "chunk", 8);
  const std::uint64_t batch = benchutil::arg_u64(argc, argv, "batch", 512);
  const int batches = static_cast<int>(benchutil::arg_u64(argc, argv, "batches", 400));
  const std::string out = benchutil::arg_str(argc, argv, "out", "BENCH_pool.json");
  const std::string label = benchutil::arg_str(argc, argv, "label", "current");

  std::vector<std::string> rows;
  char buf[512];

  benchutil::header("pool dispatch overhead (trivial body)");
  const double spawn_us = spawn_join_us_per_batch(workers, batches);
  const double pool_us = pool_dispatch_us_per_batch(workers, batches);
  std::printf("spawn/join per batch: %9.1f us   (T=%d fresh std::threads)\n", spawn_us, workers);
  std::printf("pool dispatch:        %9.1f us   (parked helpers woken)\n", pool_us);
  std::printf("ratio:                %9.1fx\n", pool_us > 0.0 ? spawn_us / pool_us : 0.0);
  std::snprintf(buf, sizeof(buf),
                "{\"section\": \"dispatch\", \"mode\": \"spawn_join\", \"threads\": %d, "
                "\"batches\": %d, \"us_per_batch\": %.2f}",
                workers, batches, spawn_us);
  rows.push_back(buf);
  std::snprintf(buf, sizeof(buf),
                "{\"section\": \"dispatch\", \"mode\": \"pool\", \"threads\": %d, "
                "\"batches\": %d, \"us_per_batch\": %.2f}",
                workers, batches, pool_us);
  rows.push_back(buf);

  benchutil::header("tail latency: static split vs dynamic stealing (simulated critical path)");
  std::printf("%-12s %7s %6s %12s %12s %12s %8s %7s\n", "scene", "chunks", "W", "ideal",
              "static", "dynamic", "gain", "steals");
  benchutil::rule();

  struct SkewScene {
    const char* name;
    Scene scene;
  };
  // cornell: the mild natural bounce skew. furnace 0.9: rho/(1-rho) = 9
  // bounces/photon with a geometric tail — the heavy skew the static split
  // is worst at.
  std::vector<SkewScene> specs;
  specs.push_back({"cornell", scenes::cornell_box()});
  specs.push_back({"furnace09", scenes::furnace_box(0.9)});

  for (const SkewScene& spec : specs) {
    const std::vector<std::uint64_t> per_photon =
        photon_costs(spec.scene, photons, 0x1234ABCD330EULL);
    std::uint64_t total = 0;
    for (const std::uint64_t c : per_photon) total += c;
    const double ideal = static_cast<double>(total) / workers;

    const TailResult st = windowed(per_photon, batch, chunk, workers, simulate_static);
    const TailResult dy = windowed(per_photon, batch, chunk, workers, simulate_dynamic);
    const double gain = dy.critical_path > 0
                            ? static_cast<double>(st.critical_path) /
                                  static_cast<double>(dy.critical_path)
                            : 0.0;

    const double wall_static = wall_of_shared(spec.scene, photons, workers, chunk, batch,
                                              WorkerPool::TestSchedule::kStaticOnly);
    const double wall_dynamic = wall_of_shared(spec.scene, photons, workers, chunk, batch,
                                               WorkerPool::TestSchedule::kNone);

    std::printf("%-12s %7llu %6d %12.0f %12llu %12llu %7.3fx %7llu\n", spec.name,
                static_cast<unsigned long long>(chunk_count(photons, chunk)), workers, ideal,
                static_cast<unsigned long long>(st.critical_path),
                static_cast<unsigned long long>(dy.critical_path), gain,
                static_cast<unsigned long long>(dy.steals));

    std::snprintf(
        buf, sizeof(buf),
        "{\"section\": \"tail\", \"scene\": \"%s\", \"workers\": %d, \"chunk\": %llu, "
        "\"batch\": %llu, \"total_cost\": %llu, \"ideal_cost\": %.1f, "
        "\"static_critical_path\": %llu, \"dynamic_critical_path\": %llu, "
        "\"dynamic_gain\": %.4f, \"dynamic_steals\": %llu, "
        "\"static_imbalance_pct\": %.2f, \"dynamic_imbalance_pct\": %.2f, "
        "\"wall_s_static\": %.6f, \"wall_s_dynamic\": %.6f}",
        spec.name, workers, static_cast<unsigned long long>(chunk),
        static_cast<unsigned long long>(batch), static_cast<unsigned long long>(total), ideal,
        static_cast<unsigned long long>(st.critical_path),
        static_cast<unsigned long long>(dy.critical_path), gain,
        static_cast<unsigned long long>(dy.steals),
        100.0 * (static_cast<double>(st.critical_path) / ideal - 1.0),
        100.0 * (static_cast<double>(dy.critical_path) / ideal - 1.0), wall_static,
        wall_dynamic);
    rows.push_back(buf);
  }

  char field[128];
  std::snprintf(field, sizeof(field), "\"photons_requested\": %llu",
                static_cast<unsigned long long>(photons));
  return benchutil::write_json_artifact(out, "pool", label, {field}, rows) ? 0 : 1;
}
