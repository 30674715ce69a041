#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/onb.hpp"
#include "core/rng.hpp"
#include "engine/pool.hpp"
#include "mp/minimpi.hpp"
#include "sim/emitter.hpp"
#include "spans.hpp"

namespace perfbench {

using photon::BounceRecord;
using photon::Ray;
using Clock = std::chrono::steady_clock;

namespace {

// Replays are short and single-threaded; the median of a few repeats keeps
// one descheduling from setting the number.
constexpr int kRepeats = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class VectorSink final : public photon::BinSink {
 public:
  explicit VectorSink(std::vector<BounceRecord>& out) : out_(&out) {}
  void record(const BounceRecord& rec) override { out_->push_back(rec); }

 private:
  std::vector<BounceRecord>* out_;
};

}  // namespace

Capture capture_records(const photon::Scene& scene, const photon::RunConfig& config,
                        std::uint64_t photons) {
  Capture capture;
  const photon::Emitter emitter(scene);
  const photon::Tracer tracer(scene, config.limits);
  VectorSink sink(capture.records);
  for (std::uint64_t id = 0; id < photons; ++id) {
    photon::Lcg48 rng = photon::photon_stream(config.seed, id);
    tracer.trace(emitter.emit(rng), rng, sink, &capture.counters);
  }
  return capture;
}

double trace_photons_per_s(const photon::Scene& scene, const photon::RunConfig& config,
                           std::uint64_t photons) {
  const photon::Emitter emitter(scene);
  const photon::Tracer tracer(scene, config.limits);
  std::vector<double> rates;
  for (int r = 0; r < kRepeats; ++r) {
    photon::NullSink sink;
    const auto t0 = Clock::now();
    for (std::uint64_t id = 0; id < photons; ++id) {
      photon::Lcg48 rng = photon::photon_stream(config.seed, id);
      tracer.trace(emitter.emit(rng), rng, sink);
    }
    rates.push_back(static_cast<double>(photons) / seconds_since(t0));
  }
  return median(rates);
}

double tallies_per_s(const photon::Scene& scene, const photon::RunConfig& config,
                     const std::vector<BounceRecord>& records) {
  std::vector<double> rates;
  for (int r = 0; r < kRepeats; ++r) {
    photon::BinForest forest(scene.patch_count(), config.policy);
    const auto t0 = Clock::now();
    for (const BounceRecord& rec : records) {
      forest.record(rec.patch, rec.front, rec.coords, rec.channel);
    }
    rates.push_back(static_cast<double>(records.size()) / seconds_since(t0));
  }
  return median(rates);
}

std::vector<Ray> photon_rays(const photon::Scene& scene,
                             const std::vector<BounceRecord>& records) {
  const double epsilon = photon::surface_epsilon(scene.bounds());
  std::vector<Ray> rays;
  rays.reserve(records.size());
  for (const BounceRecord& rec : records) {
    const photon::Patch& patch = scene.patch(rec.patch);
    const photon::Vec3 side_normal = rec.front ? patch.normal() : -patch.normal();
    const photon::Onb frame = photon::Onb::from_normal(side_normal);
    const double u = rec.coords.u, theta = rec.coords.theta;
    const double r = std::sqrt(u);
    const photon::Vec3 local{r * std::cos(theta), r * std::sin(theta),
                             std::sqrt(std::max(0.0, 1.0 - u))};
    const photon::Vec3 origin = patch.point_at(rec.coords.s, rec.coords.t) + side_normal * epsilon;
    rays.emplace_back(origin, frame.to_world(local).normalized());
  }
  return rays;
}

std::vector<Ray> camera_rays(const photon::Camera& camera, int stride) {
  std::vector<Ray> rays;
  int n = 0;
  for (int y = 0; y < camera.height(); ++y) {
    for (int x = 0; x < camera.width(); ++x) {
      if (n++ % stride == 0) rays.push_back(camera.ray_through(x, y));
    }
  }
  return rays;
}

RayStats ray_stats(const photon::Scene& scene, const std::vector<Ray>& rays) {
  RayStats stats;
  std::vector<double> rates;
  for (int r = 0; r < kRepeats; ++r) {
    photon::SceneHit hit;
    const auto t0 = Clock::now();
    for (const Ray& ray : rays) scene.intersect(ray, photon::kNoHit, hit);
    rates.push_back(static_cast<double>(rays.size()) / seconds_since(t0));
  }
  stats.rays_per_s = median(rates);
  photon::TraversalStats counted;
  for (const Ray& ray : rays) {
    photon::SceneHit hit;
    scene.accel().intersect_counted(ray, photon::kNoHit, hit, counted);
  }
  const double n = std::max<double>(1.0, static_cast<double>(rays.size()));
  stats.nodes_per_ray = static_cast<double>(counted.nodes_visited) / n;
  stats.tests_per_ray = static_cast<double>(counted.patch_tests) / n;
  return stats;
}

double lookups_per_s(const photon::Scene& scene, const photon::BinForest& forest,
                     const std::vector<Ray>& rays) {
  struct Lookup {
    int patch;
    bool front;
    photon::BinCoords coords;
    double area;
  };
  std::vector<Lookup> lookups;
  for (const Ray& ray : rays) {
    const auto hit = scene.intersect(ray);
    if (!hit) continue;
    const photon::Patch& patch = scene.patch(hit->patch);
    const photon::Vec3 side_normal = hit->front ? patch.normal() : -patch.normal();
    const photon::Vec3 to_eye = photon::Onb::from_normal(side_normal).to_local(-ray.dir);
    if (to_eye.z <= 0.0) continue;
    lookups.push_back(Lookup{hit->patch, hit->front,
                             photon::BinCoords::from_local_dir(hit->s, hit->t, to_eye),
                             patch.area()});
  }
  std::vector<double> rates;
  double sink = 0.0;
  for (int r = 0; r < kRepeats; ++r) {
    const auto t0 = Clock::now();
    for (const Lookup& l : lookups) {
      for (int c = 0; c < photon::kNumChannels; ++c) {
        sink += forest.radiance(l.patch, l.front, l.coords, c, l.area);
      }
    }
    rates.push_back(static_cast<double>(lookups.size() * photon::kNumChannels) /
                    seconds_since(t0));
  }
  return std::isfinite(sink) ? median(rates) : 0.0;
}

double pool_dispatch_us(std::uint64_t chunks, int width) {
  photon::WorkerPool& pool = photon::WorkerPool::instance();
  const auto empty = [](std::uint64_t, int) {};
  for (int i = 0; i < 100; ++i) pool.run(chunks, width, empty);
  std::vector<double> us;
  for (int i = 0; i < 2000; ++i) {
    const auto t0 = Clock::now();
    pool.run(chunks, width, empty);
    us.push_back(1e6 * seconds_since(t0));
  }
  return median(us);
}

double alltoall_us(int ranks, std::uint64_t bytes_per_rank) {
  constexpr int kRounds = 1000;
  const std::uint64_t per_peer = bytes_per_rank / static_cast<std::uint64_t>(std::max(ranks - 1, 1));
  std::vector<double> us;
  photon::run_world(ranks, [&](photon::Comm& comm) {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<photon::Bytes> outgoing(static_cast<std::size_t>(ranks));
      for (int d = 0; d < ranks; ++d) {
        if (d != comm.rank()) outgoing[static_cast<std::size_t>(d)].assign(per_peer, 0x5A);
      }
      comm.barrier();
      const auto t0 = Clock::now();
      photon::PendingExchange pending = comm.alltoall_start(std::move(outgoing));
      pending.finish();
      if (comm.rank() == 0) us.push_back(1e6 * seconds_since(t0));
    }
  });
  return median(us);
}

}  // namespace perfbench
