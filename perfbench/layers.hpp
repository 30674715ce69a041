// Single-layer replays for the traced run. Each one isolates one layer of
// the photon pipeline on one thread (or, for the pool and MiniMPI, on an
// empty body) over inputs taken from the workload itself: its own photon
// ids, its own record stream, its own camera rays and chunk grid. They run
// after the timed part, on a fixed prefix of the workload's photon ids.
#pragma once

#include <cstdint>
#include <vector>

#include "core/ray.hpp"
#include "engine/config.hpp"
#include "geom/scene.hpp"
#include "hist/binforest.hpp"
#include "sim/tracer.hpp"
#include "view/camera.hpp"

namespace perfbench {

// Photons [0, photons) of the workload's run, traced with
// photon_stream(config.seed, id): the records they tally and their counters.
struct Capture {
  std::vector<photon::BounceRecord> records;
  photon::TraceCounters counters;
};
Capture capture_records(const photon::Scene& scene, const photon::RunConfig& config,
                        std::uint64_t photons);

// Emitter::emit + Tracer::trace into a NullSink: photons per second.
double trace_photons_per_s(const photon::Scene& scene, const photon::RunConfig& config,
                           std::uint64_t photons);

// The captured records replayed into a fresh forest: tallies per second.
double tallies_per_s(const photon::Scene& scene, const photon::RunConfig& config,
                     const std::vector<photon::BounceRecord>& records);

// The photon rays behind the records: origin at Patch::point_at(s, t) on the
// recorded side, direction from (u, theta) in that side's frame — one ray per
// record, exactly the rays the tracer cast after each tally.
std::vector<photon::Ray> photon_rays(const photon::Scene& scene,
                                     const std::vector<photon::BounceRecord>& records);

// Every pixel-centre ray of `camera`, row by row, keeping every `stride`-th.
std::vector<photon::Ray> camera_rays(const photon::Camera& camera, int stride);

struct RayStats {
  double rays_per_s = 0.0;     // Scene::intersect
  double nodes_per_ray = 0.0;  // intersect_counted
  double tests_per_ray = 0.0;
};
RayStats ray_stats(const photon::Scene& scene, const std::vector<photon::Ray>& rays);

// BinForest::radiance over the hits of `rays` (one lookup per channel):
// lookups per second. Hits are resolved before the clock starts.
double lookups_per_s(const photon::Scene& scene, const photon::BinForest& forest,
                     const std::vector<photon::Ray>& rays);

// Median wall time of WorkerPool::instance().run over `chunks` chunks at
// `width` with an empty body, in microseconds.
double pool_dispatch_us(std::uint64_t chunks, int width);

// Median wall time of one alltoall_start/finish on a fresh run_world(ranks)
// with `bytes_per_rank` outgoing bytes per rank split over the other ranks,
// in microseconds.
double alltoall_us(int ranks, std::uint64_t bytes_per_rank);

}  // namespace perfbench
