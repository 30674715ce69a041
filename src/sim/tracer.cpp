#include "sim/tracer.hpp"

#include <algorithm>

namespace photon {

double surface_epsilon(const Aabb& bounds) {
  return 1e-7 * std::max(1.0, bounds.extent().length());
}

Tracer::Tracer(const Scene& scene, TraceLimits limits)
    : scene_(&scene), limits_(limits), epsilon_(surface_epsilon(scene.bounds())) {}

void Tracer::trace(const EmissionSample& emission, Lcg48& rng, BinSink& sink,
                   TraceCounters* counters) const {
  PhotonPath path = begin(emission, sink, counters);
  SceneHit hit;
  while (path.bounces < limits_.max_bounces) {
    if (!scene_->intersect(Ray(path.origin, path.dir), kNoHit, hit)) {
      if (counters) ++counters->escaped;
      return;
    }
    if (!scatter(hit, path, rng, sink, counters)) return;
  }
  if (counters) ++counters->terminated;
}

PhotonPath Tracer::begin(const EmissionSample& emission, BinSink& sink,
                         TraceCounters* counters) const {
  if (counters) ++counters->emitted;

  // Emission tally on the luminaire itself.
  BounceRecord rec;
  rec.patch = emission.patch;
  rec.front = true;
  rec.coords = BinCoords::from_local_dir(emission.s, emission.t, emission.dir_local);
  rec.channel = static_cast<std::uint8_t>(emission.channel);
  sink.record(rec);

  PhotonPath path;
  path.origin = emission.origin;
  path.dir = emission.dir;
  path.channel = emission.channel;
  return path;
}

bool Tracer::scatter(const SceneHit& hit, PhotonPath& path, Lcg48& rng, BinSink& sink,
                     TraceCounters* counters) const {
  const Patch& patch = scene_->patch(hit.patch);
  const Material& mat = scene_->material_of(patch);
  if (!hit.front && !mat.two_sided) {
    // Back side of a one-sided surface: opaque, photon absorbed.
    if (counters) ++counters->absorbed;
    return false;
  }

  // Local frame on the side that was hit.
  const Vec3 side_normal = hit.front ? patch.normal() : -patch.normal();
  const Onb frame = Onb::from_normal(side_normal);
  const Vec3 wi_local = frame.to_local(path.dir);  // z < 0: heading into the surface

  const ScatterSample scatter = sample_scatter(mat, wi_local, path.channel, path.pol, rng);
  if (scatter.kind == ScatterKind::kAbsorbed) {
    if (counters) ++counters->absorbed;
    return false;
  }
  path.channel = scatter.channel;

  BounceRecord rec;
  rec.patch = hit.patch;
  rec.front = hit.front;
  rec.coords = BinCoords::from_local_dir(hit.s, hit.t, scatter.dir);
  rec.channel = static_cast<std::uint8_t>(path.channel);
  sink.record(rec);
  if (counters) ++counters->bounces;
  ++path.bounces;

  const Vec3 hit_point = path.origin + path.dir * hit.dist;
  path.dir = frame.to_world(scatter.dir).normalized();
  // Nudge off the surface to avoid re-intersecting it.
  path.origin = hit_point + side_normal * epsilon_;
  return true;
}

}  // namespace photon
