// The light-transport loop of Fig 4.1: GeneratePhoton, DetermineIntersection,
// DetermineBin, Reflect — repeated until the photon is probabilistically
// absorbed (or escapes an open scene).
//
// Tracer::scatter is the one bounce body: every trace loop runs it, whether
// it finds the hit with the whole scene's index (Tracer::trace, which serial
// and the particle engine call per photon) or region by region (the spatial
// decomposition, par/spatial.hpp). A photon's path is therefore the same
// wherever it is traced.
//
// Where the tallies *go* is abstracted behind BinSink: the serial simulator
// records straight into a BinForest, the particle engine into chunk-private
// buffers applied in photon-id order after each window, and the spatial
// decomposition keys each record with its place in the photon sequence for
// the owner's ordered apply.
#pragma once

#include <cstdint>

#include "core/rng.hpp"
#include "geom/scene.hpp"
#include "hist/binforest.hpp"
#include "material/brdf.hpp"
#include "material/polarization.hpp"
#include "sim/emitter.hpp"

namespace photon {

struct BounceRecord {
  std::int32_t patch = -1;
  bool front = true;
  BinCoords coords;
  std::uint8_t channel = 0;
};

class BinSink {
 public:
  virtual ~BinSink() = default;
  virtual void record(const BounceRecord& rec) = 0;
};

// Records directly into a BinForest (the serial path).
class ForestSink final : public BinSink {
 public:
  explicit ForestSink(BinForest& forest) : forest_(&forest) {}
  void record(const BounceRecord& rec) override {
    forest_->record(rec.patch, rec.front, rec.coords, rec.channel);
  }

 private:
  BinForest* forest_;
};

// Discards records; used when probing workloads (the load-balancing phase
// traces with "no tallying performed until the photons have been traced").
class NullSink final : public BinSink {
 public:
  void record(const BounceRecord&) override {}
};

struct TraceLimits {
  int max_bounces = 256;  // guard against pathological mirror corridors
};

struct TraceCounters {
  std::uint64_t emitted = 0;
  std::uint64_t bounces = 0;    // reflections recorded (excludes emission records)
  std::uint64_t absorbed = 0;
  std::uint64_t escaped = 0;    // left an open scene
  std::uint64_t terminated = 0; // hit the bounce limit

  double bounces_per_photon() const {
    return emitted > 0 ? static_cast<double>(bounces) / static_cast<double>(emitted) : 0.0;
  }
};

// Merges per-worker counters into a total; every backend uses this instead of
// hand-summing the fields.
inline TraceCounters& operator+=(TraceCounters& a, const TraceCounters& b) {
  a.emitted += b.emitted;
  a.bounces += b.bounces;
  a.absorbed += b.absorbed;
  a.escaped += b.escaped;
  a.terminated += b.terminated;
  return a;
}

// Self-intersection offset for a scene of the given bounds. An absolute
// nudge breaks at scale: too small for large scenes (the offset vanishes
// against the coordinate magnitude and rays re-hit the surface they left),
// needlessly coarse for tiny ones.
double surface_epsilon(const Aabb& bounds);

// A photon between bounces: the ray it travels next (from the nudged last
// hit point, or the emission point), its channel (fluorescent surfaces may
// shift it), its polarization, and the reflections recorded so far.
struct PhotonPath {
  Vec3 origin;
  Vec3 dir;
  Polarization pol = Polarization::unpolarized();
  int channel = 0;
  int bounces = 0;
};

class Tracer {
 public:
  explicit Tracer(const Scene& scene, TraceLimits limits = {});

  // Traces one emitted photon to absorption. Emission is tallied on the
  // luminaire patch (UpdateBinCount directly after GeneratePhoton in
  // Fig 4.1), then every reflection is tallied on the reflecting patch.
  void trace(const EmissionSample& emission, Lcg48& rng, BinSink& sink,
             TraceCounters* counters = nullptr) const;

  // Tallies the emission on the luminaire and returns the photon's first ray.
  PhotonPath begin(const EmissionSample& emission, BinSink& sink,
                   TraceCounters* counters) const;

  // One reflection at `hit` (hit.patch is a scene patch id): back-face
  // absorption, the local frame, the BRDF draw, the record and the surface
  // nudge that starts `path`'s next ray. Returns false when the photon is
  // absorbed.
  bool scatter(const SceneHit& hit, PhotonPath& path, Lcg48& rng, BinSink& sink,
               TraceCounters* counters) const;

 private:
  const Scene* scene_;
  TraceLimits limits_;
  double epsilon_;
};

}  // namespace photon
