// The light-transport loop of Fig 4.1: GeneratePhoton, DetermineIntersection,
// DetermineBin, Reflect — repeated until the photon is probabilistically
// absorbed (or escapes an open scene).
//
// Where the tallies *go* is abstracted behind BinSink: the serial simulator
// records straight into a BinForest, the shared-memory version into
// chunk-private buffers drained per tree after each window, and the
// distributed version enqueues records owned by other ranks for the batched
// all-to-all exchange (Fig 5.3).
#pragma once

#include <cstdint>

#include "core/rng.hpp"
#include "geom/scene.hpp"
#include "hist/binforest.hpp"
#include "material/brdf.hpp"
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

class Tracer {
 public:
  explicit Tracer(const Scene& scene, TraceLimits limits = {});

  // Traces one emitted photon to absorption. Emission is tallied on the
  // luminaire patch (UpdateBinCount directly after GeneratePhoton in
  // Fig 4.1), then every reflection is tallied on the reflecting patch.
  void trace(const EmissionSample& emission, Lcg48& rng, BinSink& sink,
             TraceCounters* counters = nullptr) const;

  const Scene& scene() const { return *scene_; }

  // The scene-scaled self-intersection nudge this tracer applies after every
  // bounce. Exposed so other trace loops (the spatial decomposition's
  // segment tracer) can reproduce photon paths exactly.
  double epsilon() const { return epsilon_; }

 private:
  const Scene* scene_;
  TraceLimits limits_;
  double epsilon_;
};

}  // namespace photon
