// Scene: patches + materials + luminaires + a pluggable acceleration
// structure (geom/accel.hpp).
//
// Geometry is immutable once build() is called (the paper replicates exactly
// this structure on every rank; only the bin forest is distributed). The
// spatial index is held behind the AccelStructure seam — octree by default,
// switchable to the nested grid with set_accel() — so this header does not
// depend on any structure-specific header, and every structure answers
// queries bitwise-identically (the equivalence suite pins them against
// intersect_brute). The scene is the one owner of the structure choice:
// whatever else a run builds (dist-spatial's per-region indexes) uses
// accel_kind().
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "geom/accel.hpp"
#include "geom/patch.hpp"
#include "material/material.hpp"

namespace photon {

// A light-emitting patch. `angular_scale` limits the emission cone by scaling
// the unit circle of the hemisphere sampler (chapter 4, Fig 4.4): 1.0 is a
// diffuse luminaire, sin(theta_max) collimates to a cone of half-angle
// theta_max (0.005 ~ quarter-degree sunlight).
struct Luminaire {
  int patch = -1;
  Rgb power;                  // radiant flux per channel
  double angular_scale = 1.0; // in (0, 1]
};

class Scene {
 public:
  Scene();

  int add_material(const Material& m) {
    materials_.push_back(m);
    return static_cast<int>(materials_.size()) - 1;
  }

  // Amends the most recently added material (scene-file loading uses this
  // for trailing attribute lines such as fluorescence rows).
  void replace_last_material(const Material& m) {
    if (!materials_.empty()) materials_.back() = m;
  }

  int add_patch(const Patch& p) {
    patches_.push_back(p);
    return static_cast<int>(patches_.size()) - 1;
  }

  // Registers `patch` as a luminaire. Power defaults to emission * area of
  // the patch when `power` is black.
  void add_luminaire(int patch, const Rgb& power = {}, double angular_scale = 1.0);

  void set_name(std::string name) { name_ = std::move(name); }
  const std::string& name() const { return name_; }

  std::span<const Patch> patches() const { return patches_; }
  std::span<const Material> materials() const { return materials_; }
  std::span<const Luminaire> luminaires() const { return luminaires_; }
  const Patch& patch(int i) const { return patches_[static_cast<std::size_t>(i)]; }
  const Material& material_of(const Patch& p) const {
    return materials_[static_cast<std::size_t>(p.material_id())];
  }
  const Material& material_of(int patch) const { return material_of(patches_[static_cast<std::size_t>(patch)]); }

  std::size_t patch_count() const { return patches_.size(); }

  // Selects the acceleration structure for subsequent build() calls and for
  // every index a run builds from this scene. Switching kinds discards any
  // built index; call build() again.
  void set_accel(AccelKind kind);
  AccelKind accel_kind() const { return accel_kind_; }

  // Builds the selected acceleration structure. Must be called before
  // intersect().
  void build(const AccelBuildParams& params = {});
  bool built() const { return accel_->built(); }
  const AccelStructure& accel() const { return *accel_; }

  std::optional<SceneHit> intersect(const Ray& ray, double tmax = kNoHit) const {
    return accel_->intersect(ray, tmax);
  }

  // Allocation-free fast path: closest hit written to `best`, false on a
  // miss. The tracer's inner loop uses this instead of the optional wrapper.
  bool intersect(const Ray& ray, double tmax, SceneHit& best) const {
    return accel_->intersect(ray, tmax, best);
  }

  // Reference linear scan, for acceleration-structure equivalence tests.
  std::optional<SceneHit> intersect_brute(const Ray& ray, double tmax = kNoHit) const;

  // Total emitted flux per channel over all luminaires.
  Rgb total_power() const;

  Aabb bounds() const;

 private:
  std::string name_ = "scene";
  std::vector<Patch> patches_;
  std::vector<Material> materials_;
  std::vector<Luminaire> luminaires_;
  // Never null: constructed with an empty octree, replaced by set_accel().
  std::unique_ptr<AccelStructure> accel_;
  AccelKind accel_kind_ = AccelKind::kOctree;
};

// Rejects degenerate input with a typed SceneError (core/error.hpp) naming
// the offending patch/luminaire index: non-finite vertices, zero-area patches
// (which have a zero normal and undefined bilinear inversion — the tracer
// divides by them), out-of-range material references, luminaires with
// invalid patch indices, non-finite or negative power, angular_scale outside
// (0, 1], and a scene whose total power is zero (nothing to emit). Called by
// the CLI after load, before any build; library callers may skip it and keep
// the historical garbage-in behavior.
void validate_scene(const Scene& scene);

}  // namespace photon
