#include "geom/scene.hpp"

#include <cmath>
#include <sstream>

#include "core/error.hpp"

namespace photon {

Scene::Scene() : accel_(make_accel(AccelKind::kOctree)) {}

void Scene::set_accel(AccelKind kind) {
  if (kind == accel_kind_ && accel_ != nullptr) return;
  accel_kind_ = kind;
  accel_ = make_accel(kind);
}

void Scene::add_luminaire(int patch, const Rgb& power, double angular_scale) {
  Luminaire lum;
  lum.patch = patch;
  lum.angular_scale = angular_scale;
  if (power.is_black()) {
    const Patch& p = patches_[static_cast<std::size_t>(patch)];
    lum.power = material_of(p).emission * p.area();
  } else {
    lum.power = power;
  }
  luminaires_.push_back(lum);
}

void Scene::build(const AccelBuildParams& params) {
  // A rebuild (the admission ladder's coarser leaves) goes into a fresh
  // structure, so the previous index's storage is released, not kept as
  // capacity the footprint would still count.
  if (accel_->built()) accel_ = make_accel(accel_kind_);
  accel_->build(patches_, params);
}

std::optional<SceneHit> Scene::intersect_brute(const Ray& ray, double tmax) const {
  SceneHit best;
  best.dist = tmax;
  PatchHit hit;
  for (std::size_t i = 0; i < patches_.size(); ++i) {
    if (patches_[i].intersect(ray, best.dist, hit)) {
      best.patch = static_cast<int>(i);
      best.dist = hit.dist;
      best.s = hit.s;
      best.t = hit.t;
      best.front = hit.front;
    }
  }
  if (best.patch < 0) return std::nullopt;
  return best;
}

Rgb Scene::total_power() const {
  Rgb total;
  for (const Luminaire& l : luminaires_) total += l.power;
  return total;
}

Aabb Scene::bounds() const {
  Aabb b;
  for (const Patch& p : patches_) b.expand(p.bounds());
  return b;
}

namespace {

bool finite_vec(const Vec3& v) {
  return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

[[noreturn]] void reject_patch(int index, const std::string& why) {
  std::ostringstream what;
  what << "scene rejected: patch " << index << " " << why;
  throw SceneError(what.str(), index);
}

}  // namespace

void validate_scene(const Scene& scene) {
  if (scene.patch_count() == 0) throw SceneError("scene rejected: no patches");

  const int materials = static_cast<int>(scene.materials().size());
  for (std::size_t i = 0; i < scene.patch_count(); ++i) {
    const int index = static_cast<int>(i);
    const Patch& p = scene.patch(index);
    if (!finite_vec(p.origin()) || !finite_vec(p.edge_s()) || !finite_vec(p.edge_t())) {
      reject_patch(index, "has a non-finite vertex");
    }
    // area == |edge_s x edge_t|: zero means collinear/zero edges — the normal
    // is undefined and the bilinear inversion divides by the Gram determinant.
    if (!(p.area() > 0.0) || !std::isfinite(p.area())) {
      reject_patch(index, "is degenerate (zero or non-finite area)");
    }
    if (!finite_vec(p.normal()) || p.normal().length_squared() == 0.0) {
      reject_patch(index, "has a zero or non-finite normal");
    }
    if (p.material_id() < 0 || p.material_id() >= materials) {
      std::ostringstream what;
      what << "references material " << p.material_id() << " of " << materials;
      reject_patch(index, what.str());
    }
  }

  for (std::size_t i = 0; i < scene.luminaires().size(); ++i) {
    const Luminaire& lum = scene.luminaires()[i];
    std::ostringstream what;
    if (lum.patch < 0 || static_cast<std::size_t>(lum.patch) >= scene.patch_count()) {
      what << "scene rejected: luminaire " << i << " references patch " << lum.patch
           << " of " << scene.patch_count();
      throw SceneError(what.str(), lum.patch);
    }
    for (int c = 0; c < 3; ++c) {
      const double power = lum.power[c];
      if (!std::isfinite(power) || power < 0.0) {
        what << "scene rejected: luminaire " << i << " (patch " << lum.patch
             << ") has invalid power " << power << " in channel " << c;
        throw SceneError(what.str(), lum.patch);
      }
    }
    if (!(lum.angular_scale > 0.0) || lum.angular_scale > 1.0 ||
        !std::isfinite(lum.angular_scale)) {
      what << "scene rejected: luminaire " << i << " (patch " << lum.patch
           << ") has angular_scale " << lum.angular_scale << " outside (0, 1]";
      throw SceneError(what.str(), lum.patch);
    }
  }

  const Rgb total = scene.total_power();
  if (scene.luminaires().empty() || total.is_black()) {
    throw SceneError("scene rejected: total emitter power is zero (nothing to emit)");
  }
}

}  // namespace photon
