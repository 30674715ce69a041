#include "geom/accel.hpp"

#include <algorithm>
#include <thread>

#include "core/error.hpp"
#include "geom/grid.hpp"
#include "geom/octree.hpp"

namespace photon {

int build_width(const AccelBuildParams& params, std::size_t items) {
  if (params.workers > 0) return params.workers;
  if (items < kParallelBuildMinItems) return 1;
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

AccelKind default_accel_kind(std::size_t patches) {
  return patches >= kGridMinPatches ? AccelKind::kGrid : AccelKind::kOctree;
}

std::vector<Aabb> patch_bounds(std::span<const Patch> patches, int width) {
  constexpr std::size_t kChunk = 4096;
  std::vector<Aabb> bounds(patches.size());
  run_build_tasks(chunk_count(patches.size(), kChunk), width, [&](std::size_t c) {
    const std::size_t end = std::min(patches.size(), (c + 1) * kChunk);
    for (std::size_t i = c * kChunk; i < end; ++i) bounds[i] = patches[i].bounds();
  });
  return bounds;
}

std::unique_ptr<AccelStructure> make_accel(AccelKind kind) {
  switch (kind) {
    case AccelKind::kGrid:
      return std::make_unique<HashGrid>();
    case AccelKind::kOctree:
      break;
  }
  return std::make_unique<Octree>();
}

const char* accel_kind_name(AccelKind kind) {
  switch (kind) {
    case AccelKind::kGrid:
      return "grid";
    case AccelKind::kOctree:
      break;
  }
  return "octree";
}

AccelKind parse_accel_kind(const std::string& name) {
  std::string supported;
  for (const AccelKind kind : accel_kinds()) {
    if (name == accel_kind_name(kind)) return kind;
    if (!supported.empty()) supported += " | ";
    supported += accel_kind_name(kind);
  }
  throw ConfigError("unknown accel '" + name + "' (supported: " + supported + ")");
}

std::vector<AccelKind> accel_kinds() { return {AccelKind::kOctree, AccelKind::kGrid}; }

}  // namespace photon
