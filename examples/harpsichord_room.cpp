// The Harpsichord Practice Room (Fig 4.7): collimated quarter-degree sunlight
// through skylights plus diffuse sky light, a mirrored music shelf, and the
// paper's signature lighting effect — shadows that sharpen as the occluder
// approaches the receiver (the harpsichord's shadow is crisp, the skylight
// frames' outline is soft).
//
// Usage: harpsichord_room [photons]     (default 400000)
#include <cstdio>
#include <cstdlib>

#include "geom/scenes.hpp"
#include "sim/simulator.hpp"
#include "view/viewer.hpp"

int main(int argc, char** argv) {
  using namespace photon;

  const std::uint64_t photons = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 400000;
  const Scene scene = scenes::harpsichord_room();
  std::printf("scene: %zu defining polygons, %zu luminaires (8 collimated sun tiles)\n",
              scene.patch_count(), scene.luminaires().size());

  RunConfig config;
  config.photons = photons;
  config.policy.max_leaf_count = 128;
  config.policy.count_growth = 1.25;
  const RunResult result = run_serial(scene, config);
  std::printf("simulated %llu photons (%.0f/s), %.2f bounces/photon, %.2f MB forest\n",
              static_cast<unsigned long long>(result.trace.total_photons),
              result.trace.final_rate(), result.counters.bounces_per_photon(),
              result.forest.memory_bytes() / 1048576.0);

  const Camera main_view({7.2, 2.2, 0.8}, {3.5, 0.9, 4.0}, {0, 1, 0}, 62.0, 360, 270);
  render(scene, result.forest, main_view).write_ppm("harpsichord_room.ppm");
  std::printf("rendered: harpsichord_room.ppm\n");

  const Camera shelf_view({2.6, 1.6, 1.8}, {0.1, 1.6, 1.8}, {0, 1, 0}, 50.0, 320, 240);
  render(scene, result.forest, shelf_view).write_ppm("harpsichord_shelf.ppm");
  std::printf("rendered: harpsichord_shelf.ppm (mirrored music shelf)\n");

  // Quantify the shadow effect the paper describes: the second skylight sits
  // directly above the harpsichord, so its footprint on the floor is split
  // into the instrument's crisp shadow and thin sunlit slivers beside it.
  std::uint64_t shadow_tally = 0, lit_tally = 0;
  double shadow_area = 0.0, lit_area = 0.0;
  // Floor tiles are patches 5..13 (after the 5 shell walls); integrate their
  // leaf densities over two world regions inside the skylight footprint
  // (x 4.6..5.8, z 3.5..4.7): under the body (z 3.75..4.35) vs the sliver
  // past the body's far edge (z 4.45..4.65).
  for (int patch = 5; patch <= 13; ++patch) {
    const Patch& p = scene.patch(patch);
    const BinTree& tree = result.forest.tree(patch, true);
    const std::vector<BinRegion> regions = tree.regions();
    for (std::size_t i = 0; i < tree.node_count(); ++i) {
      const BinNode& n = tree.node(static_cast<int>(i));
      if (!n.is_leaf()) continue;
      const BinRegion& r = regions[i];
      const Vec3 center = p.point_at((r.lo[0] + r.hi[0]) / 2.0, (r.lo[1] + r.hi[1]) / 2.0);
      if (center.x < 4.7 || center.x > 5.7) continue;
      const double cell = r.extent(0) * r.extent(1) * p.area();
      if (center.z > 3.8 && center.z < 4.3) {
        shadow_tally += n.total_tally();
        shadow_area += cell;
      } else if (center.z > 4.45 && center.z < 4.65) {
        lit_tally += n.total_tally();
        lit_area += cell;
      }
    }
  }
  if (shadow_area > 0.0 && lit_area > 0.0) {
    const double dark = static_cast<double>(shadow_tally) / shadow_area;
    const double lit = static_cast<double>(lit_tally) / lit_area;
    std::printf("floor photon density under the skylight: %.0f in the harpsichord's shadow vs"
                " %.0f in the sun sliver (%.1fx)\n", dark, lit, dark > 0 ? lit / dark : 0.0);
    std::printf("the crisp dark region under the body is the paper's near-occluder shadow\n");
  }
  return 0;
}
