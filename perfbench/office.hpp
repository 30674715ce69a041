// The interior-bake scene: a seeded open-plan office of about 90k patches.
//
// No bundled scene is big enough for the acceleration structure or the bin
// forest to outgrow a core's L2 (the lab has ~2000 patches), so the
// benchmark generates one: a closed room whose floor, ceiling and walls are
// tessellated into 0.175 m tiles, rows of workstations (desk, monitor and
// chair boxes, a screen and a fabric partition), and a grid of ceiling-panel
// luminaires. The seed jitters the room's proportions, desk size and pitch,
// empty seats and luminaire spacing while holding the floor area, so every
// seed gives a different layout with nearly the same patch count.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/scene.hpp"
#include "view/camera.hpp"

namespace perfbench {

struct Office {
  photon::Scene scene;  // not built: the caller validates and builds it
  double width = 0.0;   // x extent (m)
  double depth = 0.0;   // z extent (m)
};

// Same seed, identical patch list. The room is closed: no photon escapes.
Office generate_office(std::uint64_t seed);

// A seeded walkthrough: `views` cameras at standing eye height, anywhere in
// the room at least a metre from the walls, looking slightly down.
std::vector<photon::Camera> walkthrough(const Office& office, std::uint64_t seed, int views,
                                        int width, int height);

}  // namespace perfbench
