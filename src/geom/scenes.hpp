// Procedural builders for the paper's three test geometries (Table 5.1) and
// small analytic scenes used by the test suite.
//
// The original 1997 geometry files are lost; these synthetic equivalents
// match the paper's defining-polygon counts and surface-type mix (see
// DESIGN.md, "Substitutions"). All scenes are returned fully built (octree
// ready) with luminaires registered.
#pragma once

#include "geom/scene.hpp"

namespace photon::scenes {

// ~30 defining polygons: closed white room with red/green side walls, one
// diffuse ceiling luminaire with fixture trim, two blocks, and a floating
// two-sided mirror in the center of the box (Fig 4.8).
Scene cornell_box();

// ~100 defining polygons: room with two skylights (collimated quarter-degree
// "sun" + diffuse sky per opening), a harpsichord with legs/keyboard/lid, a
// bench, and a music shelf with a mirrored back (Fig 4.7).
Scene harpsichord_room();

// ~2000 defining polygons: large laboratory with a grid of ceiling light
// panels and rows of workstations (desk, monitor with a glossy screen,
// keyboard, chair), plus wall shelving (Fig 5.1).
Scene computer_lab();

// Returns the scene with the given name ("cornell", "harpsichord", "lab"),
// for command-line tools. Throws std::invalid_argument on unknown names.
Scene by_name(const std::string& name);

// --- analytic scenes for validation ---

// Closed cube; every wall uses the same material with `albedo` diffuse
// reflectance and is a diffuse luminaire with unit power. In radiative
// equilibrium the radiance is identical everywhere (furnace test).
Scene furnace_box(double albedo);

// A single white floor patch at y=0 spanning [0,size]^2 in x/z and one small
// diffuse luminaire centered `height` above it, facing down.
Scene floor_and_light(double size = 4.0, double height = 2.0);

// floor_and_light plus a square occluder of half-width `occluder_half`
// parallel to the floor at `occluder_height`, and a collimated luminaire
// (angular_scale) — used to validate penumbra behaviour (Fig 4.4).
Scene occluder_scene(double occluder_height, double occluder_half = 0.5,
                     double angular_scale = 0.05);

// Closed width x height x depth room (y up) whose six walls are tessellated
// into square tiles of side `tile` facing inward, lit by a small luminaire
// hung just below the ceiling's centre. The defaults make 2880 tiles. Tiles
// meet edge to edge and whole walls are coplanar, the shape of the large
// architectural models an acceleration structure must not duplicate.
Scene tessellated_room(double width = 8.0, double height = 3.0, double depth = 6.0,
                       double tile = 0.25);

// Two parallel unit patches facing each other at distance `gap`; the lower
// one emits. Direct-transfer test with a known analytic form factor.
Scene parallel_plates(double gap);

}  // namespace photon::scenes
