// Plain-text scene format, so scenes can be saved, versioned and exchanged.
//
//   photon-scene 1
//   name <string>
//   material <dr> <dg> <db> <sr> <sg> <sb> <rough> <er> <eg> <eb> <two_sided>
//   patch <ox> <oy> <oz> <sx> <sy> <sz> <tx> <ty> <tz> <material_index>
//   luminaire <patch_index> <pr> <pg> <pb> <angular_scale>
#pragma once

#include <iosfwd>
#include <string>

#include "geom/scene.hpp"

namespace photon {

void save_scene(const Scene& scene, std::ostream& out);
bool save_scene(const Scene& scene, const std::string& path);

// Parses a scene; returns false (and leaves `scene` unspecified) on malformed
// input. The index is NOT built; call scene.build().
bool load_scene(std::istream& in, Scene& scene);
bool load_scene(const std::string& path, Scene& scene);

}  // namespace photon
