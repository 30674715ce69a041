#include "geom/scenes.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace photon::scenes {
namespace {

// Adds one parallelogram from corners (p00, p10, p01).
int quad(Scene& s, const Vec3& p00, const Vec3& p10, const Vec3& p01, int mat) {
  return s.add_patch(Patch::from_corners(p00, p10, p01, mat));
}

// Face order used by the box helpers: 0:-y 1:+y 2:-x 3:+x 4:-z 5:+z.
enum : unsigned {
  kSkipBottom = 1u << 0,
  kSkipTop = 1u << 1,
};

// Axis-aligned box [lo, hi] with per-face materials. Face normals point away
// from the box; `inward` flips them (room shells).
void box_faces(Scene& s, const Vec3& lo, const Vec3& hi, const std::array<int, 6>& mats,
               bool inward = false, unsigned skip_mask = 0) {
  const Vec3 d = hi - lo;
  struct Face {
    Vec3 p00, e1, e2;
  };
  // Outward-facing: cross(e1, e2) points away from the box interior.
  const Face faces[6] = {
      {lo, {d.x, 0, 0}, {0, 0, d.z}},                    // -y
      {{lo.x, hi.y, lo.z}, {0, 0, d.z}, {d.x, 0, 0}},    // +y
      {lo, {0, 0, d.z}, {0, d.y, 0}},                    // -x
      {{hi.x, lo.y, lo.z}, {0, d.y, 0}, {0, 0, d.z}},    // +x
      {lo, {0, d.y, 0}, {d.x, 0, 0}},                    // -z
      {{lo.x, lo.y, hi.z}, {d.x, 0, 0}, {0, d.y, 0}},    // +z
  };
  for (int f = 0; f < 6; ++f) {
    if (skip_mask & (1u << f)) continue;
    const Face& face = faces[f];
    if (inward) {
      s.add_patch(Patch(face.p00, face.e2, face.e1, mats[static_cast<std::size_t>(f)]));
    } else {
      s.add_patch(Patch(face.p00, face.e1, face.e2, mats[static_cast<std::size_t>(f)]));
    }
  }
}

void box(Scene& s, const Vec3& lo, const Vec3& hi, int mat, bool inward = false,
         unsigned skip_mask = 0) {
  box_faces(s, lo, hi, {mat, mat, mat, mat, mat, mat}, inward, skip_mask);
}

Material two_sided(Material m) {
  m.two_sided = true;
  return m;
}

// Tessellates the parallelogram origin + a*ea + b*eb, (a, b) in [0,1]^2, into
// na x nb tiles facing cross(ea, eb). Corners shared by neighbouring tiles
// come from the same i/n fractions, so the tiles meet edge to edge.
void tessellate(Scene& s, const Vec3& origin, const Vec3& ea, const Vec3& eb, int na, int nb,
                int mat) {
  for (int i = 0; i < na; ++i) {
    const double a0 = static_cast<double>(i) / na;
    const double a1 = static_cast<double>(i + 1) / na;
    for (int j = 0; j < nb; ++j) {
      const double b0 = static_cast<double>(j) / nb;
      const double b1 = static_cast<double>(j + 1) / nb;
      const Vec3 p = origin + ea * a0 + eb * b0;
      s.add_patch(Patch(p, origin + ea * a1 + eb * b0 - p, origin + ea * a0 + eb * b1 - p, mat));
    }
  }
}

}  // namespace

Scene cornell_box() {
  Scene s;
  s.set_name("cornell");
  const int white = s.add_material(Material::lambertian({0.73, 0.73, 0.73}));
  const int red = s.add_material(Material::lambertian({0.63, 0.06, 0.05}));
  const int green = s.add_material(Material::lambertian({0.12, 0.47, 0.10}));
  const int gray = s.add_material(two_sided(Material::lambertian({0.35, 0.35, 0.35})));
  const int mirror_mat = s.add_material(two_sided(Material::mirror({0.92, 0.92, 0.92})));
  const int light_mat = s.add_material(Material::emitter({30.0, 28.0, 24.0}));

  const double W = 5.5;  // room dimension

  // Room shell: floor/ceiling white, left (x=0) red, right (x=W) green.
  box_faces(s, {0, 0, 0}, {W, W, W}, {white, white, red, green, white, white},
            /*inward=*/true);

  // Ceiling luminaire, slightly below the ceiling, facing down.
  const double ly = W - 0.01;
  const int light =
      quad(s, {1.8, ly, 1.8}, {3.7, ly, 1.8}, {1.8, ly, 3.7}, light_mat);  // -y normal
  s.add_luminaire(light);

  // Light fixture trim: four gray strips around the luminaire.
  const double fy = W - 0.02;
  quad(s, {1.7, fy, 1.7}, {3.8, fy, 1.7}, {1.7, fy, 1.8}, gray);
  quad(s, {1.7, fy, 3.7}, {3.8, fy, 3.7}, {1.7, fy, 3.8}, gray);
  quad(s, {1.7, fy, 1.8}, {1.8, fy, 1.8}, {1.7, fy, 3.7}, gray);
  quad(s, {3.7, fy, 1.8}, {3.8, fy, 1.8}, {3.7, fy, 3.7}, gray);

  // Tall block (left rear) and short block (right front); bottoms sit on the
  // floor and are skipped.
  box(s, {1.0, 0.0, 1.0}, {2.5, 3.3, 2.5}, white, false, kSkipBottom);
  box(s, {3.0, 0.0, 2.7}, {4.5, 1.65, 4.2}, white, false, kSkipBottom);

  // Floating two-sided mirror in the center of the box (Fig 4.8).
  quad(s, {1.75, 1.4, 2.6}, {3.75, 1.4, 2.6}, {1.75, 2.9, 2.6}, mirror_mat);

  // Baseboards: four thin strips where walls meet the floor (two-sided gray).
  quad(s, {0.01, 0.0, 0}, {0.01, 0.12, 0}, {0.01, 0.0, W}, gray);
  quad(s, {W - 0.01, 0.0, 0}, {W - 0.01, 0.0, W}, {W - 0.01, 0.12, 0}, gray);
  quad(s, {0, 0.0, 0.01}, {W, 0.0, 0.01}, {0, 0.12, 0.01}, gray);
  quad(s, {0, 0.0, W - 0.01}, {0, 0.12, W - 0.01}, {W, 0.0, W - 0.01}, gray);

  // Two picture frames on the back wall (+z normals).
  quad(s, {0.8, 2.6, 0.02}, {1.9, 2.6, 0.02}, {0.8, 3.6, 0.02}, gray);
  quad(s, {3.6, 2.6, 0.02}, {4.7, 2.6, 0.02}, {3.6, 3.6, 0.02}, gray);

  // Door outline on the front wall and a rug on the floor.
  quad(s, {2.2, 0.0, W - 0.02}, {2.2, 2.2, W - 0.02}, {3.3, 0.0, W - 0.02}, gray);
  quad(s, {1.2, 0.001, 3.0}, {4.3, 0.001, 3.0}, {1.2, 0.001, 4.6}, gray);

  s.build();
  return s;
}

Scene harpsichord_room() {
  Scene s;
  s.set_name("harpsichord");
  const int wall = s.add_material(Material::lambertian({0.65, 0.62, 0.55}));
  const int floor_mat =
      s.add_material(Material::glossy({0.45, 0.32, 0.20}, {0.04, 0.04, 0.04}, 0.3));
  const int wood =
      s.add_material(two_sided(Material::glossy({0.42, 0.26, 0.14}, {0.03, 0.03, 0.03}, 0.25)));
  const int dark_wood = s.add_material(two_sided(Material::lambertian({0.25, 0.16, 0.09})));
  const int keys = s.add_material(two_sided(Material::lambertian({0.85, 0.83, 0.78})));
  const int fabric = s.add_material(two_sided(Material::lambertian({0.50, 0.12, 0.12})));
  const int mirror_mat = s.add_material(two_sided(Material::mirror({0.90, 0.90, 0.90})));
  const int sun_mat = s.add_material(Material::emitter({90.0, 85.0, 70.0}));
  const int sky_mat = s.add_material(Material::emitter({6.0, 8.0, 12.0}));

  const double X = 8.0, Y = 3.5, Z = 6.0;

  // Room shell (inward normals), floor tiled 3x3. Tiling the heavily lit
  // surfaces matters for the parallel experiments: bin trees are the unit of
  // ownership, and one monolithic sunlit floor would make load balancing
  // impossible at any granularity (Table 5.2).
  box_faces(s, {0, 0, 0}, {X, Y, Z}, {floor_mat, wall, wall, wall, wall, wall},
            /*inward=*/true, kSkipBottom);
  for (int ix = 0; ix < 3; ++ix) {
    for (int iz = 0; iz < 3; ++iz) {
      const double x0 = X / 3.0 * ix, z0 = Z / 3.0 * iz;
      quad(s, {x0, 0, z0}, {x0, 0, z0 + Z / 3.0}, {x0 + X / 3.0, 0, z0}, floor_mat);
    }
  }

  // Two skylights: each opening is a 2x2 grid of collimated "sun" patches
  // (quarter-degree cone per chapter 4) over a 2x2 grid of diffuse "sky"
  // patches, all facing down. The first lights the rug; the second sits
  // directly above the harpsichord so the instrument casts the crisp shadow
  // the paper contrasts with the soft skylight pools (Fig 4.7).
  // Sun and sky stripes share the opening plane side by side (stacking them
  // would absorb one component on the other's back face).
  const double sy = Y - 0.01;
  const double openings[2][2] = {{1.5, 1.5}, {4.6, 3.5}};
  for (const auto& opening : openings) {
    for (int tile = 0; tile < 4; ++tile) {
      const double tx = opening[0] + 0.6 * (tile % 2);
      const double tz = opening[1] + 0.6 * (tile / 2);
      const int sun = quad(s, {tx, sy, tz}, {tx + 0.3, sy, tz}, {tx, sy, tz + 0.6}, sun_mat);
      s.add_luminaire(sun, {}, /*angular_scale=*/0.005);
      const int sky =
          quad(s, {tx + 0.3, sy, tz}, {tx + 0.6, sy, tz}, {tx + 0.3, sy, tz + 0.6}, sky_mat);
      s.add_luminaire(sky);
    }
  }

  // Harpsichord: three case sections approximating the wing shape at keyboard
  // height, plus soundboard, raised lid, four legs, keyboard and music stand.
  const double hy0 = 0.75, hy1 = 1.05;
  box(s, {2.0, hy0, 3.6}, {4.6, hy1, 4.5}, wood);
  box(s, {4.6, hy0, 3.7}, {5.8, hy1, 4.4}, wood);
  box(s, {5.8, hy0, 3.85}, {6.8, hy1, 4.25}, wood);
  quad(s, {2.0, hy1 + 0.002, 3.6}, {4.6, hy1 + 0.002, 3.6}, {2.0, hy1 + 0.002, 4.5}, dark_wood);
  quad(s, {2.0, hy1, 3.6}, {6.8, hy1, 3.6}, {2.0, hy1 + 1.1, 3.2}, wood);  // lid
  for (int leg = 0; leg < 4; ++leg) {
    const double lx = (leg % 2 == 0) ? 2.1 : 6.5;
    const double lz = (leg / 2 == 0) ? 3.65 : 4.35;
    box(s, {lx, 0.0, lz}, {lx + 0.1, hy0, lz + 0.1}, dark_wood, false, kSkipBottom | kSkipTop);
  }
  box(s, {2.2, hy0 - 0.12, 3.35}, {4.4, hy0, 3.62}, keys);  // keyboard tray
  quad(s, {3.0, hy1 + 0.02, 3.8}, {4.0, hy1 + 0.02, 3.8}, {3.0, hy1 + 0.5, 3.9}, dark_wood);
  quad(s, {3.0, hy1 + 0.02, 3.9}, {4.0, hy1 + 0.02, 3.9}, {3.0, hy1 + 0.5, 4.0}, keys);

  // Bench with fabric seat and four (thin-quad) legs.
  box(s, {3.0, 0.45, 2.3}, {4.0, 0.55, 2.9}, fabric);
  for (int leg = 0; leg < 4; ++leg) {
    const double lx = (leg % 2 == 0) ? 3.05 : 3.87;
    const double lz = (leg / 2 == 0) ? 2.35 : 2.82;
    quad(s, {lx, 0.0, lz}, {lx + 0.08, 0.0, lz}, {lx, 0.45, lz}, dark_wood);
  }

  // Music shelf against the x=0 wall with a mirrored back (chapter 4: "the
  // back of the bookcase is a mirror").
  box(s, {0.05, 1.0, 1.0}, {0.65, 2.2, 2.6}, wood);
  quad(s, {0.12, 1.05, 1.05}, {0.12, 1.05, 2.55}, {0.12, 2.15, 1.05}, mirror_mat);
  quad(s, {0.05, 1.6, 1.0}, {0.65, 1.6, 1.0}, {0.05, 1.6, 2.6}, wood);  // middle shelf

  // Wall paneling strips on the long walls, a door, and a tiled rug (the rug
  // sits under the skylights and receives much of the sunlight).
  for (int i = 0; i < 2; ++i) {
    const double x0 = 0.6 + 3.2 * i;
    quad(s, {x0, 0.15, 0.015}, {x0 + 2.4, 0.15, 0.015}, {x0, 1.1, 0.015}, dark_wood);
    quad(s, {x0, 0.15, Z - 0.015}, {x0, 1.1, Z - 0.015}, {x0 + 2.4, 0.15, Z - 0.015}, dark_wood);
  }
  quad(s, {X - 0.015, 0.0, 2.4}, {X - 0.015, 2.1, 2.4}, {X - 0.015, 0.0, 3.4}, dark_wood);
  for (int rx = 0; rx < 2; ++rx) {
    for (int rz = 0; rz < 2; ++rz) {
      const double x0 = 1.6 + 1.9 * rx, z0 = 1.2 + 1.0 * rz;
      quad(s, {x0, 0.001, z0}, {x0, 0.001, z0 + 1.0}, {x0 + 1.9, 0.001, z0}, fabric);
    }
  }

  s.build();
  return s;
}

Scene computer_lab() {
  Scene s;
  s.set_name("lab");
  const int wall = s.add_material(Material::lambertian({0.70, 0.70, 0.72}));
  const int floor_mat =
      s.add_material(Material::glossy({0.30, 0.30, 0.32}, {0.05, 0.05, 0.05}, 0.4));
  const int desk = s.add_material(two_sided(Material::lambertian({0.55, 0.45, 0.35})));
  const int metal =
      s.add_material(two_sided(Material::glossy({0.35, 0.35, 0.38}, {0.20, 0.20, 0.20}, 0.35)));
  const int plastic = s.add_material(two_sided(Material::lambertian({0.75, 0.73, 0.68})));
  const int screen =
      s.add_material(two_sided(Material::glossy({0.04, 0.05, 0.06}, {0.25, 0.25, 0.25}, 0.05)));
  const int chair_mat = s.add_material(two_sided(Material::lambertian({0.15, 0.18, 0.45})));
  const int shelf = s.add_material(two_sided(Material::lambertian({0.50, 0.50, 0.52})));
  const int light_mat = s.add_material(Material::emitter({14.0, 14.0, 13.0}));

  const double X = 24.0, Y = 3.2, Z = 18.0;

  // Room shell.
  box_faces(s, {0, 0, 0}, {X, Y, Z}, {floor_mat, wall, wall, wall, wall, wall},
            /*inward=*/true);

  // Ceiling light panels: 4 x 6 grid of diffuse luminaires.
  const double ly = Y - 0.01;
  for (int ix = 0; ix < 4; ++ix) {
    for (int iz = 0; iz < 6; ++iz) {
      const double x0 = 2.0 + 5.5 * ix;
      const double z0 = 1.2 + 2.8 * iz;
      const int panel = quad(s, {x0, ly, z0}, {x0 + 1.8, ly, z0}, {x0, ly, z0 + 0.9}, light_mat);
      s.add_luminaire(panel);
    }
  }

  // Workstations: 10 x 10 grid, 19 patches per station (desk 4, monitor 6,
  // keyboard 1, chair 6, legs included).
  const int cols = 10, rows = 10;
  for (int ix = 0; ix < cols; ++ix) {
    for (int iz = 0; iz < rows; ++iz) {
      const double x0 = 1.0 + 2.2 * ix;
      const double z0 = 1.0 + 1.6 * iz;
      // Desk: top + two side panels + back panel.
      quad(s, {x0, 0.75, z0}, {x0 + 1.4, 0.75, z0}, {x0, 0.75, z0 + 0.7}, desk);
      quad(s, {x0 + 0.02, 0.0, z0}, {x0 + 0.02, 0.0, z0 + 0.7}, {x0 + 0.02, 0.75, z0}, metal);
      quad(s, {x0 + 1.38, 0.0, z0}, {x0 + 1.38, 0.75, z0}, {x0 + 1.38, 0.0, z0 + 0.7}, metal);
      quad(s, {x0, 0.1, z0 + 0.68}, {x0 + 1.4, 0.1, z0 + 0.68}, {x0, 0.75, z0 + 0.68}, metal);
      // Monitor: 5-face box (no bottom) + glossy screen facing -z.
      box(s, {x0 + 0.35, 0.78, z0 + 0.3}, {x0 + 0.95, 1.25, z0 + 0.62}, plastic, false,
          kSkipBottom);
      quad(s, {x0 + 0.40, 0.83, z0 + 0.295}, {x0 + 0.90, 0.83, z0 + 0.295},
           {x0 + 0.40, 1.20, z0 + 0.295}, screen);
      // Keyboard, mouse pad and paper tray.
      quad(s, {x0 + 0.35, 0.76, z0 + 0.02}, {x0 + 0.95, 0.76, z0 + 0.02},
           {x0 + 0.35, 0.76, z0 + 0.22}, plastic);
      quad(s, {x0 + 1.0, 0.76, z0 + 0.05}, {x0 + 1.25, 0.76, z0 + 0.05},
           {x0 + 1.0, 0.76, z0 + 0.25}, chair_mat);
      quad(s, {x0 + 0.05, 0.76, z0 + 0.35}, {x0 + 0.3, 0.76, z0 + 0.35},
           {x0 + 0.05, 0.76, z0 + 0.6}, plastic);
      // Chair: seat + back + 4 leg quads.
      quad(s, {x0 + 0.45, 0.45, z0 - 0.55}, {x0 + 0.95, 0.45, z0 - 0.55},
           {x0 + 0.45, 0.45, z0 - 0.15}, chair_mat);
      quad(s, {x0 + 0.45, 0.45, z0 - 0.57}, {x0 + 0.95, 0.45, z0 - 0.57},
           {x0 + 0.45, 0.95, z0 - 0.57}, chair_mat);
      for (int leg = 0; leg < 4; ++leg) {
        const double lx = x0 + ((leg % 2 == 0) ? 0.47 : 0.89);
        const double lz = z0 + ((leg / 2 == 0) ? -0.53 : -0.19);
        quad(s, {lx, 0.0, lz}, {lx + 0.04, 0.0, lz}, {lx, 0.45, lz}, metal);
      }
    }
  }

  // Wall shelving: 14 open-top shelf units of 5 patches each on the far wall.
  for (int i = 0; i < 14; ++i) {
    const double x0 = 0.8 + 1.6 * i;
    box(s, {x0, 1.6, Z - 0.35}, {x0 + 1.2, 2.4, Z - 0.05}, shelf, false, kSkipTop);
  }

  s.build();
  return s;
}

Scene by_name(const std::string& name) {
  if (name == "cornell") return cornell_box();
  if (name == "harpsichord") return harpsichord_room();
  if (name == "lab") return computer_lab();
  throw std::invalid_argument("unknown scene: " + name);
}

Scene furnace_box(double albedo) {
  Scene s;
  s.set_name("furnace");
  Material m = Material::lambertian(Rgb::splat(albedo));
  m.emission = Rgb::splat(1.0);
  const int mat = s.add_material(m);
  const double W = 2.0;
  box(s, {0, 0, 0}, {W, W, W}, mat, /*inward=*/true);
  for (int i = 0; i < 6; ++i) s.add_luminaire(i);
  s.build();
  return s;
}

Scene floor_and_light(double size, double height) {
  Scene s;
  s.set_name("floor_and_light");
  const int white = s.add_material(Material::lambertian({0.7, 0.7, 0.7}));
  const int light_mat = s.add_material(Material::emitter({10.0, 10.0, 10.0}));
  quad(s, {0, 0, 0}, {0, 0, size}, {size, 0, 0}, white);  // +y normal
  const double c = size / 2.0;
  const int light =
      s.add_patch(Patch({c - 0.25, height, c - 0.25}, {0.5, 0, 0}, {0, 0, 0.5}, light_mat));
  s.add_luminaire(light);
  s.build();
  return s;
}

Scene occluder_scene(double occluder_height, double occluder_half, double angular_scale) {
  Scene s;
  s.set_name("occluder");
  const int white = s.add_material(Material::lambertian({0.7, 0.7, 0.7}));
  const int occ_mat = s.add_material(two_sided(Material::black()));
  const int light_mat = s.add_material(Material::emitter({10.0, 10.0, 10.0}));
  const double size = 8.0;
  quad(s, {-size / 2, 0, -size / 2}, {-size / 2, 0, size / 2}, {size / 2, 0, -size / 2}, white);
  const double oh = occluder_half;
  s.add_patch(Patch({-oh, occluder_height, -oh}, {2 * oh, 0, 0}, {0, 0, 2 * oh}, occ_mat));
  // Wide collimated source high above (a "sun window"), facing down. Wide
  // enough that the floor has a fully illuminated annulus around the shadow
  // even for loose collimation.
  const double lh = 6.0;
  const int light = s.add_patch(Patch({-3.0, lh, -3.0}, {6.0, 0, 0}, {0, 0, 6.0}, light_mat));
  s.add_luminaire(light, {}, angular_scale);
  s.build();
  return s;
}

Scene tessellated_room(double width, double height, double depth, double tile) {
  Scene s;
  s.set_name("tessellated_room");
  const int white = s.add_material(Material::lambertian({0.7, 0.7, 0.7}));
  const int light_mat = s.add_material(Material::emitter({10.0, 10.0, 10.0}));
  const auto tiles = [tile](double extent) {
    return std::max(1, static_cast<int>(std::lround(extent / tile)));
  };
  const int nx = tiles(width), ny = tiles(height), nz = tiles(depth);
  const Vec3 o{0, 0, 0}, w{width, 0, 0}, h{0, height, 0}, d{0, 0, depth};
  tessellate(s, o, d, w, nz, nx, white);  // floor, +y
  tessellate(s, h, w, d, nx, nz, white);  // ceiling, -y
  tessellate(s, o, h, d, ny, nz, white);  // x = 0, +x
  tessellate(s, w, d, h, nz, ny, white);  // x = width, -x
  tessellate(s, o, w, h, nx, ny, white);  // z = 0, +z
  tessellate(s, d, h, w, ny, nx, white);  // z = depth, -z
  const int light = s.add_patch(Patch({width / 2 - 0.25, height - 0.01, depth / 2 - 0.25},
                                      {0.5, 0, 0}, {0, 0, 0.5}, light_mat));
  s.add_luminaire(light);
  s.build();
  return s;
}

Scene parallel_plates(double gap) {
  Scene s;
  s.set_name("parallel_plates");
  const int absorber = s.add_material(Material::lambertian({0.0, 0.0, 0.0}));
  const int light_mat = s.add_material(Material::emitter({1.0, 1.0, 1.0}));
  // Emitter at y=0 facing up (+y); receiver at y=gap facing down (-y).
  const int light = s.add_patch(Patch({0, 0, 0}, {0, 0, 1}, {1, 0, 0}, light_mat));
  s.add_patch(Patch({0, gap, 0}, {1, 0, 0}, {0, 0, 1}, absorber));
  s.add_luminaire(light);
  s.build();
  return s;
}

}  // namespace photon::scenes
