#include "office.hpp"

#include <cmath>

#include "core/rng.hpp"

namespace perfbench {

using photon::Lcg48;
using photon::Material;
using photon::Patch;
using photon::Scene;
using photon::Vec3;

namespace {

constexpr double kTile = 0.175;         // shell tessellation (m)
constexpr double kFloorArea = 1150.0;   // held fixed so patch counts agree
constexpr double kHeight = 3.0;
constexpr double kPi = 3.14159265358979323846;

// Decorrelates nearby seeds before they reach the 48-bit LCG (splitmix64).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double uniform(Lcg48& rng, double lo, double hi) { return lo + (hi - lo) * rng.uniform(); }

Material two_sided(Material m) {
  m.two_sided = true;
  return m;
}

// Tessellates the parallelogram origin + a*ea + b*eb, (a, b) in [0,1]^2, into
// na x nb tiles. Tile corners come from the same i/n fractions on both sides
// of every shared edge, so neighbouring tiles meet without gaps.
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

int tiles(double extent) { return static_cast<int>(std::lround(extent / kTile)); }

// Axis-aligned box [lo, hi] with outward normals and no bottom face (every
// box stands on the floor or a desk top, which closes it).
void open_box(Scene& s, const Vec3& lo, const Vec3& hi, int mat) {
  const Vec3 d = hi - lo;
  s.add_patch(Patch({lo.x, hi.y, lo.z}, {0, 0, d.z}, {d.x, 0, 0}, mat));  // +y
  s.add_patch(Patch(lo, {0, 0, d.z}, {0, d.y, 0}, mat));                 // -x
  s.add_patch(Patch({hi.x, lo.y, lo.z}, {0, d.y, 0}, {0, 0, d.z}, mat));  // +x
  s.add_patch(Patch(lo, {0, d.y, 0}, {d.x, 0, 0}, mat));                 // -z
  s.add_patch(Patch({lo.x, lo.y, hi.z}, {d.x, 0, 0}, {0, d.y, 0}, mat));  // +z
}

}  // namespace

Office generate_office(std::uint64_t seed) {
  Lcg48 rng(mix(seed));
  Office office;
  office.width = uniform(rng, 36.0, 44.0);
  office.depth = kFloorArea / office.width;
  const double W = office.width, D = office.depth, H = kHeight;

  Scene& s = office.scene;
  s.set_name("office");
  const int carpet = s.add_material(Material::lambertian({0.30, 0.30, 0.34}));
  const int ceiling = s.add_material(Material::lambertian({0.80, 0.80, 0.78}));
  const int paint = s.add_material(Material::lambertian({0.65, 0.63, 0.60}));
  const int wood = s.add_material(Material::lambertian({0.55, 0.42, 0.30}));
  const int plastic = s.add_material(Material::lambertian({0.25, 0.25, 0.27}));
  const int screen =
      s.add_material(Material::glossy({0.03, 0.03, 0.04}, {0.20, 0.20, 0.20}, 0.05));
  const int fabric = s.add_material(two_sided(Material::lambertian({0.35, 0.40, 0.50})));
  const int seat = s.add_material(Material::lambertian({0.15, 0.15, 0.20}));
  const int light = s.add_material(Material::emitter({12.0, 12.0, 11.0}));

  // Shell, normals inward: floor (+y), ceiling (-y), walls.
  const int nx = tiles(W), nz = tiles(D), ny = tiles(H);
  tessellate(s, {0, 0, 0}, {0, 0, D}, {W, 0, 0}, nz, nx, carpet);
  tessellate(s, {0, H, 0}, {W, 0, 0}, {0, 0, D}, nx, nz, ceiling);
  tessellate(s, {0, 0, 0}, {0, H, 0}, {0, 0, D}, ny, nz, paint);
  tessellate(s, {W, 0, 0}, {0, 0, D}, {0, H, 0}, nz, ny, paint);
  tessellate(s, {0, 0, 0}, {W, 0, 0}, {0, H, 0}, nx, ny, paint);
  tessellate(s, {0, 0, D}, {0, H, 0}, {W, 0, 0}, ny, nx, paint);

  // Ceiling-panel luminaires, just below the ceiling, facing down.
  const double pitch = uniform(rng, 2.3, 2.7);
  const int lx = static_cast<int>(W / pitch), lz = static_cast<int>(D / pitch);
  const double ox = 0.5 * (W - (lx - 1) * pitch), oz = 0.5 * (D - (lz - 1) * pitch);
  for (int i = 0; i < lx; ++i) {
    for (int j = 0; j < lz; ++j) {
      const Vec3 c{ox + i * pitch, H - 0.01, oz + j * pitch};
      const int panel = s.add_patch(Patch({c.x - 0.6, c.y, c.z - 0.3}, {1.2, 0, 0}, {0, 0, 0.6},
                                          light));
      s.add_luminaire(panel);
    }
  }

  // Workstation rows: desk, monitor, screen, partition and chair (17
  // patches), with a few seats left empty.
  const double dw = uniform(rng, 1.4, 1.6), dd = 0.75;
  const double px = dw + uniform(rng, 0.2, 0.4), pz = uniform(rng, 2.6, 3.0);
  const int cols = static_cast<int>((W - 3.0) / px), rows = static_cast<int>((D - 3.0) / pz);
  for (int c = 0; c < cols; ++c) {
    for (int r = 0; r < rows; ++r) {
      if (rng.uniform() < 0.05) continue;
      const double x0 = 1.5 + c * px, z0 = 1.5 + 0.7 + r * pz;
      open_box(s, {x0, 0, z0}, {x0 + dw, 0.75, z0 + dd}, wood);
      const double mx = x0 + 0.5 * dw + uniform(rng, -0.3, 0.3);
      open_box(s, {mx - 0.28, 0.75, z0 + dd - 0.30}, {mx + 0.28, 1.15, z0 + dd - 0.24}, plastic);
      s.add_patch(Patch({mx - 0.25, 0.78, z0 + dd - 0.305}, {0, 0.34, 0}, {0.5, 0, 0}, screen));
      s.add_patch(Patch({x0, 0, z0 + dd + 0.02}, {dw, 0, 0}, {0, 1.25, 0}, fabric));
      const double cx = mx + uniform(rng, -0.1, 0.1);
      open_box(s, {cx - 0.25, 0, z0 - 0.65}, {cx + 0.25, 0.45, z0 - 0.15}, seat);
    }
  }
  return office;
}

std::vector<photon::Camera> walkthrough(const Office& office, std::uint64_t seed, int views,
                                        int width, int height) {
  Lcg48 rng(mix(seed ^ 0x5157414C4BULL));
  std::vector<photon::Camera> cameras;
  cameras.reserve(static_cast<std::size_t>(views));
  for (int v = 0; v < views; ++v) {
    const Vec3 eye{uniform(rng, 1.0, office.width - 1.0), uniform(rng, 1.55, 1.7),
                   uniform(rng, 1.0, office.depth - 1.0)};
    const double yaw = uniform(rng, 0.0, 2.0 * kPi);
    const Vec3 look = eye + Vec3{6.0 * std::cos(yaw), -uniform(rng, 0.5, 1.1), 6.0 * std::sin(yaw)};
    cameras.emplace_back(eye, look, Vec3{0, 1, 0}, 60.0, width, height);
  }
  return cameras;
}

}  // namespace perfbench
