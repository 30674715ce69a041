#include "geom/grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geom/leaf_kernel_inl.hpp"

namespace photon {

namespace {

// Patch -> cell-range rasterization helper: index of the cell containing
// coordinate x on an axis with `res` cells of size `cs` starting at `lo`.
int cell_index(double x, double lo, double cs, int res) {
  const int i = static_cast<int>(std::floor((x - lo) / cs));
  return std::clamp(i, 0, res - 1);
}

// Amanatides & Woo 3D-DDA over one grid level for the ray segment
// [t_enter, t_seg_end]. Calls visit(idx, t_cell_enter, t_cell_exit) for each
// cell pierced, in front-to-back order; stops and returns true when visit
// does. Boundary-crossing parameters are computed from the cell indices (not
// the moving point), so the walk is self-consistent under rounding.
template <typename Visit>
bool dda_walk(const Ray& ray, const Vec3& lo, const Vec3& cs, const int res[3], double t_enter,
              double t_seg_end, Visit&& visit) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Vec3 entry = ray.origin + ray.dir * t_enter;
  int idx[3];
  int step[3];
  double t_next_cross[3];
  double t_delta[3];
  for (int a = 0; a < 3; ++a) {
    idx[a] = cell_index(entry[a], lo[a], cs[a], res[a]);
    const double d = ray.dir[a];
    const double inv = ray.inv_dir[a];
    if (d > 0.0) {
      step[a] = 1;
      t_next_cross[a] = (lo[a] + (idx[a] + 1) * cs[a] - ray.origin[a]) * inv;
      t_delta[a] = cs[a] * inv;
    } else if (d < 0.0) {
      step[a] = -1;
      t_next_cross[a] = (lo[a] + idx[a] * cs[a] - ray.origin[a]) * inv;
      t_delta[a] = -cs[a] * inv;
    } else {
      step[a] = 0;
      t_next_cross[a] = kInf;
      t_delta[a] = kInf;
    }
  }

  double t_cur = t_enter;
  while (true) {
    const double t_next = std::min({t_next_cross[0], t_next_cross[1], t_next_cross[2]});
    if (visit(idx, t_cur, std::min(t_next, t_seg_end))) return true;
    if (t_next >= t_seg_end) return false;
    int a = 0;
    if (t_next_cross[1] < t_next_cross[a]) a = 1;
    if (t_next_cross[2] < t_next_cross[a]) a = 2;
    idx[a] += step[a];
    if (idx[a] < 0 || idx[a] >= res[a]) return false;
    t_cur = t_next_cross[a];
    t_next_cross[a] += t_delta[a];
  }
}

}  // namespace

void HashGrid::build(std::span<const Patch> patches, const AccelBuildParams& params) {
  coarse_sub_.clear();
  item_offsets_.clear();
  item_ids_.clear();
  lane_offsets_.clear();
  soa_.clear();
  sub_blocks_ = 0;
  depth_ = 0;
  bounds_ = Aabb{};
  res_[0] = res_[1] = res_[2] = 0;
  if (patches.empty()) return;

  const std::size_t n = patches.size();
  const int width = build_width(params, n);
  const std::vector<Aabb> patch_box = patch_bounds(patches, width);
  for (const Aabb& b : patch_box) bounds_.expand(b);
  const double diag = bounds_.extent().length();
  bounds_ = bounds_.padded(1e-6 * (1.0 + diag));

  // Coarse resolution ~ density * cbrt(n) cells per axis, shaped by the box
  // aspect so elongated scenes get elongated grids.
  const double density = std::clamp(params.grid_density, 0.25, 16.0);
  const double k = density * std::cbrt(static_cast<double>(n));
  const Vec3 e = bounds_.extent();
  const double geo_mean = std::cbrt(e.x * e.y * e.z);
  for (int a = 0; a < 3; ++a) {
    res_[a] = std::clamp(static_cast<int>(std::llround(k * e[a] / geo_mean)), 1, 64);
  }
  cell_size_ = Vec3{e.x / res_[0], e.y / res_[1], e.z / res_[2]};

  const std::size_t nc = static_cast<std::size_t>(res_[0]) * static_cast<std::size_t>(res_[1]) *
                         static_cast<std::size_t>(res_[2]);
  const auto flat = [&](int ix, int iy, int iz) {
    return (static_cast<std::size_t>(iz) * static_cast<std::size_t>(res_[1]) +
            static_cast<std::size_t>(iy)) *
               static_cast<std::size_t>(res_[0]) +
           static_cast<std::size_t>(ix);
  };

  // Rasterize with a whisker of padding so a patch lying exactly on a cell
  // face is referenced by both neighbors. Each patch's coarse cell range is
  // computed once, by the count pass, and read again by the scatter.
  const double raster_eps = 1e-9 * (1.0 + diag);
  struct CellRange {
    std::uint8_t lo[3], hi[3];  // res_ <= 64 on every axis
  };
  UninitVector<CellRange> ranges(n);
  const auto coarse_range = [&](std::size_t pid) {
    const Aabb pb = patch_box[pid].padded(raster_eps);
    CellRange& r = ranges[pid];
    for (int a = 0; a < 3; ++a) {
      const auto index = [&](double x) {
        return static_cast<std::uint8_t>(cell_index(x, bounds_.lo[a], cell_size_[a], res_[a]));
      };
      r.lo[a] = index(pb.lo[a]);
      r.hi[a] = index(pb.hi[a]);
    }
  };
  const auto for_each_cell = [&](std::size_t pid, const auto& visit) {
    const CellRange& r = ranges[pid];
    for (int iz = r.lo[2]; iz <= r.hi[2]; ++iz) {
      for (int iy = r.lo[1]; iy <= r.hi[1]; ++iy) {
        for (int ix = r.lo[0]; ix <= r.hi[0]; ++ix) visit(flat(ix, iy, iz));
      }
    }
  };

  // Counting sort into the coarse cells, in fixed chunks of patches on the
  // pool. Each chunk counts its references per cell; per cell, a prefix sum
  // over the chunks in order turns the counts into each chunk's offset
  // within the cell, and one over the cells gives coarse_off; each chunk then
  // scatters its patches in ascending order from coarse_off + its offset. So
  // every cell's list is ascending by patch id, as one serial pass leaves it,
  // at any width. Chunks hold at least kMinPatchChunk patches and number at
  // most kMaxPatchChunks, so `at` never outgrows kMaxPatchChunks * nc.
  constexpr std::size_t kMinPatchChunk = 16384;
  constexpr std::size_t kMaxPatchChunks = 64;
  constexpr std::size_t kCellBlock = 8192;
  const std::size_t patch_chunk = std::max(kMinPatchChunk, chunk_count(n, kMaxPatchChunks));
  const std::size_t chunks = chunk_count(n, patch_chunk);
  // at[k * nc + c]: chunk k's references in cell c, then its offset there.
  UninitVector<std::uint32_t> at(chunks * nc);
  run_build_tasks(chunks, width, [&](std::size_t k) {
    std::uint32_t* count = at.data() + k * nc;
    std::fill(count, count + nc, 0u);
    const std::size_t end = std::min(n, (k + 1) * patch_chunk);
    for (std::size_t pid = k * patch_chunk; pid < end; ++pid) {
      coarse_range(pid);
      for_each_cell(pid, [&](std::size_t c) { ++count[c]; });
    }
  });
  // Per block of cells, the chunks' rows are walked one after another, so
  // each pass reads a contiguous slice of `at` (a walk down one cell's
  // column would touch a new page per chunk).
  std::vector<std::uint32_t> coarse_off(nc + 1, 0);
  run_build_tasks(chunk_count(nc, kCellBlock), width, [&](std::size_t b) {
    const std::size_t begin = b * kCellBlock;
    const std::size_t end = std::min(nc, begin + kCellBlock);
    std::uint32_t* total = coarse_off.data() + 1;
    for (std::size_t k = 0; k < chunks; ++k) {
      std::uint32_t* row = at.data() + k * nc;
      for (std::size_t c = begin; c < end; ++c) {
        const std::uint32_t count = row[c];
        row[c] = total[c];
        total[c] += count;
      }
    }
  });
  for (std::size_t c = 0; c < nc; ++c) coarse_off[c + 1] += coarse_off[c];
  UninitVector<std::int32_t> coarse_refs(coarse_off[nc]);
  run_build_tasks(chunks, width, [&](std::size_t k) {
    std::uint32_t* offset = at.data() + k * nc;
    const std::size_t end = std::min(n, (k + 1) * patch_chunk);
    for (std::size_t pid = k * patch_chunk; pid < end; ++pid) {
      for_each_cell(pid, [&](std::size_t c) {
        coarse_refs[coarse_off[c] + offset[c]++] = static_cast<std::int32_t>(pid);
      });
    }
  });

  // Hot cells get nested sub-grids; block assignment scans cells in order.
  sub_res_ = std::clamp(params.grid_sub_res, 2, 8);
  const auto threshold = static_cast<std::uint32_t>(std::max(1, params.grid_refine_threshold));
  coarse_sub_.assign(nc, -1);
  std::vector<std::uint32_t> hot_cells;
  for (std::size_t c = 0; c < nc; ++c) {
    if (coarse_off[c + 1] - coarse_off[c] > threshold) {
      coarse_sub_[c] = static_cast<std::int32_t>(hot_cells.size());
      hot_cells.push_back(static_cast<std::uint32_t>(c));
    }
  }
  sub_blocks_ = hot_cells.size();
  depth_ = sub_blocks_ > 0 ? 2 : 1;

  const auto sub3 = static_cast<std::size_t>(sub_res_) * static_cast<std::size_t>(sub_res_) *
                    static_cast<std::size_t>(sub_res_);
  const std::size_t total_cells = nc + sub_blocks_ * sub3;

  // Per-cell counts over the unified id space: leaf coarse cells keep their
  // counting-sort totals, hot cells zero (their sub-cells take over). The
  // per-block sub-rasterization writes only its own sub3 slice — disjoint
  // ranges, so the pool schedule cannot perturb the result.
  std::vector<std::uint32_t> cell_count(total_cells, 0);
  for (std::size_t c = 0; c < nc; ++c) {
    if (coarse_sub_[c] < 0) cell_count[c] = coarse_off[c + 1] - coarse_off[c];
  }
  const Vec3 ss{cell_size_.x / sub_res_, cell_size_.y / sub_res_, cell_size_.z / sub_res_};
  const auto cell_lo_of = [&](std::size_t c) {
    const auto ix = static_cast<int>(c % static_cast<std::size_t>(res_[0]));
    const auto iy = static_cast<int>((c / static_cast<std::size_t>(res_[0])) %
                                     static_cast<std::size_t>(res_[1]));
    const auto iz =
        static_cast<int>(c / (static_cast<std::size_t>(res_[0]) * static_cast<std::size_t>(res_[1])));
    return bounds_.lo + Vec3{ix * cell_size_.x, iy * cell_size_.y, iz * cell_size_.z};
  };
  const auto sub_range = [&](const Vec3& cell_lo, std::int32_t pid, int out_lo[3],
                             int out_hi[3]) {
    const Aabb pb = patch_box[static_cast<std::size_t>(pid)].padded(raster_eps);
    for (int a = 0; a < 3; ++a) {
      out_lo[a] = cell_index(pb.lo[a], cell_lo[a], ss[a], sub_res_);
      out_hi[a] = cell_index(pb.hi[a], cell_lo[a], ss[a], sub_res_);
    }
  };
  const auto sub_flat = [&](int jx, int jy, int jz) {
    return (static_cast<std::size_t>(jz) * static_cast<std::size_t>(sub_res_) +
            static_cast<std::size_t>(jy)) *
               static_cast<std::size_t>(sub_res_) +
           static_cast<std::size_t>(jx);
  };
  run_build_tasks(sub_blocks_, width, [&](std::size_t b) {
    const std::size_t c = hot_cells[b];
    const Vec3 cell_lo = cell_lo_of(c);
    const std::size_t base = nc + b * sub3;
    for (std::uint32_t r = coarse_off[c]; r < coarse_off[c + 1]; ++r) {
      int jlo[3], jhi[3];
      sub_range(cell_lo, coarse_refs[r], jlo, jhi);
      for (int jz = jlo[2]; jz <= jhi[2]; ++jz) {
        for (int jy = jlo[1]; jy <= jhi[1]; ++jy) {
          for (int jx = jlo[0]; jx <= jhi[0]; ++jx) ++cell_count[base + sub_flat(jx, jy, jz)];
        }
      }
    }
  });

  item_offsets_.assign(total_cells + 1, 0);
  for (std::size_t c = 0; c < total_cells; ++c) {
    item_offsets_[c + 1] = item_offsets_[c] + cell_count[c];
  }
  // Sub-cells scatter their ids in place, one hot cell per task; the leaf
  // pack copies the leaf coarse cells' ids from coarse_refs.
  item_ids_.resize(item_offsets_[total_cells]);
  run_build_tasks(sub_blocks_, width, [&](std::size_t b) {
    const std::size_t c = hot_cells[b];
    const Vec3 cell_lo = cell_lo_of(c);
    const std::size_t base = nc + b * sub3;
    std::vector<std::uint32_t> cursor(item_offsets_.begin() + base,
                                      item_offsets_.begin() + base + sub3);
    for (std::uint32_t r = coarse_off[c]; r < coarse_off[c + 1]; ++r) {
      int jlo[3], jhi[3];
      sub_range(cell_lo, coarse_refs[r], jlo, jhi);
      for (int jz = jlo[2]; jz <= jhi[2]; ++jz) {
        for (int jy = jlo[1]; jy <= jhi[1]; ++jy) {
          for (int jx = jlo[0]; jx <= jhi[0]; ++jx) {
            item_ids_[cursor[sub_flat(jx, jy, jz)]++] = coarse_refs[r];
          }
        }
      }
    }
  });

  const auto ids_of = [&](std::size_t c) {
    return c < nc ? coarse_refs.data() + coarse_off[c] : item_ids_.data() + item_offsets_[c];
  };
  pack_leaves(patches, item_offsets_, ids_of, width, item_ids_, lane_offsets_, soa_);
}

std::size_t HashGrid::node_count() const {
  const auto sub3 = static_cast<std::size_t>(sub_res_) * static_cast<std::size_t>(sub_res_) *
                    static_cast<std::size_t>(sub_res_);
  return coarse_sub_.size() + sub_blocks_ * sub3;
}

template <bool Count>
bool HashGrid::visit_cell(std::size_t cell, const Ray& ray, const RayLanes& rl, double t_exit,
                          SceneHit& best, TraversalStats* stats) const {
  if constexpr (Count) {
    ++stats->nodes_visited;
    stats->patch_tests += item_offsets_[cell + 1] - item_offsets_[cell];
  }
  const std::uint32_t lane_begin = lane_offsets_[cell];
  const std::uint32_t lane_end = lane_offsets_[cell + 1];
  if (lane_begin < lane_end) leaf_closest(soa_, ray, rl, lane_begin, lane_end, best);
  // First confirmed nearest: a hit at or before this cell's exit lies in a
  // cell already tested, and that cell referenced every patch overlapping it,
  // so nothing ahead can beat it.
  return best.patch >= 0 && best.dist <= t_exit;
}

template <bool Count>
bool HashGrid::intersect_impl(const Ray& ray, double tmax, SceneHit& best,
                              TraversalStats* stats) const {
  best.patch = -1;
  best.dist = tmax;
  if (item_offsets_.empty()) return false;
  double t0 = 0.0, t1 = 0.0;
  if (!bounds_.hit(ray, tmax, t0, t1)) return false;

  const RayLanes rl(ray);
  const std::size_t nc = coarse_sub_.size();
  const auto sub3 = static_cast<std::size_t>(sub_res_) * static_cast<std::size_t>(sub_res_) *
                    static_cast<std::size_t>(sub_res_);
  const Vec3 ss{cell_size_.x / sub_res_, cell_size_.y / sub_res_, cell_size_.z / sub_res_};
  const int sres[3] = {sub_res_, sub_res_, sub_res_};

  return dda_walk(ray, bounds_.lo, cell_size_, res_, t0, t1,
                  [&](const int idx[3], double tc0, double tc1) {
                    const std::size_t c =
                        (static_cast<std::size_t>(idx[2]) * static_cast<std::size_t>(res_[1]) +
                         static_cast<std::size_t>(idx[1])) *
                            static_cast<std::size_t>(res_[0]) +
                        static_cast<std::size_t>(idx[0]);
                    const std::int32_t sub = coarse_sub_[c];
                    if (sub < 0) return visit_cell<Count>(c, ray, rl, tc1, best, stats);
                    const Vec3 cell_lo =
                        bounds_.lo + Vec3{idx[0] * cell_size_.x, idx[1] * cell_size_.y,
                                          idx[2] * cell_size_.z};
                    const std::size_t base = nc + static_cast<std::size_t>(sub) * sub3;
                    return dda_walk(ray, cell_lo, ss, sres, tc0, tc1,
                                    [&](const int jdx[3], double, double ts1) {
                                      const std::size_t sc =
                                          base +
                                          (static_cast<std::size_t>(jdx[2]) *
                                               static_cast<std::size_t>(sub_res_) +
                                           static_cast<std::size_t>(jdx[1])) *
                                              static_cast<std::size_t>(sub_res_) +
                                          static_cast<std::size_t>(jdx[0]);
                                      return visit_cell<Count>(sc, ray, rl, ts1, best, stats);
                                    });
                  });
}

bool HashGrid::intersect(const Ray& ray, double tmax, SceneHit& best) const {
  return intersect_impl<false>(ray, tmax, best, nullptr);
}

bool HashGrid::intersect_counted(const Ray& ray, double tmax, SceneHit& best,
                                 TraversalStats& stats) const {
  return intersect_impl<true>(ray, tmax, best, &stats);
}

std::size_t HashGrid::memory_bytes() const {
  return coarse_sub_.capacity() * sizeof(std::int32_t) +
         item_offsets_.capacity() * sizeof(std::uint32_t) +
         item_ids_.capacity() * sizeof(std::int32_t) +
         lane_offsets_.capacity() * sizeof(std::uint32_t) + soa_.memory_bytes();
}

bool HashGrid::identical_to(const HashGrid& other) const {
  return res_[0] == other.res_[0] && res_[1] == other.res_[1] && res_[2] == other.res_[2] &&
         sub_res_ == other.sub_res_ && sub_blocks_ == other.sub_blocks_ &&
         depth_ == other.depth_ && coarse_sub_ == other.coarse_sub_ &&
         item_offsets_ == other.item_offsets_ && item_ids_ == other.item_ids_ &&
         lane_offsets_ == other.lane_offsets_ && soa_ == other.soa_;
}

bool HashGrid::identical_to(const AccelStructure& other) const {
  const auto* o = dynamic_cast<const HashGrid*>(&other);
  return o != nullptr && identical_to(*o);
}

}  // namespace photon
