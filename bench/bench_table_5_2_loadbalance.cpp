// Table 5.2 (dissertation) / Table 1 (appendix): total photons processed per
// processor, naive load balancing vs Best-Fit bin packing, 8 processors.
//
// Runs the real distributed algorithm (MiniMPI) twice on the Harpsichord
// Practice Room — identical photon streams, only the ownership assignment
// differs — and reports each rank's tally-update count in thousands, exactly
// the quantity the paper tabulates.
#include <cstdio>

#include "bench_util.hpp"
#include "engine/backend.hpp"
#include "geom/scenes.hpp"

using namespace photon;

int main(int argc, char** argv) {
  const std::uint64_t photons = benchutil::arg_u64(argc, argv, "photons", 60000);
  const int P = 8;

  const Scene scene = scenes::harpsichord_room();

  RunConfig cfg;
  cfg.photons = photons;
  cfg.adapt_batch = false;
  cfg.batch = 1000;

  const auto backend = make_backend("dist-particle");
  cfg.bestfit = false;
  cfg.workers = P;
  const RunResult naive = backend->run(scene, cfg);
  cfg.bestfit = true;
  const RunResult packed = backend->run(scene, cfg);

  // Paper's Table 5.2 columns (thousands of photons).
  const double paper_naive[] = {47.9, 34.5, 35.6, 25.6, 32.7, 24.9, 35.1, 32.8};
  const double paper_packed[] = {29.4, 28.9, 29.8, 29.4, 29.6, 29.1, 28.7, 29.0};

  benchutil::header("Table 5.2 — Photons Processed: Naive Load Balance vs Bin Packing");
  std::printf("%-9s | %12s %12s | %12s %12s\n", "Processor", "naive (k)", "(paper)",
              "packed (k)", "(paper)");
  benchutil::rule();
  double naive_min = 1e18, naive_max = 0, packed_min = 1e18, packed_max = 0;
  for (int r = 0; r < P; ++r) {
    const double n = static_cast<double>(naive.ranks[static_cast<std::size_t>(r)].processed) / 1000.0;
    const double b = static_cast<double>(packed.ranks[static_cast<std::size_t>(r)].processed) / 1000.0;
    naive_min = std::min(naive_min, n);
    naive_max = std::max(naive_max, n);
    packed_min = std::min(packed_min, b);
    packed_max = std::max(packed_max, b);
    std::printf("%9d | %12.1f %12.1f | %12.1f %12.1f\n", r, n, paper_naive[r], b,
                paper_packed[r]);
  }
  benchutil::rule();
  std::printf("max/min spread: naive %.2fx (paper 1.92x), bin packing %.2fx (paper 1.04x)\n",
              naive_max / naive_min, packed_max / packed_min);
  std::printf("Shape to check: bin packing's spread is far smaller than naive's.\n");
  return 0;
}
