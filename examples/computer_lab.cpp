// The Computer Laboratory (Fig 5.1) simulated with the *distributed-memory*
// algorithm of Fig 5.3 on MiniMPI ranks: replicated geometry, partitioned bin
// forest, Best-Fit load balancing, batched all-to-all photon exchange — then
// rendered from the gathered answer on rank 0.
//
// Usage: computer_lab [photons] [ranks]     (default 200000 photons, 4 ranks)
#include <cstdio>
#include <cstdlib>

#include "engine/backend.hpp"
#include "geom/scenes.hpp"
#include "view/viewer.hpp"

int main(int argc, char** argv) {
  using namespace photon;

  const std::uint64_t photons = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200000;
  const int ranks = argc > 2 ? std::atoi(argv[2]) : 4;

  const Scene scene = scenes::computer_lab();
  std::printf("scene: %zu defining polygons, %zu ceiling panels; %d MiniMPI ranks\n",
              scene.patch_count(), scene.luminaires().size(), ranks);

  RunConfig config;
  config.photons = photons;
  config.adapt_batch = true;
  config.workers = ranks;
  const RunResult result = make_backend("dist-particle")->run(scene, config);

  std::printf("\nper-rank report (Fig 5.3 algorithm):\n");
  std::printf("%5s %10s %12s %12s %10s\n", "rank", "traced", "tallied", "sent bytes", "batches");
  for (int r = 0; r < ranks; ++r) {
    const RankReport& rep = result.ranks[static_cast<std::size_t>(r)];
    std::printf("%5d %10llu %12llu %12llu %10zu\n", r,
                static_cast<unsigned long long>(rep.traced),
                static_cast<unsigned long long>(rep.processed),
                static_cast<unsigned long long>(rep.sent_bytes), rep.batch_sizes.size());
  }
  std::printf("load balance (probe-based Best-Fit): imbalance %.3f\n", imbalance(result.balance));
  if (!result.ranks[0].batch_sizes.empty()) {
    std::printf("batch sizes: ");
    for (std::size_t i = 0; i < std::min<std::size_t>(result.ranks[0].batch_sizes.size(), 10); ++i) {
      std::printf("%llu ", static_cast<unsigned long long>(result.ranks[0].batch_sizes[i]));
    }
    std::printf("...\n");
  }

  const Camera camera({12.0, 2.4, 1.2}, {11.0, 0.9, 9.0}, {0, 1, 0}, 65.0, 360, 270);
  const Image image = render(scene, result.forest, camera);
  image.write_ppm("computer_lab.ppm");
  std::printf("rendered from the gathered forest: computer_lab.ppm\n");
  return 0;
}
