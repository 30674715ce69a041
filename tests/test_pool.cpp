#include "engine/pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "geom/octree.hpp"
#include "geom/scenes.hpp"

namespace photon {
namespace {

// A deterministic per-chunk product: out[c] depends only on c, so any
// schedule that runs every chunk exactly once yields the identical vector.
std::vector<std::uint64_t> run_chunk_products(WorkerPool& pool, std::uint64_t chunks,
                                              int width, PoolRunStats* stats = nullptr) {
  std::vector<std::uint64_t> out(chunks, 0);
  pool.run(
      chunks, width,
      [&](std::uint64_t c, int) { out[static_cast<std::size_t>(c)] = c * 2654435761ULL + 1; },
      stats);
  return out;
}

TEST(WorkerPool, RunsEveryChunkExactlyOnce) {
  WorkerPool pool(3);
  const std::uint64_t chunks = 1000;
  std::vector<std::atomic<std::uint32_t>> hits(chunks);
  PoolRunStats stats;
  pool.run(chunks, 4, [&](std::uint64_t c, int) { ++hits[static_cast<std::size_t>(c)]; },
           &stats);
  for (std::uint64_t c = 0; c < chunks; ++c) {
    EXPECT_EQ(hits[static_cast<std::size_t>(c)].load(), 1u) << "chunk " << c;
  }
  EXPECT_EQ(stats.chunks, chunks);
  EXPECT_EQ(std::accumulate(stats.worker_chunks.begin(), stats.worker_chunks.end(),
                            std::uint64_t{0}),
            chunks);
  // Every chunk's executor was recorded and is a valid slot.
  ASSERT_EQ(stats.chunk_worker.size(), chunks);
  for (const std::int32_t w : stats.chunk_worker) {
    EXPECT_GE(w, 0);
    EXPECT_LT(w, 4);
  }
}

TEST(WorkerPool, WorkerSlotIsAlwaysBelowWidth) {
  WorkerPool pool(7);  // more helpers than the requested width
  std::atomic<bool> ok{true};
  pool.run(256, 3, [&](std::uint64_t, int slot) {
    if (slot < 0 || slot >= 3) ok = false;
  });
  EXPECT_TRUE(ok);
}

TEST(WorkerPool, OutputIsIdenticalForEveryWidthAndSchedule) {
  WorkerPool pool(7);
  const std::uint64_t chunks = 512;
  const std::vector<std::uint64_t> reference = run_chunk_products(pool, chunks, 1);

  // Widths beyond hardware_concurrency are deliberate: oversubscription must
  // only change timing, never output.
  for (int width : {2, 4, 8}) {
    EXPECT_EQ(run_chunk_products(pool, chunks, width), reference) << "width " << width;
  }
  {
    WorkerPool::ScheduleGuard guard(WorkerPool::TestSchedule::kForceSteal);
    EXPECT_EQ(run_chunk_products(pool, chunks, 4), reference) << "forced steal";
  }
  for (std::uint64_t seed : {7ull, 99ull, 4242ull}) {
    WorkerPool::ScheduleGuard guard(WorkerPool::TestSchedule::kShuffle, seed);
    EXPECT_EQ(run_chunk_products(pool, chunks, 8), reference) << "shuffle seed " << seed;
  }
  {
    WorkerPool::ScheduleGuard guard(WorkerPool::TestSchedule::kStaticOnly);
    PoolRunStats stats;
    EXPECT_EQ(run_chunk_products(pool, chunks, 4, &stats), reference) << "static only";
    EXPECT_EQ(stats.steals, 0u);
  }
}

TEST(WorkerPool, StealsAreCountedAndAttributedToTheThief) {
  // Deterministic steal: two chunks, both statically owned by slot 0
  // (kForceSteal), and each chunk's body blocks until both chunks have
  // started. The caller cannot run both (it is stuck inside the first), so
  // the helper MUST steal the second — exactly one steal, charged to slot 1.
  WorkerPool pool(1);
  WorkerPool::ScheduleGuard guard(WorkerPool::TestSchedule::kForceSteal);
  std::atomic<int> started{0};
  PoolRunStats stats;
  pool.run(
      2, 2,
      [&](std::uint64_t, int) {
        ++started;
        while (started.load() < 2) std::this_thread::yield();
      },
      &stats);
  EXPECT_EQ(stats.steals, 1u);
  ASSERT_EQ(stats.worker_steals.size(), 2u);
  EXPECT_EQ(stats.worker_steals[0], 0u);
  EXPECT_EQ(stats.worker_steals[1], 1u);
  EXPECT_EQ(stats.worker_chunks[0], 1u);
  EXPECT_EQ(stats.worker_chunks[1], 1u);
}

TEST(WorkerPool, ForcedStealStillRunsEverythingAtWidthOne) {
  WorkerPool pool(2);
  WorkerPool::ScheduleGuard guard(WorkerPool::TestSchedule::kForceSteal);
  const std::vector<std::uint64_t> out = run_chunk_products(pool, 64, 1);
  for (std::uint64_t c = 0; c < 64; ++c) {
    EXPECT_EQ(out[static_cast<std::size_t>(c)], c * 2654435761ULL + 1);
  }
}

TEST(WorkerPool, PropagatesTheFirstException) {
  WorkerPool pool(3);
  EXPECT_THROW(pool.run(100, 4,
                        [&](std::uint64_t c, int) {
                          if (c == 37) throw std::runtime_error("chunk 37 failed");
                        }),
               std::runtime_error);
  // The pool survives a throwing job: the next run works normally.
  const std::vector<std::uint64_t> out = run_chunk_products(pool, 32, 4);
  EXPECT_EQ(out.size(), 32u);
}

TEST(WorkerPool, NestedRunExecutesInline) {
  WorkerPool pool(3);
  std::vector<std::uint64_t> outer(8, 0);
  pool.run(8, 4, [&](std::uint64_t o, int) {
    // A run() issued from inside a pool task must not deadlock on the job
    // slot — it executes its chunks inline on this worker.
    std::vector<std::uint64_t> inner(16, 0);
    WorkerPool::instance().run(16, 4, [&](std::uint64_t i, int) {
      inner[static_cast<std::size_t>(i)] = i + 1;
    });
    outer[static_cast<std::size_t>(o)] =
        std::accumulate(inner.begin(), inner.end(), std::uint64_t{0});
  });
  for (const std::uint64_t v : outer) EXPECT_EQ(v, 136u);  // 1+2+...+16
}

TEST(WorkerPool, OctreeBuildFromInsideAPoolTaskMatchesDirectBuild) {
  // The real nested-submit consumer: a parallel Octree::build issued from a
  // pool task (the future photon-service shape). The topology pin must hold.
  const Scene s = scenes::cornell_box();
  AccelBuildParams params;
  params.workers = 4;
  Octree direct;
  direct.build(s.patches(), params);

  Octree nested;
  WorkerPool::instance().run(1, 1, [&](std::uint64_t, int) {
    nested.build(s.patches(), params);
  });
  EXPECT_TRUE(nested.identical_to(direct));
}

TEST(WorkerPool, ShutdownIsIdempotentAndRunFallsBackInline) {
  WorkerPool pool(2);
  EXPECT_EQ(pool.helper_count(), 2);
  pool.shutdown();
  pool.shutdown();  // idempotent
  EXPECT_EQ(pool.helper_count(), 0);
  // run() after shutdown degrades to inline execution, full coverage.
  const std::vector<std::uint64_t> out = run_chunk_products(pool, 64, 4);
  for (std::uint64_t c = 0; c < 64; ++c) {
    EXPECT_EQ(out[static_cast<std::size_t>(c)], c * 2654435761ULL + 1);
  }
}

TEST(WorkerPool, GrowsLazilyToTheRequestedWidth) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.helper_count(), 0);
  run_chunk_products(pool, 32, 4);  // needs 3 helpers -> grows
  EXPECT_EQ(pool.helper_count(), 3);
  run_chunk_products(pool, 32, 2);  // narrower run must not shrink the pool
  EXPECT_EQ(pool.helper_count(), 3);
}

TEST(WorkerPool, ZeroChunksIsANoOp) {
  WorkerPool pool(1);
  bool ran = false;
  PoolRunStats stats;
  pool.run(0, 4, [&](std::uint64_t, int) { ran = true; }, &stats);
  EXPECT_FALSE(ran);
  EXPECT_EQ(stats.chunks, 0u);
}

TEST(WorkerPool, ManyConcurrentSubmittersStayCorrect) {
  // The service shape: several jobs' batch windows multiplexed onto one pool
  // from different threads. Every run must still execute its chunks exactly
  // once and produce the deterministic per-chunk products.
  WorkerPool pool(4);
  const std::vector<std::uint64_t> reference = run_chunk_products(pool, 256, 2);
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 8; ++round) {
        if (run_chunk_products(pool, 256, 2) != reference) ok = false;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_TRUE(ok);
}

TEST(WorkerPool, ConcurrentExternalRunsDispatchInArrivalOrder) {
  // Fair share for the service: the dispatch slot is a ticket queue, so
  // concurrent submitters are served strictly in arrival order — a bare
  // mutex would let the OS pick an arbitrary waiter and starve early
  // arrivals. Arrival order is made unambiguous by staggering the
  // submitters while a blocker run holds the slot.
  WorkerPool pool(3);
  std::atomic<bool> release{false};
  std::atomic<bool> blocker_started{false};
  std::thread blocker([&] {
    pool.run(1, 1, [&](std::uint64_t, int) {
      blocker_started = true;
      while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  });
  while (!blocker_started.load()) std::this_thread::yield();

  std::mutex order_m;
  std::vector<int> dispatch_order;
  std::vector<std::thread> submitters;
  for (int i = 0; i < 4; ++i) {
    submitters.emplace_back([&, i] {
      std::this_thread::sleep_for(std::chrono::milliseconds(60 * (i + 1)));
      pool.run(16, 2, [&](std::uint64_t c, int) {
        if (c == 0) {  // chunk 0 runs exactly once per run — marks dispatch
          std::lock_guard<std::mutex> lock(order_m);
          dispatch_order.push_back(i);
        }
      });
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  release = true;
  blocker.join();
  for (std::thread& t : submitters) t.join();

  ASSERT_EQ(dispatch_order.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(dispatch_order[static_cast<std::size_t>(i)], i) << "ticket order violated";
  }
}

TEST(WorkerPool, ChunkCountGrid) {
  EXPECT_EQ(chunk_count(0, 64), 0u);
  EXPECT_EQ(chunk_count(1, 64), 1u);
  EXPECT_EQ(chunk_count(64, 64), 1u);
  EXPECT_EQ(chunk_count(65, 64), 2u);
  EXPECT_EQ(chunk_count(4001, 64), 63u);
  EXPECT_EQ(chunk_count(10, 0), 10u);  // zero grain clamps to 1
}

}  // namespace
}  // namespace photon
