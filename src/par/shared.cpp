#include "par/shared.hpp"

#include <algorithm>
#include <vector>

#include "engine/governor.hpp"
#include "engine/pool.hpp"
#include "sim/emitter.hpp"

namespace photon {

namespace {

// Chunk-private record buffer: one per chunk, filled in trace order by
// whichever worker claims the chunk, drained per tree in ascending chunk
// order — which IS ascending photon-id order.
class BufferSink final : public BinSink {
 public:
  explicit BufferSink(std::vector<BounceRecord>& out) : out_(&out) {}
  void record(const BounceRecord& rec) override { out_->push_back(rec); }

 private:
  std::vector<BounceRecord>* out_;
};

}  // namespace

RunResult run_shared(const Scene& scene, const RunConfig& config,
                     const RunResult* resume_from) {
  RunResult result;
  // Photon ids continue where the checkpoint stopped: ids index disjoint RNG
  // blocks (photon_stream), so the resumed leg traces exactly the photons an
  // uninterrupted run would have traced next — a bitwise continuation.
  const std::uint64_t first_photon = resume_from ? resume_from->counters.emitted : 0;
  const std::uint64_t last_photon = first_photon + config.photons;
  if (resume_from) {
    result.forest = resume_from->forest;
    result.counters = resume_from->counters;
  } else {
    result.forest = BinForest(scene.patch_count(), config.policy);
  }

  const Emitter emitter(scene);
  result.forest.set_total_power(emitter.total_power());
  const Tracer tracer(scene, config.limits);

  const int T = std::max(config.workers, 1);
  const std::uint64_t chunk_size = std::max<std::uint64_t>(config.chunk, 1);
  const std::uint64_t window = std::max<std::uint64_t>(config.batch, 1);

  // Per-worker hot counters live in cache-line-padded slots: workers bump
  // only their own line during the trace, and the totals publish once after
  // the run — no cross-thread line bouncing, no shared increments.
  std::vector<CachePadded<TraceCounters>> counters(static_cast<std::size_t>(T));
  std::vector<CachePadded<ChannelCounts>> emitted(static_cast<std::size_t>(T));

  result.pool.chunk_size = chunk_size;
  result.pool.worker_chunks.assign(static_cast<std::size_t>(T), 0);
  result.pool.worker_steals.assign(static_cast<std::size_t>(T), 0);

  WorkerPool& pool = WorkerPool::instance();
  SpeedSampler sampler(config.trace_path, first_photon);

  // Batch windows bound the record-buffer footprint (and give the speed
  // trace one point per window); the drain order makes the forest identical
  // for every window size, so this is memory policy, not semantics.
  std::vector<std::vector<BounceRecord>> chunk_records;
  std::uint64_t window_start = first_photon;
  while (window_start < last_photon) {
    const std::uint64_t window_end = std::min(window_start + window, last_photon);
    const std::uint64_t chunks = chunk_count(window_end - window_start, chunk_size);
    if (chunk_records.size() < chunks) chunk_records.resize(chunks);

    PoolRunStats stats;
    pool.run(
        chunks, T,
        [&](std::uint64_t c, int slot) {
          const std::uint64_t lo = window_start + c * chunk_size;
          const std::uint64_t hi = std::min(lo + chunk_size, window_end);
          BufferSink sink(chunk_records[static_cast<std::size_t>(c)]);
          TraceCounters& mine = counters[static_cast<std::size_t>(slot)].value;
          ChannelCounts& mine_emitted = emitted[static_cast<std::size_t>(slot)].value;
          for (std::uint64_t id = lo; id < hi; ++id) {
            Lcg48 rng = photon_stream(config.seed, id);
            const EmissionSample emission = emitter.emit(rng);
            ++mine_emitted[static_cast<std::size_t>(emission.channel)];
            tracer.trace(emission, rng, sink, &mine);
          }
        },
        &stats);

    // The drain runs on the pool too, as T parts: part k walks the chunks in
    // ascending order — ascending photon-id order — and applies only the
    // records of patches with patch % T == k. Every tree therefore sees
    // exactly the record sequence the serial photon-stream reference feeds
    // it, whichever worker traced or drains what when; trees are
    // independent, so the parts need no lock. Interleaving patch ids (not
    // contiguous id ranges) spreads luminaires, which are consecutive ids
    // and carry every emission record, across the parts. The drain's parts
    // are not the trace's chunk grid, so they stay out of result.pool.
    const auto parts = static_cast<std::uint32_t>(T);
    pool.run(parts, T, [&](std::uint64_t part, int) {
      for (std::uint64_t c = 0; c < chunks; ++c) {
        for (const BounceRecord& rec : chunk_records[static_cast<std::size_t>(c)]) {
          if (static_cast<std::uint32_t>(rec.patch) % parts == part) {
            result.forest.record(rec.patch, rec.front, rec.coords, rec.channel);
          }
        }
      }
    });
    for (std::vector<BounceRecord>& records : chunk_records) records.clear();

    result.pool.chunks += stats.chunks;
    result.pool.steals += stats.steals;
    for (std::size_t s = 0; s < stats.worker_chunks.size(); ++s) {
      result.pool.worker_chunks[s] += stats.worker_chunks[s];
      result.pool.worker_steals[s] += stats.worker_steals[s];
    }

    sampler.sample(window_end - first_photon);
    window_start = window_end;
    progress_tick(config, "shared", window_end);
    if (config.governed) {
      // Stop at the window boundary: every id below window_end is traced and
      // drained, so the partial result is the same window-aligned checkpoint
      // a count-bounded run would have produced.
      if (preempt_requested(config)) {
        acknowledge_preempt(config);
        result.status = RunStatus::kPreempted;
        break;
      }
      if (config.memory_budget != 0 &&
          result.forest.memory_bytes() > config.memory_budget) {
        result.status = RunStatus::kOverBudget;
        break;
      }
    }
  }

  // Finish at the count actually traced: a governed stop ends the leg early,
  // and the terminal trace point must not claim photons never traced.
  result.trace = sampler.finish(window_start - first_photon);

  result.per_thread_traced.assign(static_cast<std::size_t>(T), 0);
  result.pool.worker_photons.assign(static_cast<std::size_t>(T), 0);
  for (int t = 0; t < T; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    result.counters += counters[ti].value;
    result.per_thread_traced[ti] = counters[ti].value.emitted;
    result.pool.worker_photons[ti] = counters[ti].value.emitted;
    for (int c = 0; c < kNumChannels; ++c) {
      result.forest.add_emitted(c, emitted[ti].value[static_cast<std::size_t>(c)]);
    }
  }
  return result;
}

}  // namespace photon
