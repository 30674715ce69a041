#include "par/hybrid.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <span>

#include "engine/governor.hpp"
#include "engine/pool.hpp"
#include "engine/sink.hpp"
#include "engine/wire.hpp"
#include "mp/minimpi.hpp"
#include "par/gather.hpp"
#include "sim/emitter.hpp"

namespace photon {

namespace {

// Message channels: records ride the overlapped tag, the end-of-run tree
// gather its own so gather waits stay out of the record-path overlap
// telemetry.
constexpr int kTagRecords = 0;
constexpr int kTagGather = 1;

// Start of part `i` when `n` items are split into `parts` contiguous slices
// (floor partition: slice i is [begin(i), begin(i+1)), sizes differ by at
// most one, concatenation covers [0, n) in order).
std::uint64_t slice_begin(std::uint64_t n, int parts, int i) {
  return n * static_cast<std::uint64_t>(i) / static_cast<std::uint64_t>(parts);
}

// Chunk-private record buffer: traced records accumulate in trace order and
// are read in ascending chunk order, so a group's window records reassemble
// in ascending photon-id order no matter which worker claimed (or stole)
// which chunk.
class BufferSink final : public BinSink {
 public:
  explicit BufferSink(std::vector<BounceRecord>& out) : out_(&out) {}
  void record(const BounceRecord& rec) override { out_->push_back(rec); }

 private:
  std::vector<BounceRecord>* out_;
};

// Ownership is a pure function of (scene, config) — computed once and shared
// (on MPI the G replicated probes run concurrently and cost one probe of wall
// time). One group owns every tree and needs no probe.
LoadBalance balance_for(const Scene& scene, const RunConfig& config, int groups) {
  if (groups == 1) return {std::vector<int>(scene.patch_count(), 0), {}};
  const std::vector<std::uint64_t> loads =
      measure_patch_loads(scene, config.lb_photons, config.seed ^ 0x9E3779B97F4A7C15ULL);
  return config.bestfit ? assign_bestfit(loads, groups) : assign_naive(loads, groups);
}

}  // namespace

RunResult run_hybrid(const Scene& scene, const RunConfig& config, const RunResult* resume,
                     const char* label) {
  const int G = std::max(config.groups, 1);
  const int T = std::max(config.workers, 1);
  const auto parts = static_cast<std::uint32_t>(T);
  const std::uint64_t batch = std::max<std::uint64_t>(config.batch, 1);
  const std::uint64_t chunk_size = std::max<std::uint64_t>(config.chunk, 1);
  // Photon ids continue where the checkpoint stopped: the resumed leg traces
  // the same photons an uninterrupted run would have traced next.
  const std::uint64_t first_photon = resume ? resume->counters.emitted : 0;
  const std::uint64_t last_photon = first_photon + config.photons;
  // One group adopts a resumed forest by copy, emission totals included,
  // under the run's split policy; partitioned groups copy its owned trees
  // into fresh partitions, and the gather adds its emission totals once.
  const bool adopt = resume && G == 1;

  RunResult result;
  result.ranks.resize(static_cast<std::size_t>(G));
  result.balance = balance_for(scene, config, G);
  // Group-major pool telemetry: slot group*T+tid is thread tid of group.
  const auto slots = static_cast<std::size_t>(G) * static_cast<std::size_t>(T);
  result.pool.chunk_size = chunk_size;
  result.pool.worker_photons.assign(slots, 0);
  result.pool.worker_chunks.assign(slots, 0);
  result.pool.worker_steals.assign(slots, 0);
  std::mutex result_mutex;  // harness-side collection only
  const LoadBalance& balance = result.balance;

  // Fault plan and deadline/heartbeat policy ride in from the config; the
  // defaults are a no-fault, block-forever world (mp/fault.hpp).
  WorldOptions world_options;
  world_options.plan = config.fault_plan.get();
  world_options.policy = config.comm;

  run_world(G, world_options, [&](Comm& comm) {
    const int rank = comm.rank();
    SpeedSampler sampler(rank == 0 ? config.trace_path : std::string(), first_photon);

    BinForest forest =
        adopt ? resume->forest : BinForest(scene.patch_count(), config.policy);
    if (adopt) forest.set_policy(config.policy);
    if (resume && !adopt) forest.copy_owned_trees(resume->forest, balance.owner, rank);
    const Emitter emitter(scene);
    forest.set_total_power(emitter.total_power());
    const Tracer tracer(scene, config.limits);

    RankReport report;
    WireBuffer wire(G);
    OrderedRouterSink sink(forest, balance.owner, rank, wire);

    std::unique_ptr<WorkerPool> private_pool;
    if (G > 1) private_pool = std::make_unique<WorkerPool>(T - 1);
    WorkerPool& pool = private_pool ? *private_pool : WorkerPool::instance();

    // Per-worker hot counters in cache-line-padded slots (workers bump only
    // their own line); per-chunk record buffers are emptied every window.
    std::vector<std::vector<BounceRecord>> buffers;
    std::vector<CachePadded<TraceCounters>> counters(static_cast<std::size_t>(T));
    std::vector<CachePadded<ChannelCounts>> emitted(static_cast<std::size_t>(T));
    PoolTelemetry pool_stats;
    pool_stats.worker_chunks.assign(static_cast<std::size_t>(T), 0);
    pool_stats.worker_steals.assign(static_cast<std::size_t>(T), 0);

    // The drain: T parts on the pool, part k applying the window's records of
    // patches with patch % T == k. Trees are independent, so the parts need
    // no lock; interleaving patch ids spreads the luminaires (consecutive
    // ids carrying every emission record) across the parts. The parts are
    // not the trace's chunk grid, so they stay out of the pool telemetry.
    std::vector<std::uint64_t> part_applied(parts, 0);
    const auto apply_window = [&](std::span<const std::vector<BounceRecord>> held,
                                  const std::vector<Bytes>& incoming) {
      pool.run(parts, T, [&](std::uint64_t part, int) {
        part_applied[part] =
            sink.apply_batch(held, incoming, static_cast<std::uint32_t>(part), parts);
      });
      for (const std::uint64_t n : part_applied) report.processed += n;
    };

    BatchController controller(config.batch_policy);
    double prev_agreed = 0.0;
    std::vector<BounceRecord> held_prev;     // window k-1's owned records
    std::optional<PendingExchange> pending;  // window k-1's wire bytes in flight
    RunStatus local_status = RunStatus::kComplete;
    std::uint64_t window_start = first_photon;
    // Window indices label the whole run, not one leg: a resumed leg
    // continues the numbering, so a scripted fault can name a mid-run window
    // regardless of how the elastic runner cut the checkpoint legs.
    std::uint64_t window_index = first_photon / batch;

    while (window_start < last_photon) {
      // Liveness tick (the heartbeat the failure detector reads) and the
      // scripted before-batch kill point. No fault hook touches RNG or
      // record order.
      comm.batch_tick(window_index);
      const std::uint64_t window =
          config.adapt_batch ? static_cast<std::uint64_t>(G) * controller.size() : batch;
      const std::uint64_t n = std::min(window, last_photon - window_start);
      const std::uint64_t window_end = window_start + n;
      // This group's contiguous id slice of the window.
      const std::uint64_t group_lo = window_start + slice_begin(n, G, rank);
      const std::uint64_t group_hi = window_start + slice_begin(n, G, rank + 1);

      const std::uint64_t chunks = chunk_count(group_hi - group_lo, chunk_size);
      if (buffers.size() < chunks) buffers.resize(chunks);

      PoolRunStats stats;
      pool.run(
          chunks, T,
          [&](std::uint64_t c, int slot) {
            const std::uint64_t lo = group_lo + c * chunk_size;
            const std::uint64_t hi = std::min(lo + chunk_size, group_hi);
            BufferSink chunk_sink(buffers[static_cast<std::size_t>(c)]);
            TraceCounters& mine = counters[static_cast<std::size_t>(slot)].value;
            ChannelCounts& mine_emitted = emitted[static_cast<std::size_t>(slot)].value;
            PhotonStreamCursor streams(config.seed, lo);
            for (std::uint64_t id = lo; id < hi; ++id) {
              Lcg48 rng = streams.next();
              const EmissionSample emission = emitter.emit(rng);
              ++mine_emitted[static_cast<std::size_t>(emission.channel)];
              tracer.trace(emission, rng, chunk_sink, &mine);
            }
          },
          &stats);
      pool_stats.chunks += stats.chunks;
      pool_stats.steals += stats.steals;
      for (std::size_t s = 0; s < stats.worker_chunks.size(); ++s) {
        pool_stats.worker_chunks[s] += stats.worker_chunks[s];
        pool_stats.worker_steals[s] += stats.worker_steals[s];
      }
      report.traced += group_hi - group_lo;
      report.batch_sizes.push_back((n + static_cast<std::uint64_t>(G) - 1) /
                                   static_cast<std::uint64_t>(G));

      if (G == 1) {
        // Nothing to route and no exchange to overlap: apply the window now,
        // straight from the chunk buffers.
        apply_window({buffers.data(), static_cast<std::size_t>(chunks)}, {});
      } else {
        // Route in ascending chunk order — owned records into the held
        // slice, foreign ones straight into the wire bytes. Window k-1
        // drained while this window traced; apply it, then post this one.
        for (std::uint64_t c = 0; c < chunks; ++c) {
          for (const BounceRecord& rec : buffers[static_cast<std::size_t>(c)]) sink.record(rec);
        }
        if (pending) apply_window({&held_prev, 1}, pending->finish());
        held_prev = sink.take_held();
        pending.emplace(comm.alltoall_start(wire.take(), kTagRecords));
      }
      for (std::uint64_t c = 0; c < chunks; ++c) buffers[static_cast<std::size_t>(c)].clear();
      // Mid-exchange kill point: sends posted, finish outstanding.
      comm.fault_point(FaultPoint::kMidExchange, window_index);
      ++report.rounds;

      // One speed point per window on the agreed clock; the controller reads
      // the same agreed window time on every group, so all agree on the next
      // size.
      const double agreed = comm.allreduce_max(sampler.elapsed());
      if (rank == 0) sampler.sample_at(agreed, window_end - first_photon);
      if (config.adapt_batch) {
        const double window_time = agreed - prev_agreed;
        controller.update(window_time > 0.0 ? static_cast<double>(n) / window_time : 0.0);
      }
      prev_agreed = agreed;

      comm.fault_point(FaultPoint::kAfterBatch, window_index);
      progress_tick(config, label, window_index);
      ++window_index;
      window_start = window_end;

      // Governed stop agreement: one unconditional allreduce of the packed
      // stop word per window — every rank derives the same decision from the
      // same sum and breaks at the same window boundary, so the in-flight
      // exchange drains through the ordinary end-of-loop path below.
      // Unconditional because MiniMPI collectives pair anonymously: a rank
      // skipping it would mispair another rank's barrier. The forest
      // footprint walks every tree, so it is read only under a budget.
      if (config.governed) {
        const std::uint64_t footprint = config.memory_budget != 0 ? forest.memory_bytes() : 0;
        const std::uint64_t sum = comm.allreduce_sum_u64(
            encode_stop_word(preempt_requested(config), footprint));
        if (stop_word_preempted(sum)) {
          acknowledge_preempt(config);  // idempotent across ranks
          local_status = RunStatus::kPreempted;
          break;
        }
        if (stop_word_over_budget(sum, config.memory_budget)) {
          local_status = RunStatus::kOverBudget;
          break;
        }
      }
    }
    // One more liveness tick so the gather below is not instantly stale to
    // a peer's failure detector.
    comm.heartbeat(window_index + 1);

    // Every rank ran the same window count, so the final drain matches the
    // pending sends exactly.
    if (pending) apply_window({&held_prev, 1}, pending->finish());

    // Fold per-thread state, then gather: owned trees to rank 0 as binary
    // frames, emission totals via allreduce (par/gather.hpp).
    ChannelCounts rank_emitted{};
    for (int tid = 0; tid < T; ++tid) {
      const auto ti = static_cast<std::size_t>(tid);
      report.counters += counters[ti].value;
      for (int c = 0; c < kNumChannels; ++c) {
        rank_emitted[static_cast<std::size_t>(c)] +=
            emitted[ti].value[static_cast<std::size_t>(c)];
      }
    }
    gather_partitioned_forest(comm, forest, balance.owner, rank_emitted,
                              resume && !adopt ? &resume->forest : nullptr, kTagGather);

    report.sent_bytes = comm.bytes_sent();
    report.sent_messages = comm.messages_sent();
    report.deadline_retries = comm.deadline_retries();
    report.wait_seconds = comm.wait_seconds(kTagRecords);

    {
      std::lock_guard<std::mutex> lock(result_mutex);
      result.pool.chunks += pool_stats.chunks;
      result.pool.steals += pool_stats.steals;
      for (int tid = 0; tid < T; ++tid) {
        const auto slot = static_cast<std::size_t>(rank) * T + static_cast<std::size_t>(tid);
        const auto ti = static_cast<std::size_t>(tid);
        result.pool.worker_photons[slot] = counters[ti].value.emitted;
        result.pool.worker_chunks[slot] = pool_stats.worker_chunks[ti];
        result.pool.worker_steals[slot] = pool_stats.worker_steals[ti];
      }
      result.ranks[static_cast<std::size_t>(rank)] = std::move(report);
      if (rank == 0) {
        result.forest = std::move(forest);
        result.trace = sampler.finish(window_start - first_photon);
        result.status = local_status;  // identical on every rank (same sum)
      }
    }
  });

  for (const RankReport& report : result.ranks) result.counters += report.counters;
  if (resume) result.counters += resume->counters;
  return result;
}

}  // namespace photon
