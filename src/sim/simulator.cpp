#include "sim/simulator.hpp"

#include "engine/governor.hpp"
#include "sim/emitter.hpp"

namespace photon {

RunResult run_serial(const Scene& scene, const RunConfig& config,
                     const RunResult* resume_from) {
  RunResult result;
  const std::uint64_t first_photon = resume_from ? resume_from->counters.emitted : 0;
  if (resume_from) {
    result.forest = resume_from->forest;
    result.forest.set_policy(config.policy);
    result.counters = resume_from->counters;
  } else {
    result.forest = BinForest(scene.patch_count(), config.policy);
  }

  const Emitter emitter(scene);
  result.forest.set_total_power(emitter.total_power());
  const Tracer tracer(scene, config.limits);
  ForestSink sink(result.forest);

  SpeedSampler sampler(config.trace_path, first_photon);
  PhotonStreamCursor streams(config.seed, first_photon);
  BatchController controller(config.batch_policy);
  std::uint64_t done = 0;
  double prev_t = 0.0;
  while (done < config.photons) {
    std::uint64_t batch = config.adapt_batch ? controller.size() : config.batch;
    if (batch > config.photons - done) batch = config.photons - done;
    if (batch == 0) batch = 1;
    for (std::uint64_t i = 0; i < batch; ++i) {
      Lcg48 rng = streams.next();
      const EmissionSample emission = emitter.emit(rng);
      result.forest.add_emitted(emission.channel);
      tracer.trace(emission, rng, sink, &result.counters);
    }
    done += batch;

    const double t = sampler.elapsed();
    sampler.sample_at(t, done);
    sampler.sample_memory(done, result.forest.memory_bytes());
    if (config.adapt_batch) {
      const double batch_time = t - prev_t;
      controller.update(batch_time > 0.0 ? static_cast<double>(batch) / batch_time : 0.0);
    }
    prev_t = t;
    progress_tick(config, "serial", done);
    if (config.governed) {
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

  result.trace = sampler.finish(done);
  result.memory = sampler.take_memory();
  if (config.adapt_batch) {
    // Surface the controller's size sequence (the Table 5.3 telemetry) the
    // same way the distributed backends do, as rank 0's report.
    result.ranks.resize(1);
    result.ranks[0].traced = done;
    result.ranks[0].batch_sizes = controller.history();
  }
  return result;
}

}  // namespace photon
