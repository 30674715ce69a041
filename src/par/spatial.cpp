#include "par/spatial.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <mutex>
#include <numeric>
#include <optional>

#include "engine/governor.hpp"
#include "engine/wire.hpp"
#include "mp/minimpi.hpp"
#include "par/gather.hpp"
#include "sim/emitter.hpp"

namespace photon {

namespace {

// Message channels of the spatial exchange: photon migration is synchronous
// (next round's tracing depends on it); record tallies ride one round behind
// on their own tag so they drain while the next round traces; the tree
// gather gets a third tag so its recv waits stay out of the record-path
// overlap telemetry.
constexpr int kTagPhotons = 0;
constexpr int kTagRecords = 1;
constexpr int kTagGather = 2;

}  // namespace

std::vector<Aabb> partition_space(const Scene& scene, int nranks) {
  const Aabb root = scene.bounds().padded(1e-5 * (1.0 + scene.bounds().extent().length()));
  std::vector<Vec3> centroids;
  centroids.reserve(scene.patch_count());
  for (const Patch& p : scene.patches()) centroids.push_back(p.point_at(0.5, 0.5));

  // Recursive bisection: split the box with the most patches along its
  // longest axis at the median centroid until we have nranks boxes.
  struct Cell {
    Aabb box;
    std::vector<Vec3> pts;
  };
  std::vector<Cell> cells{{root, centroids}};
  while (static_cast<int>(cells.size()) < nranks) {
    // Split the most populated cell.
    std::size_t victim = 0;
    for (std::size_t i = 1; i < cells.size(); ++i) {
      if (cells[i].pts.size() > cells[victim].pts.size()) victim = i;
    }
    Cell cell = std::move(cells[victim]);
    const Vec3 e = cell.box.extent();
    const int axis = e.x >= e.y ? (e.x >= e.z ? 0 : 2) : (e.y >= e.z ? 1 : 2);
    double split;
    if (cell.pts.empty()) {
      split = 0.5 * (cell.box.lo[axis] + cell.box.hi[axis]);
    } else {
      std::vector<double> coords;
      coords.reserve(cell.pts.size());
      for (const Vec3& p : cell.pts) coords.push_back(p[axis]);
      std::nth_element(coords.begin(), coords.begin() + static_cast<std::ptrdiff_t>(coords.size() / 2), coords.end());
      split = coords[coords.size() / 2];
      // Guard against degenerate splits at the box face.
      const double lo = cell.box.lo[axis], hi = cell.box.hi[axis];
      if (split <= lo || split >= hi) split = 0.5 * (lo + hi);
    }
    Cell a, b;
    a.box = cell.box;
    b.box = cell.box;
    if (axis == 0) {
      a.box.hi.x = split;
      b.box.lo.x = split;
    } else if (axis == 1) {
      a.box.hi.y = split;
      b.box.lo.y = split;
    } else {
      a.box.hi.z = split;
      b.box.lo.z = split;
    }
    for (const Vec3& p : cell.pts) {
      (p[axis] < split ? a.pts : b.pts).push_back(p);
    }
    cells[victim] = std::move(a);
    cells.push_back(std::move(b));
  }

  std::vector<Aabb> regions;
  regions.reserve(cells.size());
  for (const Cell& c : cells) regions.push_back(c.box);
  return regions;
}

int region_of(const std::vector<Aabb>& regions, const Vec3& p) {
  // Half-open test against shared faces: a point on a face belongs to the
  // region whose *low* face it is, except on the outer boundary.
  int fallback = -1;
  for (std::size_t i = 0; i < regions.size(); ++i) {
    const Aabb& b = regions[i];
    if (!b.contains(p)) continue;
    if (fallback < 0) fallback = static_cast<int>(i);
    const bool interior_hi =
        (p.x < b.hi.x) && (p.y < b.hi.y) && (p.z < b.hi.z);
    if (interior_hi) return static_cast<int>(i);
  }
  return fallback;
}

namespace {

// The region that holds `ray` just past t_min: the one containing the point
// `step` further on, or, when that point resolves to `self` or to no region
// (a face, edge or corner under rounding), the region whose stretch of the
// ray beyond t_min begins first. -1 once the ray has left every region.
int next_region(const std::vector<Aabb>& regions, int self, const Ray& ray, double t_min,
                double step) {
  const int ahead = region_of(regions, ray.at(t_min + step));
  if (ahead >= 0 && ahead != self) return ahead;
  int best = -1;
  double best_enter = kNoHit;
  for (std::size_t r = 0; r < regions.size(); ++r) {
    double enter = 0.0, exit = 0.0;
    if (!regions[r].hit(ray, kNoHit, enter, exit) || exit <= t_min) continue;
    if (enter < best_enter) {
      best = static_cast<int>(r);
      best_enter = enter;
    }
  }
  return best;
}

// Keys each record with the photon and path index being traced and routes
// it: foreign records serialize straight into the outgoing wire bytes, and
// the records of trees this rank owns, traced here or received, wait in
// buckets by the round their photon was emitted in (bucket b holds photons
// [first + b*span, first + (b+1)*span)). A bucket applies once every photon
// in it has finished, sorted by key in O(n + span): a counting pass groups
// each photon's records in id order, and an insertion pass orders a
// photon's few records by index. Every tree so sees its records in
// (photon id, index) order, the order the serial run tallies in.
class OrderedRouter final : public BinSink {
 public:
  OrderedRouter(const std::vector<int>& owner, int rank, WireBuffer& wire,
                std::uint64_t first_photon, std::uint64_t last_photon, std::uint64_t span)
      : owner_(&owner), rank_(rank), wire_(&wire), first_(first_photon), last_(last_photon),
        span_(span) {}

  void key(std::uint64_t photon, int index) {
    photon_ = photon;
    index_ = index;
  }

  void record(const BounceRecord& rec) override {
    const KeyedRecord keyed = make_keyed_record(photon_, index_, rec);
    const int owner = (*owner_)[static_cast<std::size_t>(rec.patch)];
    if (owner == rank_) {
      hold(keyed);
    } else {
      wire_->append(owner, keyed);
    }
  }

  void hold(const KeyedRecord& keyed) {
    const std::uint64_t b = (keyed.photon - first_) / span_ - applied_;
    if (b >= buckets_.size()) buckets_.resize(static_cast<std::size_t>(b) + 1);
    buckets_[static_cast<std::size_t>(b)].push_back(keyed);
  }

  // Applies, in order, every bucket whose photons all lie below `watermark`;
  // returns the records applied.
  std::uint64_t apply_below(std::uint64_t watermark, BinForest& forest) {
    std::uint64_t applied = 0;
    while (!buckets_.empty() && std::min(first_ + (applied_ + 1) * span_, last_) <= watermark) {
      const std::vector<KeyedRecord>& bucket = buckets_.front();
      const std::uint64_t base = first_ + applied_ * span_;
      starts_.assign(static_cast<std::size_t>(std::min(span_, last_ - base)) + 1, 0);
      for (const KeyedRecord& keyed : bucket) ++starts_[keyed.photon - base + 1];
      std::partial_sum(starts_.begin(), starts_.end(), starts_.begin());
      sorted_.resize(bucket.size());
      for (const KeyedRecord& keyed : bucket) sorted_[starts_[keyed.photon - base]++] = keyed;
      for (std::size_t i = 1; i < sorted_.size(); ++i) {
        for (std::size_t j = i; j > 0 && sorted_[j] < sorted_[j - 1]; --j) {
          std::swap(sorted_[j], sorted_[j - 1]);
        }
      }
      for (const KeyedRecord& keyed : sorted_) {
        const BounceRecord rec = from_wire(keyed.rec);
        forest.record(rec.patch, rec.front, rec.coords, rec.channel);
      }
      applied += bucket.size();
      buckets_.pop_front();
      ++applied_;
    }
    return applied;
  }

 private:
  const std::vector<int>* owner_;
  int rank_;
  WireBuffer* wire_;
  std::uint64_t first_, last_, span_;
  std::uint64_t photon_ = 0;
  int index_ = 0;
  std::uint64_t applied_ = 0;  // buckets applied so far
  std::deque<std::vector<KeyedRecord>> buckets_;
  std::vector<std::uint32_t> starts_;  // counting-sort scratch, reused
  std::vector<KeyedRecord> sorted_;
};

}  // namespace

RunResult run_spatial(const Scene& scene, const RunConfig& config, const RunResult* resume) {
  const int nranks = std::max(config.workers, 1);
  // Photon ids continue where the checkpoint stopped: ids index disjoint RNG
  // blocks, so the resumed leg is the exact continuation of the same global
  // photon sequence.
  const std::uint64_t first_photon = resume ? resume->counters.emitted : 0;
  const std::uint64_t last_photon = first_photon + config.photons;
  RunResult result;
  result.regions = partition_space(scene, nranks);
  result.ranks.resize(static_cast<std::size_t>(nranks));
  std::mutex result_mutex;
  const std::vector<Aabb>& regions = result.regions;
  const double epsilon = surface_epsilon(scene.bounds());

  // Fault plan and deadline/heartbeat policy ride in from the config; the
  // defaults are a no-fault, block-forever world (mp/fault.hpp).
  WorldOptions world_options;
  world_options.plan = config.fault_plan.get();
  world_options.policy = config.comm;

  run_world(nranks, world_options, [&](Comm& comm) {
    const int rank = comm.rank();
    const int P = comm.size();
    SpeedSampler sampler(rank == 0 ? config.trace_path : std::string(), first_photon);
    const Aabb& my_region = regions[static_cast<std::size_t>(rank)];

    // Local geometry: the patches within a surface nudge of this region. A
    // hit that rounding puts a hair past a face is then in the index of
    // every region that can be asked for it, so the closest local hit within
    // this region's stretch of a ray is the scene's closest hit.
    const Aabb reach = my_region.padded(epsilon);
    std::vector<Patch> local_patches;
    std::vector<std::int32_t> local_to_global;
    for (std::size_t i = 0; i < scene.patch_count(); ++i) {
      if (reach.overlaps(scene.patch(static_cast<int>(i)).bounds())) {
        local_patches.push_back(scene.patch(static_cast<int>(i)));
        local_to_global.push_back(static_cast<std::int32_t>(i));
      }
    }
    // The local index is the scene's structure; every structure is
    // bitwise-equivalent to the brute scan.
    const std::unique_ptr<AccelStructure> local_tree = make_accel(scene.accel_kind());
    local_tree->build(local_patches);
    progress_tick(config, "accel-build", local_patches.size());

    // Tree ownership by patch centroid region.
    std::vector<int> tree_owner(scene.patch_count());
    for (std::size_t i = 0; i < scene.patch_count(); ++i) {
      tree_owner[i] = region_of(regions, scene.patch(static_cast<int>(i)).point_at(0.5, 0.5));
    }

    BinForest forest(scene.patch_count(), config.policy);
    const Emitter emitter(scene);
    forest.set_total_power(emitter.total_power());
    if (resume) {
      // This rank's partition starts from the checkpoint's owned trees.
      forest.copy_owned_trees(resume->forest, tree_owner, rank);
    }
    const Tracer tracer(scene, config.limits);

    RankReport report;
    report.local_patches = local_patches.size();
    report.local_nodes = local_tree->node_count();

    TraceCounters counters;
    ChannelCounts emitted{};
    std::vector<PhotonFlight> inbox;
    std::uint64_t next_emission = first_photon + static_cast<std::uint64_t>(rank);
    PhotonStreamCursor streams(config.seed, next_emission, static_cast<std::uint64_t>(P));
    std::uint64_t global_injected = 0;  // rank 0's running emission total

    // Foreign records serialize straight into the outgoing bytes and ride one
    // round behind the photon migration on their own tag (take() surrenders
    // each round's bytes to the exchange and leaves the buffer refillable).
    WireBuffer record_wire(P);
    OrderedRouter sink(tree_owner, rank, record_wire, first_photon, last_photon,
                       std::max<std::uint64_t>(config.batch, 1) * static_cast<std::uint64_t>(P));
    WireBuffer photon_wire(P);
    std::optional<PendingExchange> pending_records;
    // Every photon below the watermark has finished on every rank.
    std::uint64_t watermark = first_photon;
    // Governed stop: once voted, every rank stops injecting fresh emissions
    // on the same round and the loop runs on until the in-flight photons
    // drain — the emitted id set stays the contiguous prefix the lockstep
    // striping guarantees, so the partial result resumes exactly like a
    // count-bounded one.
    bool stopping = false;
    RunStatus local_status = RunStatus::kComplete;

    const auto drain_records = [&](PendingExchange& exchange) {
      const std::vector<Bytes> in_records = exchange.finish();
      for (int s = 0; s < P; ++s) {
        if (s == rank) continue;
        for_each_wire<KeyedRecord>(in_records[static_cast<std::size_t>(s)],
                                   [&](const KeyedRecord& k) { sink.hold(k); });
      }
    };

    // Hands `flight` to the region holding its ray past t_min. True when
    // that is this region; otherwise the photon is sent on or, past the last
    // region, has escaped.
    const double step = 0.5 * epsilon;
    const auto stays_here = [&](const PhotonFlight& flight) {
      const int next = next_region(regions, rank, Ray(flight.path.origin, flight.path.dir),
                                   flight.t_min, step);
      if (next == rank) return true;
      if (next < 0) {
        ++counters.escaped;
      } else {
        photon_wire.append(next, flight);
        ++report.photons_out;
      }
      return false;
    };

    // Traces `flight`, whose ray this region holds from flight.t_min, until
    // it is absorbed, terminated or gone. A hit counts only at or before the
    // region's exit; otherwise no region along the ray so far holds a hit and
    // the photon moves on with t_min at the exit, its ray unchanged. The
    // bounce itself is the serial tracer's.
    const auto trace_here = [&](PhotonFlight flight) {
      for (;;) {
        if (flight.path.bounces >= config.limits.max_bounces) {
          ++counters.terminated;
          return;
        }
        const Ray ray(flight.path.origin, flight.path.dir);
        double enter = 0.0, exit = flight.t_min;
        SceneHit hit;
        if (my_region.hit(ray, kNoHit, enter, exit) &&
            local_tree->intersect(ray, std::nextafter(exit, kNoHit), hit)) {
          hit.patch = local_to_global[static_cast<std::size_t>(hit.patch)];
          sink.key(flight.photon, flight.path.bounces + 1);
          if (!tracer.scatter(hit, flight.path, flight.rng, sink, &counters)) return;
          flight.t_min = 0.0;
          if (my_region.contains(flight.path.origin)) continue;
        } else {
          flight.t_min = std::max(flight.t_min, exit);
        }
        if (!stays_here(flight)) return;
      }
    };

    // Round indices label the whole run, not one leg (emission rounds inject
    // batch photons per rank), so a scripted fault can name a mid-run round
    // regardless of checkpoint legs.
    std::uint64_t round_index =
        first_photon /
        (std::max<std::uint64_t>(config.batch, 1) * static_cast<std::uint64_t>(P));
    while (true) {
      // Liveness tick (the heartbeat the failure detector reads) and the
      // scripted before-batch kill point.
      comm.batch_tick(round_index);

      // Inject a batch of fresh emissions (ids striped by rank so the union
      // over ranks is exactly [first_photon, last_photon)). The emission
      // point may lie in another region; its first ray is placed like any.
      std::uint64_t injected = 0;
      while (!stopping && injected < config.batch && next_emission < last_photon) {
        PhotonFlight flight;
        flight.rng = streams.next();
        flight.photon = next_emission;
        const EmissionSample emission = emitter.emit(flight.rng);
        ++emitted[static_cast<std::size_t>(emission.channel)];
        sink.key(flight.photon, 0);
        flight.path = tracer.begin(emission, sink, &counters);
        if (my_region.contains(flight.path.origin) || stays_here(flight)) {
          trace_here(std::move(flight));
        }
        next_emission += static_cast<std::uint64_t>(P);
        ++injected;
      }

      // Work the photons received last round (their senders placed them here).
      for (PhotonFlight& flight : inbox) trace_here(std::move(flight));
      inbox.clear();

      // Photon migration is synchronous: next round's tracing needs it.
      const std::vector<Bytes> in_photons =
          comm.alltoall(photon_wire.take(), kTagPhotons);
      for (int s = 0; s < P; ++s) {
        for_each_wire<PhotonFlight>(in_photons[static_cast<std::size_t>(s)],
                                    [&](const PhotonFlight& flight) {
                                      inbox.push_back(flight);
                                      ++report.photons_in;
                                    });
      }

      // Records overlap one full round: the batch posted last round drained
      // while this round traced; post this round's batch.
      if (pending_records) drain_records(*pending_records);
      pending_records.emplace(comm.alltoall_start(record_wire.take(), kTagRecords));
      // Mid-exchange kill point: record sends posted, finish outstanding.
      comm.fault_point(FaultPoint::kMidExchange, round_index);
      ++report.rounds;

      // The watermark: the lowest id in flight or not yet emitted (emissions
      // abandoned to a governed stop never come), agreed by every rank. It
      // reaching last_photon ends the loop on the same round everywhere.
      std::uint64_t lowest = !stopping && next_emission < last_photon ? next_emission : last_photon;
      for (const PhotonFlight& flight : inbox) lowest = std::min(lowest, flight.photon);
      const std::uint64_t finished = watermark;
      watermark = comm.allreduce_min_u64(lowest);
      // Governed stop agreement: one more unconditional allreduce per round
      // (collectives pair anonymously, so every rank must run it) — all
      // ranks flip `stopping` on the same round. The forest footprint walks
      // every tree, so it is read only under a budget.
      if (config.governed && !stopping) {
        const std::uint64_t footprint = config.memory_budget != 0 ? forest.memory_bytes() : 0;
        const std::uint64_t sum = comm.allreduce_sum_u64(
            encode_stop_word(preempt_requested(config), footprint));
        if (stop_word_preempted(sum)) {
          acknowledge_preempt(config);  // idempotent across ranks
          stopping = true;
          local_status = RunStatus::kPreempted;
        } else if (stop_word_over_budget(sum, config.memory_budget)) {
          stopping = true;
          local_status = RunStatus::kOverBudget;
        }
      } else if (config.governed) {
        // Keep the collective schedule identical on every rank while the
        // in-flight photons drain.
        comm.allreduce_sum_u64(0);
      }
      // One speed point per exchange round. Injection runs in lockstep (every
      // rank drains its id stripe at `batch` per round), so rank 0 derives
      // the global emission count locally instead of paying an extra
      // collective; the sampler time is rank-0 local for the same reason.
      if (rank == 0) {
        global_injected =
            std::min(global_injected + config.batch * static_cast<std::uint64_t>(P),
                     config.photons);
        sampler.sample(global_injected);
      }
      // Every record of a photon below last round's watermark arrived in the
      // drain above. Applying them after the collectives lets a busy owner's
      // apply overlap the other ranks' next round of tracing.
      report.tallies += sink.apply_below(finished, forest);
      comm.fault_point(FaultPoint::kAfterBatch, round_index);
      progress_tick(config, "dist-spatial", round_index);
      ++round_index;
      if (watermark == last_photon) break;
    }
    // One more liveness tick so the gather below is not instantly stale to
    // a peer's failure detector.
    comm.heartbeat(round_index + 1);

    // The last round's records are still in flight; every rank left the loop
    // on the same round, so the drain matches the pending sends exactly, and
    // every photon has finished.
    if (pending_records) drain_records(*pending_records);
    report.tallies += sink.apply_below(last_photon, forest);

    // Gather owned trees and totals on rank 0 (binary frames; par/gather.hpp,
    // shared with the other partitioned-forest backends).
    const ChannelCounts total_emitted = gather_partitioned_forest(
        comm, forest, tree_owner, emitted, resume ? &resume->forest : nullptr, kTagGather);

    report.sent_bytes = comm.bytes_sent();
    report.sent_messages = comm.messages_sent();
    report.deadline_retries = comm.deadline_retries();
    // Record-exchange waits only (the overlap metric): photon migration is
    // synchronous by design and the gather rides its own tag.
    report.wait_seconds = comm.wait_seconds(kTagRecords);

    {
      std::lock_guard<std::mutex> lock(result_mutex);
      result.ranks[static_cast<std::size_t>(rank)] = std::move(report);
      result.counters += counters;
      if (rank == 0) {
        result.forest = std::move(forest);
        std::uint64_t total = 0;
        for (int c = 0; c < kNumChannels; ++c) {
          total += total_emitted[static_cast<std::size_t>(c)];
        }
        result.trace = sampler.finish(total);
        result.status = local_status;  // identical on every rank (same sum)
      }
    }
  });

  if (resume) result.counters += resume->counters;
  return result;
}

}  // namespace photon
