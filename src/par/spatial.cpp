#include "par/spatial.hpp"

#include <algorithm>
#include <mutex>
#include <optional>

#include "core/onb.hpp"
#include "engine/governor.hpp"
#include "engine/sink.hpp"
#include "engine/wire.hpp"
#include "material/brdf.hpp"
#include "mp/minimpi.hpp"
#include "par/gather.hpp"
#include "sim/emitter.hpp"

namespace photon {

namespace {

enum class SegmentEnd { kAbsorbed, kEscaped, kExitedRegion, kTerminated };

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

// Traces `flight` inside `region` against the local octree until it is
// absorbed, escapes the scene, exits the region, or trips the bounce guard.
// Bounce records go straight into `sink` (a RouterSink: owned tallies apply
// immediately, foreign ones serialize into the outgoing wire bytes).
// `epsilon` is the tracer's scene-scaled surface nudge: paths must match the
// full-octree reference bit for bit.
SegmentEnd trace_segment(const Scene& scene, const AccelStructure& local_tree,
                         const std::vector<std::int32_t>& local_to_global, const Aabb& region,
                         const Aabb& root, const TraceLimits& limits, double epsilon,
                         PhotonFlight& flight, BinSink& sink, TraceCounters& counters) {
  while (true) {
    if (flight.bounces >= limits.max_bounces) {
      ++counters.terminated;
      return SegmentEnd::kTerminated;
    }
    const Ray ray(flight.pos, flight.dir);
    double t_enter = 0.0, t_exit = kNoHit;
    if (!region.hit(ray, kNoHit, t_enter, t_exit)) {
      // Numerical corner: the photon sits on the region face pointing out.
      t_exit = 0.0;
    }

    SceneHit hit;
    const bool have_hit = local_tree.intersect(ray, kNoHit, hit);
    // A hit beyond the region exit belongs to some other rank's region (it
    // may not even be the globally closest hit — a closer patch may exist in
    // the neighbouring region's octree). The tolerance is a fraction of the
    // surface nudge so both scale with the scene.
    if (!have_hit || hit.dist > t_exit + 0.01 * epsilon) {
      const Vec3 boundary = ray.at(t_exit + epsilon);
      if (!root.contains(boundary)) {
        ++counters.escaped;
        return SegmentEnd::kEscaped;
      }
      flight.pos = boundary;
      return SegmentEnd::kExitedRegion;
    }

    const int global_patch = local_to_global[static_cast<std::size_t>(hit.patch)];
    const Patch& patch = scene.patch(global_patch);
    const Material& mat = scene.material_of(patch);
    if (!hit.front && !mat.two_sided) {
      ++counters.absorbed;
      return SegmentEnd::kAbsorbed;
    }

    const Vec3 side_normal = hit.front ? patch.normal() : -patch.normal();
    const Onb frame = Onb::from_normal(side_normal);
    const Vec3 wi_local = frame.to_local(flight.dir);
    const ScatterSample scatter =
        sample_scatter(mat, wi_local, flight.channel, flight.pol, flight.rng);
    if (scatter.kind == ScatterKind::kAbsorbed) {
      ++counters.absorbed;
      return SegmentEnd::kAbsorbed;
    }
    flight.channel = scatter.channel;

    BounceRecord rec;
    rec.patch = global_patch;
    rec.front = hit.front;
    rec.coords = BinCoords::from_local_dir(hit.s, hit.t, scatter.dir);
    rec.channel = static_cast<std::uint8_t>(flight.channel);
    sink.record(rec);
    ++counters.bounces;
    ++flight.bounces;

    const Vec3 hit_point = ray.at(hit.dist);
    flight.dir = frame.to_world(scatter.dir).normalized();
    flight.pos = hit_point + side_normal * epsilon;
  }
}

}  // namespace

RunResult run_spatial(const Scene& scene, const RunConfig& config, const RunResult* resume) {
  const int nranks = std::max(config.workers, 1);
  const std::uint64_t resume_emitted = resume ? resume->counters.emitted : 0;
  // Photon ids continue where the checkpoint stopped: ids index disjoint RNG
  // blocks, so the resumed leg is the exact continuation of the same global
  // photon sequence.
  const std::uint64_t first_photon = resume_emitted;
  const std::uint64_t last_photon = resume_emitted + config.photons;
  RunResult result;
  result.regions = partition_space(scene, nranks);
  result.ranks.resize(static_cast<std::size_t>(nranks));
  std::mutex result_mutex;

  const Aabb root = [&] {
    Aabb b;
    for (const Aabb& r : result.regions) b.expand(r);
    return b;
  }();
  const double epsilon = surface_epsilon(scene.bounds());

  // Fault plan and deadline/heartbeat policy ride in from the config; the
  // defaults are a no-fault, block-forever world (mp/fault.hpp).
  WorldOptions world_options;
  world_options.plan = config.fault_plan.get();
  world_options.policy = config.comm;

  run_world(nranks, world_options, [&](Comm& comm) {
    const int rank = comm.rank();
    const int P = comm.size();
    SpeedSampler sampler(rank == 0 ? config.trace_path : std::string(), resume_emitted);
    const Aabb my_region = result.regions[static_cast<std::size_t>(rank)];

    // Local geometry: only the patches overlapping this region get indexed.
    std::vector<Patch> local_patches;
    std::vector<std::int32_t> local_to_global;
    for (std::size_t i = 0; i < scene.patch_count(); ++i) {
      if (my_region.overlaps(scene.patch(static_cast<int>(i)).bounds())) {
        local_patches.push_back(scene.patch(static_cast<int>(i)));
        local_to_global.push_back(static_cast<std::int32_t>(i));
      }
    }
    // The local index honors the run's structure choice (config.accel); every
    // structure is bitwise-equivalent, so region handoffs stay exact.
    const std::unique_ptr<AccelStructure> local_tree = make_accel(config.accel);
    local_tree->build(local_patches);
    progress_tick(config, "accel-build", local_patches.size());

    // Tree ownership by patch centroid region.
    std::vector<int> tree_owner(scene.patch_count());
    for (std::size_t i = 0; i < scene.patch_count(); ++i) {
      tree_owner[i] = region_of(result.regions, scene.patch(static_cast<int>(i)).point_at(0.5, 0.5));
    }

    BinForest forest(scene.patch_count(), config.policy);
    const Emitter emitter(scene);
    forest.set_total_power(emitter.total_power());
    if (resume) {
      // Fold the checkpoint's owned trees into this rank's virgin partition
      // (lossless — virgin trees adopt the checkpoint structure wholesale).
      forest.merge_owned_trees(resume->forest, tree_owner, rank);
    }

    RankReport report;
    report.local_patches = local_patches.size();
    report.octree_nodes = local_tree->node_count();

    TraceCounters counters;
    ChannelCounts emitted{};
    std::vector<PhotonFlight> inbox;
    std::uint64_t next_emission = first_photon + static_cast<std::uint64_t>(rank);
    PhotonStreamCursor streams(config.seed, next_emission, static_cast<std::uint64_t>(P));
    std::uint64_t global_injected = 0;  // rank 0's running emission total

    // Owned records are tallied as they are produced; foreign records
    // serialize straight into the outgoing bytes and ride one round behind
    // the photon migration on their own tag (take() surrenders each round's
    // bytes to the exchange and leaves the buffer refillable).
    WireBuffer record_wire(P);
    RouterSink sink(forest, tree_owner, rank, record_wire, report.tallies);
    WireBuffer photon_wire(P);
    std::optional<PendingExchange> pending_records;
    // Governed stop: once voted, every rank stops injecting fresh emissions
    // on the same round and the loop runs on until the in-flight photons
    // drain (active == 0) — the emitted id set stays the contiguous prefix
    // the lockstep striping guarantees, so the partial result resumes
    // exactly like a count-bounded one.
    bool stopping = false;
    RunStatus local_status = RunStatus::kComplete;

    const auto drain_records = [&](PendingExchange& exchange) {
      const std::vector<Bytes> in_records = exchange.finish();
      for (int s = 0; s < P; ++s) {
        if (s == rank) continue;
        sink.apply_incoming(in_records[static_cast<std::size_t>(s)]);
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
      auto run_flight = [&](PhotonFlight flight) {
        ++report.segments_traced;
        const SegmentEnd end =
            trace_segment(scene, *local_tree, local_to_global, my_region, root,
                          config.limits, epsilon, flight, sink, counters);
        if (end == SegmentEnd::kExitedRegion) {
          const int dest = region_of(result.regions, flight.pos);
          if (dest < 0) {
            ++counters.escaped;
          } else if (dest == rank) {
            // Boundary rounding resolved back to us: nudge forward and retry
            // next round to guarantee progress.
            flight.pos += flight.dir * (10.0 * epsilon);
            const int retry = region_of(result.regions, flight.pos);
            if (retry >= 0 && retry != rank) {
              photon_wire.append(retry, to_wire(flight));
              ++report.photons_out;
            } else {
              ++counters.escaped;
            }
          } else {
            photon_wire.append(dest, to_wire(flight));
            ++report.photons_out;
          }
        }
      };

      // Inject a batch of fresh emissions (ids striped by rank so the union
      // over ranks is exactly [first_photon, last_photon)).
      std::uint64_t injected = 0;
      while (!stopping && injected < config.batch && next_emission < last_photon) {
        PhotonFlight flight;
        flight.rng = streams.next();
        const EmissionSample emission = emitter.emit(flight.rng);
        ++emitted[static_cast<std::size_t>(emission.channel)];
        ++counters.emitted;
        flight.pos = emission.origin;
        flight.dir = emission.dir;
        flight.channel = emission.channel;

        BounceRecord birth;
        birth.patch = emission.patch;
        birth.front = true;
        birth.coords = BinCoords::from_local_dir(emission.s, emission.t, emission.dir_local);
        birth.channel = static_cast<std::uint8_t>(emission.channel);
        sink.record(birth);

        // The emission point may not even be in our region; route it like any
        // in-flight photon.
        const int start_region = region_of(result.regions, flight.pos);
        if (start_region == rank) {
          run_flight(std::move(flight));
        } else if (start_region >= 0) {
          photon_wire.append(start_region, to_wire(flight));
          ++report.photons_out;
        } else {
          ++counters.escaped;
        }
        next_emission += static_cast<std::uint64_t>(P);
        ++injected;
      }

      // Work the photons received last round.
      for (const PhotonFlight& f : inbox) run_flight(f);
      inbox.clear();

      // Photon migration is synchronous: next round's tracing needs it.
      const std::vector<Bytes> in_photons =
          comm.alltoall(photon_wire.take(), kTagPhotons);
      for (int s = 0; s < P; ++s) {
        for_each_wire<FlightWire>(in_photons[static_cast<std::size_t>(s)],
                                  [&](const FlightWire& w) {
                                    inbox.push_back(from_wire(w));
                                    ++report.photons_in;
                                  });
      }

      // Records overlap one full round: the batch posted last round drained
      // while this round traced — tally it now, then post this round's batch.
      if (pending_records) drain_records(*pending_records);
      pending_records.emplace(comm.alltoall_start(record_wire.take(), kTagRecords));
      // Mid-exchange kill point: record sends posted, finish outstanding.
      comm.fault_point(FaultPoint::kMidExchange, round_index);
      ++report.rounds;

      // Terminate when no photons are in flight and all emissions are done
      // (or abandoned to a governed stop).
      const std::uint64_t remaining =
          !stopping && next_emission < last_photon
              ? (last_photon - next_emission + static_cast<std::uint64_t>(P) - 1) /
                    static_cast<std::uint64_t>(P)
              : 0;
      const std::uint64_t active =
          comm.allreduce_sum_u64(static_cast<std::uint64_t>(inbox.size()) + remaining);
      // Governed stop agreement: one more unconditional allreduce per round
      // (collectives pair anonymously, so every rank must run it) — all
      // ranks flip `stopping` on the same round.
      if (config.governed && !stopping) {
        const std::uint64_t sum = comm.allreduce_sum_u64(
            encode_stop_word(preempt_requested(config), forest.memory_bytes()));
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
      comm.fault_point(FaultPoint::kAfterBatch, round_index);
      progress_tick(config, "dist-spatial", round_index);
      ++round_index;
      if (active == 0) break;
    }
    // One more liveness tick so the gather below is not instantly stale to
    // a peer's failure detector.
    comm.heartbeat(round_index + 1);

    // The last round's records are still in flight; every rank left the loop
    // on the same round, so the drain matches the pending sends exactly.
    if (pending_records) drain_records(*pending_records);

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
