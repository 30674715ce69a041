// Run governance (engine/governor.hpp + core/error.hpp): graceful
// preemption with bitwise resume on every backend, the distributed stop
// word, the Progress beacon and stuck-run watchdog, the memory-budget
// degradation ladder, scene validation, strict fault-plan parsing, and —
// when PHOTON_CLI_PATH is defined by the build — subprocess tests that
// SIGTERM a real photon_cli run and check the documented exit codes and the
// bitwise-equal resume. CI runs this file under the `governance` ctest
// label, including the ASan+UBSan job.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#ifdef PHOTON_CLI_PATH
#include <csignal>
#include <fstream>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "core/error.hpp"
#include "engine/governor.hpp"
#include "engine/recovery.hpp"
#include "geom/scenes.hpp"
#include "mp/fault.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulator.hpp"

namespace photon {
namespace {

constexpr std::uint64_t kWindow = 200;
constexpr std::uint64_t kPhotons = 1200;

const Scene& small_scene() {
  static const Scene cornell = scenes::cornell_box();
  return cornell;
}

RunConfig gov_config() {
  RunConfig cfg;
  cfg.photons = kPhotons;
  cfg.batch = kWindow;
  cfg.adapt_batch = false;
  cfg.workers = 2;
  cfg.groups = 2;
  return cfg;
}

// Every backend the governance layer must cover.
const std::vector<std::string>& all_backends() {
  static const std::vector<std::string> names = {"serial", "shared", "dist-particle",
                                                 "dist-spatial", "hybrid"};
  return names;
}

void expect_conserved(const RunResult& r, std::uint64_t photons, const std::string& label) {
  EXPECT_GE(r.counters.emitted, photons) << label;
  EXPECT_EQ(r.forest.emitted_total(), r.counters.emitted) << label;
  EXPECT_EQ(r.forest.total_tally_all(), r.counters.emitted + r.counters.bounces) << label;
}

// ---- RunStatus / error taxonomy -------------------------------------------

TEST(ErrorTaxonomy, ExitCodesMatchTheDocumentedTable) {
  EXPECT_EQ(engine_error_exit_code(EngineErrorKind::kCheckpoint), 3);
  EXPECT_EQ(engine_error_exit_code(EngineErrorKind::kComm), 4);
  EXPECT_EQ(engine_error_exit_code(EngineErrorKind::kPreempted), 5);
  EXPECT_EQ(engine_error_exit_code(EngineErrorKind::kWedged), 6);
  EXPECT_EQ(engine_error_exit_code(EngineErrorKind::kConfig), 7);
  EXPECT_EQ(engine_error_exit_code(EngineErrorKind::kScene), 8);
  EXPECT_EQ(engine_error_exit_code(EngineErrorKind::kResource), 9);
}

TEST(ErrorTaxonomy, CodesAreStableSlugs) {
  EXPECT_STREQ(engine_error_code(EngineErrorKind::kConfig), "config");
  EXPECT_STREQ(engine_error_code(EngineErrorKind::kScene), "scene");
  EXPECT_STREQ(engine_error_code(EngineErrorKind::kResource), "resource");
  EXPECT_STREQ(engine_error_code(EngineErrorKind::kComm), "comm");
  EXPECT_STREQ(engine_error_code(EngineErrorKind::kCheckpoint), "checkpoint");
  EXPECT_STREQ(engine_error_code(EngineErrorKind::kPreempted), "preempted");
  EXPECT_STREQ(engine_error_code(EngineErrorKind::kWedged), "wedged");
}

TEST(ErrorTaxonomy, SubclassesCarryKindAndDetail) {
  const SceneError scene("bad patch", 17);
  EXPECT_EQ(scene.engine_kind(), EngineErrorKind::kScene);
  EXPECT_EQ(scene.patch, 17);
  EXPECT_EQ(scene.exit_code(), 8);

  const WedgedError wedged("stuck", "snapshot text");
  EXPECT_EQ(wedged.snapshot, "snapshot text");
  EXPECT_STREQ(wedged.code(), "wedged");

  // CommError joins the hierarchy but keeps its fine-grained kind.
  const CommError comm(CommErrorKind::kWedged, 3, 7, "poisoned");
  EXPECT_EQ(comm.engine_kind(), EngineErrorKind::kComm);
  EXPECT_EQ(comm.kind(), CommErrorKind::kWedged);
  EXPECT_EQ(comm.peer(), 3);
  EXPECT_EQ(comm.exit_code(), 4);
  const EngineError& as_engine = comm;
  EXPECT_STREQ(as_engine.code(), "comm");
}

TEST(ErrorTaxonomy, RunStatusNames) {
  EXPECT_STREQ(run_status_name(RunStatus::kComplete), "complete");
  EXPECT_STREQ(run_status_name(RunStatus::kPreempted), "preempted");
  EXPECT_STREQ(run_status_name(RunStatus::kOverBudget), "over-budget");
}

// ---- The distributed stop word --------------------------------------------

TEST(StopWord, VotesAndFootprintPackWithoutCollision) {
  EXPECT_EQ(encode_stop_word(false, 0), 0u);
  EXPECT_FALSE(stop_word_preempted(0));
  EXPECT_TRUE(stop_word_preempted(encode_stop_word(true, 0)));

  // 4096 ranks all voting still fits the 13 vote bits.
  const std::uint64_t all_votes = 4096 * encode_stop_word(true, 0);
  EXPECT_TRUE(stop_word_preempted(all_votes));
  EXPECT_FALSE(stop_word_over_budget(all_votes, 1));  // votes never read as bytes

  // Footprint travels in 64 KiB units above the vote bits.
  const std::uint64_t one_mib = encode_stop_word(false, 1u << 20);
  EXPECT_FALSE(stop_word_preempted(one_mib));
  EXPECT_TRUE(stop_word_over_budget(one_mib, (1u << 20) - 1));
  EXPECT_FALSE(stop_word_over_budget(one_mib, 1u << 20));  // budget is inclusive
  EXPECT_FALSE(stop_word_over_budget(one_mib, 0));         // 0 = unlimited

  // Sub-unit footprints round UP to one unit: a nonzero forest must be
  // visible to a budget smaller than the 64 KiB granularity, or tiny budgets
  // could never trip.
  EXPECT_EQ(encode_stop_word(false, 0) >> 13, 0u);
  EXPECT_EQ(encode_stop_word(false, 1) >> 13, 1u);
  EXPECT_EQ(encode_stop_word(false, 65536) >> 13, 1u);
  EXPECT_EQ(encode_stop_word(false, 65537) >> 13, 2u);
  EXPECT_TRUE(stop_word_over_budget(encode_stop_word(false, 1), 1));
  EXPECT_TRUE(stop_word_over_budget(encode_stop_word(false, 65536), 65535));
}

TEST(StopWord, FootprintCapsSoTheDoubleSumStaysExact) {
  // MiniMPI's allreduce reduces through double: per-rank units are capped at
  // 2^27 so even a full 4096-rank world of maximal words — including every
  // partial sum of the reduction — stays strictly below 2^53 and sums
  // exactly.
  const std::uint64_t capped = encode_stop_word(true, ~0ull);
  EXPECT_EQ(capped >> 13, 1ull << 27);
  EXPECT_TRUE(stop_word_preempted(capped));  // the cap never clobbers the vote
  EXPECT_LT(4096.0 * static_cast<double>(capped), 9007199254740992.0);  // 2^53
}

// ---- Preempt flag ----------------------------------------------------------

TEST(Preempt, FlagSetsAndClears) {
  clear_preempt();
  EXPECT_FALSE(preempt_requested());
  request_preempt();
  EXPECT_TRUE(preempt_requested());
  clear_preempt();
  EXPECT_FALSE(preempt_requested());
  install_preempt_handlers();  // idempotent; just must not crash
  install_preempt_handlers();
}

// ---- Progress beacon -------------------------------------------------------

TEST(Progress, TicksPulsesAndSnapshots) {
  Progress& p = Progress::instance();
  p.reset();
  EXPECT_EQ(p.total_ticks(), 0u);
  EXPECT_TRUE(std::isinf(p.seconds_since_tick()));

  p.tick("unit-a", 3);
  p.tick("unit-a", 5);
  p.tick("unit-b", 1);
  p.pulse();
  EXPECT_EQ(p.total_ticks(), 4u);
  EXPECT_LT(p.seconds_since_tick(), 5.0);

  const ProgressSnapshot snap = p.snapshot();
  EXPECT_EQ(snap.total_ticks, 4u);
  ASSERT_EQ(snap.slots.size(), 2u);
  const ProgressSlot& a = snap.slots[0].label == "unit-a" ? snap.slots[0] : snap.slots[1];
  EXPECT_EQ(a.ticks, 2u);
  EXPECT_EQ(a.detail, 5u);  // last reported index wins
  EXPECT_NE(snap.to_string().find("unit-a"), std::string::npos);

  p.reset();
  EXPECT_EQ(p.total_ticks(), 0u);
  EXPECT_TRUE(p.snapshot().slots.empty());
}

TEST(Progress, EveryBackendTicksTheBeacon) {
  for (const std::string& name : all_backends()) {
    Progress::instance().reset();
    const auto backend = make_backend(name);
    ASSERT_NE(backend, nullptr) << name;
    (void)backend->run(small_scene(), gov_config(), nullptr);
    EXPECT_GT(Progress::instance().total_ticks(), 0u) << name;
  }
  Progress::instance().reset();
}

// ---- Governed runs: no-op when idle, graceful stop when preempted ----------

TEST(Governance, GovernedFlagAloneChangesNothing) {
  // Governance must be free: same bits with the polling (and, distributed,
  // the per-window stop allreduce) enabled but never triggered.
  for (const std::string& name : all_backends()) {
    const auto backend = make_backend(name);
    RunConfig cfg = gov_config();
    const RunResult plain = backend->run(small_scene(), cfg, nullptr);
    cfg.governed = true;
    clear_preempt();
    const RunResult governed = backend->run(small_scene(), cfg, nullptr);
    EXPECT_EQ(governed.status, RunStatus::kComplete) << name;
    EXPECT_TRUE(governed.forest == plain.forest) << name;
    EXPECT_EQ(governed.counters.bounces, plain.counters.bounces) << name;
  }
}

TEST(Governance, PreemptResumeIsBitwiseOnEveryBackend) {
  // The tentpole acceptance, in-process: preempt at the first window
  // boundary, resume the remainder, and require the stitched run to equal
  // the uninterrupted one bit for bit — every backend at the full test
  // shape (dist-spatial on two regions: its governed stop drains the
  // in-flight photons, so the partial result is a contiguous emitted prefix
  // with every record tallied).
  for (const std::string& name : all_backends()) {
    const auto backend = make_backend(name);
    RunConfig cfg = gov_config();
    cfg.governed = true;
    clear_preempt();
    const RunResult reference = backend->run(small_scene(), cfg, nullptr);

    request_preempt();
    RunResult part = backend->run(small_scene(), cfg, nullptr);
    clear_preempt();
    EXPECT_EQ(part.status, RunStatus::kPreempted) << name;
    ASSERT_GT(part.counters.emitted, 0u) << name;
    ASSERT_LT(part.counters.emitted, kPhotons) << name;
    EXPECT_EQ(part.forest.emitted_total(), part.counters.emitted) << name;
    EXPECT_EQ(part.forest.total_tally_all(), part.counters.emitted + part.counters.bounces)
        << name;

    RunConfig rest = cfg;
    rest.photons = kPhotons - part.counters.emitted;
    const RunResult resumed = backend->run(small_scene(), rest, &part);
    EXPECT_EQ(resumed.status, RunStatus::kComplete) << name;
    EXPECT_TRUE(resumed.forest == reference.forest) << name;
    EXPECT_EQ(resumed.counters.bounces, reference.counters.bounces) << name;
    expect_conserved(resumed, kPhotons, name);
  }
}

TEST(Governance, PreemptedResultRoundTripsThroughACheckpoint) {
  // The partial result is not just resumable in memory: it must survive the
  // checkpoint byte format and resume bitwise from the loaded copy.
  const auto backend = make_backend("serial");
  RunConfig cfg = gov_config();
  cfg.governed = true;
  const RunResult reference = backend->run(small_scene(), cfg, nullptr);

  request_preempt();
  RunResult part = backend->run(small_scene(), cfg, nullptr);
  clear_preempt();
  ASSERT_EQ(part.status, RunStatus::kPreempted);

  const Bytes bytes = encode_checkpoint(part);
  RunResult loaded;
  ASSERT_EQ(decode_checkpoint(bytes.data(), bytes.data() + bytes.size(), loaded),
            CheckpointStatus::kOk);
  EXPECT_EQ(loaded.counters.emitted, part.counters.emitted);

  RunConfig rest = cfg;
  rest.photons = kPhotons - loaded.counters.emitted;
  const RunResult resumed = backend->run(small_scene(), rest, &loaded);
  EXPECT_TRUE(resumed.forest == reference.forest);
}

TEST(Governance, ElasticRunnerStopsLeggingAfterAPreempt) {
  // run_elastic must not start the next leg after a governed stop: the
  // partial state is the caller's checkpoint.
  const auto backend = make_backend("serial");
  RunConfig cfg = gov_config();
  cfg.governed = true;
  cfg.checkpoint_photons = 600;
  request_preempt();
  const RunResult r = run_elastic(*backend, small_scene(), cfg, nullptr);
  clear_preempt();
  EXPECT_EQ(r.status, RunStatus::kPreempted);
  EXPECT_LT(r.counters.emitted, kPhotons);
}

TEST(Governance, RuntimeOverBudgetStopsGracefullyAndResumes) {
  // A 1-byte budget trips the footprint poll at the first window boundary;
  // the stop is resumable and the stitched run stays bitwise.
  const auto backend = make_backend("serial");
  RunConfig cfg = gov_config();
  const RunResult reference = backend->run(small_scene(), cfg, nullptr);

  cfg.governed = true;
  cfg.memory_budget = 1;
  clear_preempt();
  RunResult part = backend->run(small_scene(), cfg, nullptr);
  EXPECT_EQ(part.status, RunStatus::kOverBudget);
  ASSERT_LT(part.counters.emitted, kPhotons);

  RunConfig rest = cfg;
  rest.memory_budget = 0;
  rest.photons = kPhotons - part.counters.emitted;
  const RunResult resumed = backend->run(small_scene(), rest, &part);
  EXPECT_EQ(resumed.status, RunStatus::kComplete);
  EXPECT_TRUE(resumed.forest == reference.forest);
}

TEST(Governance, DistributedOverBudgetStopsEveryRankTogether) {
  for (const std::string& name : {std::string("hybrid"), std::string("dist-particle"),
                                  std::string("dist-spatial")}) {
    const auto backend = make_backend(name);
    RunConfig cfg = gov_config();
    cfg.governed = true;
    cfg.memory_budget = 1;
    clear_preempt();
    const RunResult part = backend->run(small_scene(), cfg, nullptr);
    EXPECT_EQ(part.status, RunStatus::kOverBudget) << name;
    EXPECT_GT(part.counters.emitted, 0u) << name;
    EXPECT_LT(part.counters.emitted, kPhotons) << name;
    // Whatever was emitted before the agreed stop is fully tallied.
    EXPECT_EQ(part.forest.emitted_total(), part.counters.emitted) << name;
    EXPECT_EQ(part.forest.total_tally_all(), part.counters.emitted + part.counters.bounces)
        << name;
  }
}

// ---- Per-run governance scope (RunControl) ---------------------------------

TEST(RunControlScope, BackToBackGovernedRunsDoNotInheritTheVote) {
  // The regression that blocked the service: a preempt vote delivered to run
  // 1 used to stay latched, so run 2 in the same process stopped instantly
  // unless the caller remembered to clear the flag. Committing to
  // kPreempted now CONSUMES the vote — the second run must complete with no
  // manual clear in between, on every backend.
  for (const std::string& name : all_backends()) {
    const auto backend = make_backend(name);
    RunConfig cfg = gov_config();
    cfg.governed = true;
    cfg.control = std::make_shared<RunControl>();

    cfg.control->request_preempt();
    const RunResult first = backend->run(small_scene(), cfg, nullptr);
    EXPECT_EQ(first.status, RunStatus::kPreempted) << name;
    ASSERT_LT(first.counters.emitted, kPhotons) << name;

    const RunResult second = backend->run(small_scene(), cfg, nullptr);
    EXPECT_EQ(second.status, RunStatus::kComplete) << name;
    EXPECT_EQ(second.counters.emitted, kPhotons) << name;
  }
}

TEST(RunControlScope, GlobalVoteIsAlsoConsumedOnPreempt) {
  // Same contract on the process-global path (no control attached): the CLI
  // rerun-after-SIGTERM flow depends on it.
  const auto backend = make_backend("serial");
  RunConfig cfg = gov_config();
  cfg.governed = true;
  request_preempt();
  const RunResult first = backend->run(small_scene(), cfg, nullptr);
  EXPECT_EQ(first.status, RunStatus::kPreempted);
  const RunResult second = backend->run(small_scene(), cfg, nullptr);
  EXPECT_EQ(second.status, RunStatus::kComplete);
  clear_preempt();  // isolation, in case the first assertion failed
}

TEST(RunControlScope, ScopedPreemptNeverTouchesTheGlobalFlagOrASibling) {
  // cancel(id) semantics: preempting one job's control stops that run only —
  // the process flag stays clear and a sibling config is unaffected.
  clear_preempt();
  const auto backend = make_backend("shared");
  RunConfig victim = gov_config();
  victim.governed = true;
  victim.control = std::make_shared<RunControl>();
  RunConfig sibling = gov_config();
  sibling.governed = true;
  sibling.control = std::make_shared<RunControl>();

  victim.control->request_preempt();
  const RunResult stopped = backend->run(small_scene(), victim, nullptr);
  EXPECT_EQ(stopped.status, RunStatus::kPreempted);
  EXPECT_FALSE(preempt_requested()) << "scoped preempt leaked to the process flag";
  EXPECT_FALSE(sibling.control->preempt_requested());

  const RunResult untouched = backend->run(small_scene(), sibling, nullptr);
  EXPECT_EQ(untouched.status, RunStatus::kComplete);
}

TEST(RunControlScope, EachRunTicksItsOwnBeacon) {
  // A scoped run heartbeats its own Progress instance — the watchdog for job
  // A must never be kept alive by job B's ticks. (Scoped ticks also pulse
  // the process beacon so whole-process liveness still works; that is
  // covered by Progress.EveryBackendTicksTheBeacon.)
  RunConfig cfg = gov_config();
  cfg.governed = true;
  cfg.control = std::make_shared<RunControl>();
  const auto idle = std::make_shared<RunControl>();
  const auto backend = make_backend("serial");
  (void)backend->run(small_scene(), cfg, nullptr);
  EXPECT_GT(cfg.control->progress().total_ticks(), 0u);
  EXPECT_EQ(idle->progress().total_ticks(), 0u);
}

// ---- Watchdog --------------------------------------------------------------

TEST(Watchdog, FiresAfterDeadlinePlusGraceWithSnapshotAndEmergency) {
  Progress::instance().reset();
  Progress::instance().tick("stuck-stage", 42);
  std::atomic<bool> emergency_ran{false};
  Watchdog wd(0.08, 0.05);
  // A slow emergency save: fired() must not turn true before it finishes,
  // however long it takes.
  wd.set_emergency([&](const ProgressSnapshot& snap) {
    EXPECT_GE(snap.total_ticks, 1u);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    emergency_ran = true;
  });
  const auto t0 = std::chrono::steady_clock::now();
  while (!wd.fired() &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(5)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(wd.fired());
  EXPECT_TRUE(emergency_ran);
  const ProgressSnapshot snap = wd.wedged_snapshot();
  ASSERT_EQ(snap.slots.size(), 1u);
  EXPECT_EQ(snap.slots[0].label, "stuck-stage");
  EXPECT_EQ(snap.slots[0].detail, 42u);
  Progress::instance().reset();
}

TEST(Watchdog, TickingKeepsItHealthy) {
  Progress::instance().reset();
  Watchdog wd(0.3, 0.3);
  // Tick well inside the deadline for longer than deadline+grace: a live run
  // must never be declared wedged.
  for (int i = 0; i < 35; ++i) {
    Progress::instance().tick("alive", static_cast<std::uint64_t>(i));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_FALSE(wd.fired());
  Progress::instance().reset();
}

TEST(Watchdog, WedgedDistributedRunAbortsTypedInsteadOfHanging) {
  // A scripted 60s delivery delay with NO comm deadline: without the
  // watchdog the blocked recv would wait out the full minute. The watchdog
  // must declare the run wedged, poison the world, and surface a typed
  // WedgedError — in bounded time.
  Progress::instance().reset();
  const auto backend = make_backend("hybrid");
  RunConfig cfg = gov_config();
  auto plan = std::make_shared<FaultPlan>();
  plan->add_delay({0, 1, 0, 0, 60.0});
  cfg.fault_plan = plan;
  cfg.watchdog_s = 0.25;
  cfg.watchdog_grace_s = 0.15;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    (void)run_elastic(*backend, small_scene(), cfg, nullptr);
    FAIL() << "wedged run returned instead of aborting";
  } catch (const WedgedError& e) {
    EXPECT_STREQ(e.code(), "wedged");
    EXPECT_EQ(e.exit_code(), 6);
    EXPECT_FALSE(e.snapshot.empty());
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(elapsed, 30.0) << "typed abort took too long — watchdog did not bound the hang";
  Progress::instance().reset();
}

TEST(Watchdog, EmergencyCheckpointHoldsTheLastCompletedLeg) {
  // Wedge in leg 2 (delay the 4th 0->1 record delivery: windows are 3 per
  // leg) with an emergency path set: the flushed checkpoint must load as
  // kOk and hold leg 1's photons.
  Progress::instance().reset();
  const std::string path = testing::TempDir() + "photon_emergency.ckpt";
  std::remove(path.c_str());
  const auto backend = make_backend("hybrid");
  RunConfig cfg = gov_config();
  cfg.checkpoint_photons = 600;
  auto plan = std::make_shared<FaultPlan>();
  plan->add_delay({0, 1, 0, 3, 60.0});
  cfg.fault_plan = plan;
  cfg.watchdog_s = 0.25;
  cfg.watchdog_grace_s = 0.15;
  cfg.emergency_checkpoint_path = path;
  EXPECT_THROW((void)run_elastic(*backend, small_scene(), cfg, nullptr), WedgedError);
  RunResult loaded;
  ASSERT_EQ(load_checkpoint_status(path, loaded), CheckpointStatus::kOk);
  EXPECT_EQ(loaded.counters.emitted, 600u);
  std::remove(path.c_str());
  Progress::instance().reset();
}

TEST(Watchdog, EmergencyCheckpointOfAResumedRunIsTheCallersResume) {
  // Wedge in the first leg of a resumed run (delay the first 0->1 record
  // delivery): no leg has completed, so the emergency checkpoint must hold
  // exactly the caller's resume, which run_elastic reads in place.
  Progress::instance().reset();
  const std::string path = testing::TempDir() + "photon_emergency_resume.ckpt";
  std::remove(path.c_str());
  const auto backend = make_backend("hybrid");
  RunConfig first = gov_config();
  first.photons = 600;
  const RunResult resume = backend->run(small_scene(), first, nullptr);
  ASSERT_EQ(resume.counters.emitted, 600u);

  RunConfig cfg = gov_config();
  cfg.checkpoint_photons = 600;
  auto plan = std::make_shared<FaultPlan>();
  plan->add_delay({0, 1, 0, 0, 60.0});
  cfg.fault_plan = plan;
  cfg.watchdog_s = 0.25;
  cfg.watchdog_grace_s = 0.15;
  cfg.emergency_checkpoint_path = path;
  EXPECT_THROW((void)run_elastic(*backend, small_scene(), cfg, &resume), WedgedError);
  RunResult loaded;
  ASSERT_EQ(load_checkpoint_status(path, loaded), CheckpointStatus::kOk);
  EXPECT_EQ(loaded.counters.emitted, resume.counters.emitted);
  EXPECT_TRUE(loaded.forest == resume.forest);
  std::remove(path.c_str());
  Progress::instance().reset();
}

// ---- Memory admission ladder ----------------------------------------------

TEST(Admission, UnlimitedBudgetChangesNothing) {
  Scene scene = scenes::cornell_box();
  RunConfig cfg = gov_config();
  const AdmissionPlan plan = govern_admission(scene, cfg);
  EXPECT_FALSE(plan.coarsened_accel);
}

TEST(Admission, GenerousBudgetAdmitsUndegraded) {
  Scene scene = scenes::cornell_box();
  RunConfig cfg = gov_config();
  cfg.memory_budget = 1ull << 40;
  const AdmissionPlan plan = govern_admission(scene, cfg);
  EXPECT_FALSE(plan.coarsened_accel);
  EXPECT_GT(plan.estimated_bytes, 0u);
  EXPECT_LE(plan.estimated_bytes, cfg.memory_budget);
}

TEST(Admission, TightBudgetWalksTheLadderInOrder) {
  // Find the undegraded estimate, then set the budget just below it: rung 1
  // (coarser accel leaves) must engage first, and the returned estimate must
  // honor the budget.
  Scene scene = scenes::cornell_box();
  RunConfig cfg = gov_config();
  cfg.memory_budget = 1ull << 40;
  const std::uint64_t undegraded = govern_admission(scene, cfg).estimated_bytes;
  cfg.memory_budget = undegraded - 1;
  const AdmissionPlan plan = govern_admission(scene, cfg);
  EXPECT_TRUE(plan.coarsened_accel);
  EXPECT_LE(plan.estimated_bytes, cfg.memory_budget);
}

TEST(Admission, ImpossibleBudgetRefusesWithATypedError) {
  Scene scene = scenes::cornell_box();
  RunConfig cfg = gov_config();
  cfg.memory_budget = 1024;
  try {
    (void)govern_admission(scene, cfg);
    FAIL() << "1 KiB budget was admitted";
  } catch (const ResourceError& e) {
    EXPECT_STREQ(e.code(), "resource");
    EXPECT_EQ(e.exit_code(), 9);
    EXPECT_NE(std::string(e.what()).find("refused"), std::string::npos);
  }
}

// ---- Scene validation ------------------------------------------------------

Scene valid_two_patch_scene() {
  Scene scene;
  const int white = scene.add_material(Material::lambertian(Rgb::splat(0.5)));
  const int lamp = scene.add_material(Material::emitter(Rgb::splat(10.0)));
  (void)white;
  scene.add_patch(Patch({0, 0, 0}, {1, 0, 0}, {0, 1, 0}, 0));
  scene.add_patch(Patch({0, 0, 1}, {1, 0, 0}, {0, 1, 0}, lamp));
  scene.add_luminaire(1);
  return scene;
}

void expect_scene_rejected(const Scene& scene, int expected_patch, const char* label) {
  try {
    validate_scene(scene);
    FAIL() << label << ": degenerate scene was accepted";
  } catch (const SceneError& e) {
    EXPECT_EQ(e.patch, expected_patch) << label << ": " << e.what();
    EXPECT_EQ(e.exit_code(), 8) << label;
  }
}

TEST(SceneValidation, AcceptsTheBuiltInsAndAValidScene) {
  EXPECT_NO_THROW(validate_scene(scenes::cornell_box()));
  EXPECT_NO_THROW(validate_scene(scenes::harpsichord_room()));
  EXPECT_NO_THROW(validate_scene(scenes::computer_lab()));
  EXPECT_NO_THROW(validate_scene(valid_two_patch_scene()));
}

TEST(SceneValidation, RejectsDegeneratePatchesNamingTheIndex) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  {
    Scene s = valid_two_patch_scene();
    s.add_patch(Patch({0, 0, 2}, {0, 0, 0}, {0, 1, 0}, 0));  // zero-area
    expect_scene_rejected(s, 2, "zero-area");
  }
  {
    Scene s = valid_two_patch_scene();
    s.add_patch(Patch({0, 0, 2}, {1, 0, 0}, {2, 0, 0}, 0));  // collinear edges
    expect_scene_rejected(s, 2, "collinear");
  }
  {
    Scene s = valid_two_patch_scene();
    s.add_patch(Patch({nan, 0, 2}, {1, 0, 0}, {0, 1, 0}, 0));
    expect_scene_rejected(s, 2, "nan-origin");
  }
  {
    Scene s = valid_two_patch_scene();
    s.add_patch(Patch({0, 0, 2}, {inf, 0, 0}, {0, 1, 0}, 0));
    expect_scene_rejected(s, 2, "inf-edge");
  }
  {
    Scene s = valid_two_patch_scene();
    s.add_patch(Patch({0, 0, 2}, {1, 0, 0}, {0, 1, 0}, 99));  // bad material
    expect_scene_rejected(s, 2, "bad-material");
  }
}

TEST(SceneValidation, RejectsInvalidLuminaires) {
  {
    Scene s = valid_two_patch_scene();
    s.add_luminaire(0, Rgb{-1.0, 1.0, 1.0});  // negative power channel
    expect_scene_rejected(s, 0, "negative-power");
  }
  {
    Scene s = valid_two_patch_scene();
    s.add_luminaire(0, Rgb::splat(1.0), 0.0);  // angular_scale outside (0,1]
    expect_scene_rejected(s, 0, "zero-angular-scale");
  }
  {
    Scene s = valid_two_patch_scene();
    s.add_luminaire(0, Rgb::splat(1.0), 1.5);
    expect_scene_rejected(s, 0, "angular-scale-above-one");
  }
  {
    Scene s = valid_two_patch_scene();
    s.add_luminaire(0, Rgb{std::nan(""), 1.0, 1.0});
    expect_scene_rejected(s, 0, "nan-power");
  }
}

TEST(SceneValidation, RejectsEmptyAndPowerlessScenes) {
  expect_scene_rejected(Scene{}, -1, "empty");
  {
    // Patches but no luminaires: nothing to emit.
    Scene s;
    s.add_material(Material::lambertian(Rgb::splat(0.5)));
    s.add_patch(Patch({0, 0, 0}, {1, 0, 0}, {0, 1, 0}, 0));
    expect_scene_rejected(s, -1, "no-luminaires");
  }
}

// ---- Fault-plan parsing fuzz ----------------------------------------------

TEST(FaultPlanParse, AcceptsTheDocumentedForms) {
  for (const char* spec : {
           "kill:rank=1",
           "kill:rank=0,batch=2,point=mid",
           "drop:src=0,dst=1",
           "drop:src=0,dst=1,tag=3,nth=2",
           "delay:src=1,dst=0,ms=50",
           "delay:src=1,dst=0,ms=0.5,tag=1,nth=4",
           "kill:rank=1;drop:src=0,dst=1;delay:src=0,dst=1,ms=1",
       }) {
    FaultPlan plan;
    std::string error;
    EXPECT_TRUE(parse_fault_plan(spec, plan, error)) << spec << ": " << error;
    EXPECT_FALSE(plan.empty()) << spec;
  }
}

TEST(FaultPlanParse, RejectsMalformedSpecsWithADiagnostic) {
  // The deterministic fuzz corpus: every entry must fail loudly — never
  // parse to a silently-defaulted fault (the old strtod-with-null-end read
  // "rank=x" as rank 0, exactly the wrong rank to kill).
  for (const char* spec : {
           "",                                   // empty plan
           ";;",                                 // only separators
           "kill",                               // no kind separator
           "boom:rank=1",                        // unknown kind
           "kill:",                              // kill without rank
           "kill:rank=",                         // empty value
           "kill:rank=x",                        // non-numeric
           "kill:rank=1x",                       // trailing garbage
           "kill:rank=-1",                       // negative rank
           "kill:rank=99999999999999999999",     // int overflow
           "kill:rank=1,rank=2",                 // duplicate key
           "kill:rank=1,nht=3",                  // typo'd key
           "kill:rank=1,point=sideways",         // unknown kill point
           "kill:rank=1,batch=1e3",              // float where int expected
           "drop:src=0",                         // missing dst
           "drop:dst=1",                         // missing src
           "drop:src=0,dst=1,ms=5",              // ms on a drop
           "drop:src=0,dst=1,nth=-2",            // negative count
           "delay:src=0,dst=1",                  // missing ms
           "delay:src=0,dst=1,ms=",              // empty ms
           "delay:src=0,dst=1,ms=-5",            // negative delay
           "delay:src=0,dst=1,ms=fast",          // non-numeric delay
           "kill:rank=1;boom:rank=2",            // valid entry then garbage
       }) {
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(parse_fault_plan(spec, plan, error)) << "accepted: '" << spec << "'";
    EXPECT_FALSE(error.empty()) << spec;
  }
}

// ---- Subprocess CLI tests --------------------------------------------------

#ifdef PHOTON_CLI_PATH

// Runs photon_cli with `args`, optionally delivering `sig` after
// `kill_after_ms`; its stderr goes to `stderr_path`. Returns the exit status
// (or -1 on harness failure; -signal when the child died on an unhandled
// signal).
int run_cli(const std::vector<std::string>& args, int kill_after_ms = -1,
            int sig = SIGTERM, const std::string& stderr_path = "/dev/null") {
  const pid_t pid = fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    std::vector<char*> argv;
    static const std::string exe = PHOTON_CLI_PATH;
    argv.push_back(const_cast<char*>(exe.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    if (!std::freopen("/dev/null", "w", stdout)) _exit(127);
    if (!std::freopen(stderr_path.c_str(), "w", stderr)) _exit(127);
    execv(exe.c_str(), argv.data());
    _exit(127);
  }
  if (kill_after_ms >= 0) {
    usleep(static_cast<useconds_t>(kill_after_ms) * 1000);
    kill(pid, sig);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return -WTERMSIG(status);
  return -1;
}

bool files_equal(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  const std::string ca((std::istreambuf_iterator<char>(fa)), std::istreambuf_iterator<char>());
  const std::string cb((std::istreambuf_iterator<char>(fb)), std::istreambuf_iterator<char>());
  return !ca.empty() && ca == cb;
}

bool file_exists(const std::string& path) { return std::ifstream(path).good(); }

TEST(CliGovernance, ExitCodeTable) {
  const std::string dir = testing::TempDir();
  EXPECT_EQ(run_cli({}), 2);                                              // usage
  EXPECT_EQ(run_cli({"simulate", "cornell", dir + "x.bin", "--bogus=1"}), 7);
  EXPECT_EQ(run_cli({"simulate", "cornell", dir + "x.bin", "--photons=ten"}), 7);
  EXPECT_EQ(run_cli({"simulate", "cornell", dir + "x.bin", "--photons=1",
                     "--photons=2"}), 7);
  EXPECT_EQ(run_cli({"simulate", "no-such-scene.txt", dir + "x.bin"}), 8);
  // A structure outside the registry is a config error naming the supported
  // ones.
  const std::string err = dir + "photon_accel.err";
  EXPECT_EQ(run_cli({"simulate", "cornell", dir + "x.bin", "--accel=bvh"}, -1, SIGTERM, err), 7);
  std::ifstream err_in(err);
  const std::string err_text((std::istreambuf_iterator<char>(err_in)),
                             std::istreambuf_iterator<char>());
  EXPECT_NE(err_text.find("unknown accel 'bvh' (supported: octree | grid)"), std::string::npos)
      << err_text;
  std::remove(err.c_str());
  // A present-but-damaged checkpoint must refuse, not silently restart.
  const std::string bad = dir + "photon_bad.ckpt";
  { std::ofstream(bad) << "not a checkpoint"; }
  EXPECT_EQ(run_cli({"simulate", "cornell", dir + "x.bin", "--photons=100",
                     "--checkpoint=" + bad}), 3);
  std::remove(bad.c_str());
}

// SIGTERM mid-run must exit with the resumable code 5 having written a
// loadable checkpoint and NO answer file; rerunning the identical command
// must resume and produce a bitwise-identical answer: serial, the particle
// engine (as shared and hybrid) and dist-spatial.
TEST(CliGovernance, SigtermResumeIsBitwise) {
  const std::string dir = testing::TempDir();
  for (const std::string bk : {"serial", "shared", "hybrid", "dist-spatial"}) {
    const std::string ref = dir + "gov_ref_" + bk + ".bin";
    const std::string ref_ckpt = dir + "gov_ref_" + bk + ".ckpt";
    const std::string ans = dir + "gov_ans_" + bk + ".bin";
    const std::string ckpt = dir + "gov_" + bk + ".ckpt";
    // The CLI adopts any checkpoint at its --checkpoint path: without this a
    // file left by an earlier process would turn the reference into a resume.
    const auto remove_files = [&] {
      for (const std::string& f : {ref, ref_ckpt, ans, ckpt}) std::remove(f.c_str());
    };
    remove_files();
    const std::vector<std::string> common = {
        "simulate", "cornell", ans,           "--backend=" + bk,  "--photons=4000000",
        "--batch=50000",       "--workers=2", "--groups=2",       "--seed=99",
        "--checkpoint=" + ckpt};
    std::vector<std::string> ref_args = common;
    ref_args[2] = ref;
    ref_args.back() = "--checkpoint=" + ref_ckpt;
    ASSERT_EQ(run_cli(ref_args), 0) << bk;

    const int first = run_cli(common, 250, SIGTERM);
    if (first == 0) {
      // The run outraced the signal on this machine; nothing to resume.
      EXPECT_TRUE(file_exists(ans)) << bk;
    } else {
      ASSERT_EQ(first, 5) << bk << ": expected the resumable preempt code";
      EXPECT_FALSE(file_exists(ans)) << bk << ": partial answer file written";
      RunResult loaded;
      ASSERT_EQ(load_checkpoint_status(ckpt, loaded), CheckpointStatus::kOk) << bk;
      EXPECT_GT(loaded.counters.emitted, 0u) << bk;
      EXPECT_LT(loaded.counters.emitted, 4000000u) << bk;
      ASSERT_EQ(run_cli(common), 0) << bk << ": resume failed";
    }
    EXPECT_TRUE(files_equal(ref, ans)) << bk << ": resumed answer not bitwise-equal";
    remove_files();
  }
}

TEST(CliGovernance, SigintAndSigusr1AlsoPreempt) {
  const std::string dir = testing::TempDir();
  for (const int sig : {SIGINT, SIGUSR1}) {
    const std::string ans = dir + "gov_sig" + std::to_string(sig) + ".bin";
    const std::string ckpt = ans + ".ckpt";
    std::remove(ckpt.c_str());
    const int code = run_cli({"simulate", "cornell", ans, "--photons=4000000",
                              "--batch=50000"},
                             250, sig);
    if (code != 0) {
      EXPECT_EQ(code, 5) << "signal " << sig;
      EXPECT_TRUE(file_exists(ckpt)) << "signal " << sig;
    }
    std::remove(ckpt.c_str());
  }
}

#endif  // PHOTON_CLI_PATH

}  // namespace
}  // namespace photon
