// The photon service (src/service/): resident scenes shared across jobs,
// concurrent governed runs multiplexed onto the worker pool, per-job
// cancellation, admission against a service-wide memory budget, the line
// protocol, and the AF_UNIX daemon round-trip. The determinism acceptance —
// four concurrent jobs bitwise-equal to solo runs — lives here. CI runs this
// file under the `service` ctest label, including the TSan job.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#ifdef PHOTON_CLI_PATH
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "core/error.hpp"
#include "engine/governor.hpp"
#include "engine/recovery.hpp"
#include "geom/scenes.hpp"
#include "mp/fault.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "sim/checkpoint.hpp"

namespace photon {
namespace {

// A loader over the built-ins that the residency test can count through
// PhotonService::scene_loads(). Unknown names throw, failing the job.
SceneLoader test_loader() {
  return [](const std::string& name, AccelKind kind) -> std::shared_ptr<const Scene> {
    auto scene = std::make_shared<Scene>();
    if (name == "cornell") {
      *scene = scenes::cornell_box();
    } else if (name == "lab") {
      *scene = scenes::computer_lab();
    } else {
      throw SceneError("cannot load scene '" + name + "'");
    }
    if (kind != scene->accel_kind()) {
      scene->set_accel(kind);
      scene->build();
    }
    return scene;
  };
}

JobSpec small_job(const std::string& backend, std::uint64_t photons, std::uint64_t seed = 1) {
  JobSpec spec;
  spec.scene = "cornell";
  spec.backend = backend;
  spec.config.photons = photons;
  spec.config.seed = seed;
  spec.config.batch = 400;
  spec.config.adapt_batch = false;
  spec.config.workers = 2;
  spec.config.groups = 2;
  return spec;
}

// Long enough that a cancel lands mid-run on any machine (the CLI governance
// tests use the same scale for their SIGTERM window).
JobSpec long_job(std::uint64_t seed = 7) {
  JobSpec spec = small_job("serial", 4000000, seed);
  spec.config.batch = 50000;
  return spec;
}

void wait_until_running(PhotonService& service, std::uint64_t id) {
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 < std::chrono::seconds(30)) {
    const JobState state = service.status(id).state;
    if (state == JobState::kRunning || job_state_terminal(state)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---- States and names ------------------------------------------------------

TEST(ServiceStates, NamesAndTerminality) {
  EXPECT_STREQ(job_state_name(JobState::kQueued), "queued");
  EXPECT_STREQ(job_state_name(JobState::kRunning), "running");
  EXPECT_STREQ(job_state_name(JobState::kDone), "done");
  EXPECT_STREQ(job_state_name(JobState::kPreempted), "preempted");
  EXPECT_STREQ(job_state_name(JobState::kOverBudget), "over-budget");
  EXPECT_STREQ(job_state_name(JobState::kCancelled), "cancelled");
  EXPECT_STREQ(job_state_name(JobState::kRefused), "refused");
  EXPECT_STREQ(job_state_name(JobState::kFailed), "failed");
  EXPECT_FALSE(job_state_terminal(JobState::kQueued));
  EXPECT_FALSE(job_state_terminal(JobState::kRunning));
  EXPECT_TRUE(job_state_terminal(JobState::kDone));
  EXPECT_TRUE(job_state_terminal(JobState::kCancelled));
  EXPECT_TRUE(job_state_terminal(JobState::kRefused));
}

// ---- Resident scenes -------------------------------------------------------

TEST(Service, SceneIsLoadedOnceAndSharedAcrossJobs) {
  PhotonService service(ServiceConfig{}, test_loader());
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(service.submit(small_job(i % 2 ? "shared" : "serial", 2000, i + 1)));
  }
  for (const std::uint64_t id : ids) {
    const JobInfo info = service.wait(id);
    EXPECT_EQ(info.state, JobState::kDone) << "job " << id << ": " << info.error;
    EXPECT_EQ(info.emitted, 2000u);
    EXPECT_GT(info.progress_ticks, 0u);
  }
  // Six jobs, one (scene, accel) key -> exactly one load.
  EXPECT_EQ(service.scene_loads(), 1u);
}

TEST(Service, DistinctAccelKindsAreDistinctResidents) {
  PhotonService service(ServiceConfig{}, test_loader());
  JobSpec octree = small_job("serial", 1000);
  JobSpec grid = small_job("serial", 1000);
  grid.accel = AccelKind::kGrid;
  service.wait(service.submit(octree));
  service.wait(service.submit(grid));
  service.wait(service.submit(octree));  // cache hit
  EXPECT_EQ(service.scene_loads(), 2u);
}

// ---- The determinism acceptance: concurrent jobs == solo runs --------------

TEST(Service, FourConcurrentJobsAreBitwiseEqualToSoloRuns) {
  // Four jobs with distinct seeds and mixed backends run CONCURRENTLY
  // (max_active=4) on one resident scene; each result, saved through the
  // job's atomic checkpoint, must equal the same config run solo — forest,
  // counters, and RNG state bit for bit. Scheduling may interleave their
  // windows arbitrarily; the record order inside each job must not notice.
  const std::string dir = ::testing::TempDir();
  const std::vector<std::string> backends = {"serial", "shared", "serial", "shared"};

  ServiceConfig cfg;
  cfg.max_active = 4;
  PhotonService service(cfg, test_loader());
  std::vector<std::uint64_t> ids;
  std::vector<std::string> paths;
  for (int i = 0; i < 4; ++i) {
    JobSpec spec = small_job(backends[static_cast<std::size_t>(i)], 20000, 100 + i);
    spec.checkpoint_path = dir + "/svc_job_" + std::to_string(i) + ".ck";
    std::remove(spec.checkpoint_path.c_str());
    paths.push_back(spec.checkpoint_path);
    ids.push_back(service.submit(spec));
  }
  for (const std::uint64_t id : ids) {
    const JobInfo info = service.wait(id);
    ASSERT_EQ(info.state, JobState::kDone) << "job " << id << ": " << info.error;
  }

  const Scene scene = scenes::cornell_box();
  for (int i = 0; i < 4; ++i) {
    const JobSpec spec = small_job(backends[static_cast<std::size_t>(i)], 20000, 100 + i);
    const auto backend = make_backend(spec.backend);
    const RunResult solo = backend->run(scene, spec.config, nullptr);

    RunResult from_service;
    ASSERT_EQ(load_checkpoint_status(paths[static_cast<std::size_t>(i)], from_service),
              CheckpointStatus::kOk)
        << "job " << i;
    EXPECT_TRUE(from_service.forest == solo.forest) << "job " << i << " (" << spec.backend
                                                    << "): forest diverged from the solo run";
    EXPECT_EQ(from_service.counters.emitted, solo.counters.emitted) << "job " << i;
    EXPECT_EQ(from_service.counters.bounces, solo.counters.bounces) << "job " << i;
    std::remove(paths[static_cast<std::size_t>(i)].c_str());
  }
}

TEST(Service, ManyClientThreadsSubmittingOverlappingRunsStayDeterministic) {
  // The satellite stress (and the TSan target): client threads submit
  // overlapping identical runs while others poll status. Every result must
  // match the solo reference exactly.
  const Scene scene = scenes::cornell_box();
  const JobSpec reference_spec = small_job("shared", 6000, 42);
  const RunResult solo = make_backend("shared")->run(scene, reference_spec.config, nullptr);

  ServiceConfig cfg;
  cfg.max_active = 4;
  PhotonService service(cfg, test_loader());
  const std::string dir = ::testing::TempDir();

  std::atomic<bool> ok{true};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        JobSpec spec = small_job("shared", 6000, 42);
        spec.checkpoint_path =
            dir + "/svc_mt_" + std::to_string(t) + "_" + std::to_string(round) + ".ck";
        std::remove(spec.checkpoint_path.c_str());
        const std::uint64_t id = service.submit(spec);
        (void)service.status(id);  // concurrent status traffic
        (void)service.jobs();
        const JobInfo info = service.wait(id);
        if (info.state != JobState::kDone) ok = false;

        RunResult result;
        if (load_checkpoint_status(spec.checkpoint_path, result) != CheckpointStatus::kOk ||
            !(result.forest == solo.forest) ||
            result.counters.bounces != solo.counters.bounces) {
          ok = false;
        }
        std::remove(spec.checkpoint_path.c_str());
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_TRUE(ok);
  EXPECT_EQ(service.scene_loads(), 1u);
}

// ---- Per-job cancel --------------------------------------------------------

TEST(Service, CancelStopsExactlyOneJobAndLeavesItsSiblingAlone) {
  clear_preempt();
  ServiceConfig cfg;
  cfg.max_active = 2;
  PhotonService service(cfg, test_loader());

  const std::uint64_t victim = service.submit(long_job(1));
  const std::uint64_t sibling = service.submit(small_job("serial", 30000, 2));
  wait_until_running(service, victim);
  EXPECT_TRUE(service.cancel(victim));

  const JobInfo stopped = service.wait(victim);
  EXPECT_EQ(stopped.state, JobState::kCancelled);
  EXPECT_LT(stopped.emitted, 4000000u) << "cancel did not stop the run early";

  const JobInfo untouched = service.wait(sibling);
  EXPECT_EQ(untouched.state, JobState::kDone) << untouched.error;
  EXPECT_EQ(untouched.emitted, 30000u);
  // The scoped stop never leaked into the process flag.
  EXPECT_FALSE(preempt_requested());

  // Terminal and unknown ids are both un-cancellable.
  EXPECT_FALSE(service.cancel(victim));
  EXPECT_FALSE(service.cancel(999));
}

TEST(Service, CancelledWhileQueuedNeverRuns) {
  ServiceConfig cfg;
  cfg.max_active = 1;
  PhotonService service(cfg, test_loader());
  const std::uint64_t blocker = service.submit(long_job(3));
  const std::uint64_t queued = service.submit(small_job("serial", 1000));
  EXPECT_TRUE(service.cancel(queued));
  const JobInfo info = service.wait(queued);
  EXPECT_EQ(info.state, JobState::kCancelled);
  EXPECT_EQ(info.emitted, 0u);
  EXPECT_TRUE(service.cancel(blocker));
  EXPECT_EQ(service.wait(blocker).state, JobState::kCancelled);
}

TEST(Service, ShutdownPreemptsActiveJobsResumably) {
  ServiceConfig cfg;
  cfg.max_active = 1;
  PhotonService service(cfg, test_loader());
  const std::uint64_t active = service.submit(long_job(5));
  const std::uint64_t queued = service.submit(small_job("serial", 1000));
  wait_until_running(service, active);
  service.shutdown();

  const JobInfo stopped = service.status(active);
  EXPECT_EQ(stopped.state, JobState::kPreempted);
  EXPECT_GT(stopped.emitted, 0u);
  EXPECT_LT(stopped.emitted, 4000000u);
  EXPECT_EQ(service.status(queued).state, JobState::kCancelled);
  EXPECT_THROW((void)service.submit(small_job("serial", 100)), ConfigError);
}

// ---- Admission -------------------------------------------------------------

TEST(Service, ImpossibleBudgetRefusesWithADiagnostic) {
  ServiceConfig cfg;
  cfg.memory_budget = 1024;  // the 1 KiB budget the admission tests refuse
  PhotonService service(cfg, test_loader());
  const JobInfo info = service.wait(service.submit(small_job("serial", 1000)));
  EXPECT_EQ(info.state, JobState::kRefused);
  EXPECT_NE(info.error.find("refused"), std::string::npos) << info.error;
  EXPECT_EQ(info.emitted, 0u);
}

TEST(Service, AdmissibleJobsQueueForBudgetInsteadOfRefusing) {
  // A budget that admits one job but not two concurrently: both must still
  // finish (the second waits for the first's reservation to free), and the
  // results stay full-length.
  const Scene scene = scenes::cornell_box();
  const JobSpec probe = small_job("serial", 4000);
  const std::uint64_t one_job = admission_estimate_bytes(scene, probe.config);
  ASSERT_GT(one_job, 0u);

  ServiceConfig cfg;
  cfg.max_active = 2;
  cfg.memory_budget = one_job + one_job / 2;  // 1.5 jobs worth
  PhotonService service(cfg, test_loader());
  const std::uint64_t a = service.submit(small_job("serial", 4000, 1));
  const std::uint64_t b = service.submit(small_job("serial", 4000, 2));
  const JobInfo ia = service.wait(a);
  const JobInfo ib = service.wait(b);
  EXPECT_EQ(ia.state, JobState::kDone) << ia.error;
  EXPECT_EQ(ib.state, JobState::kDone) << ib.error;
  EXPECT_EQ(ia.emitted, 4000u);
  EXPECT_EQ(ib.emitted, 4000u);
  EXPECT_GT(ia.estimated_bytes, 0u);
}

// ---- Validation and failure paths ------------------------------------------

TEST(Service, SubmitRejectsBadSpecsUpFront) {
  PhotonService service(ServiceConfig{}, test_loader());
  JobSpec zero = small_job("serial", 1);
  zero.config.photons = 0;
  EXPECT_THROW((void)service.submit(zero), ConfigError);
  JobSpec bad_backend = small_job("serial", 100);
  bad_backend.backend = "warp-drive";
  EXPECT_THROW((void)service.submit(bad_backend), ConfigError);
  JobSpec wide = small_job("serial", 100);
  wide.config.workers = 5000;
  EXPECT_THROW((void)service.submit(wide), ConfigError);
}

TEST(Service, UnknownSceneFailsTheJobNotTheService) {
  PhotonService service(ServiceConfig{}, test_loader());
  JobSpec spec = small_job("serial", 1000);
  spec.scene = "atlantis";
  const JobInfo failed = service.wait(service.submit(spec));
  EXPECT_EQ(failed.state, JobState::kFailed);
  EXPECT_NE(failed.error.find("atlantis"), std::string::npos) << failed.error;

  // The service is still healthy.
  const JobInfo ok = service.wait(service.submit(small_job("serial", 1000)));
  EXPECT_EQ(ok.state, JobState::kDone) << ok.error;
}

TEST(Service, UnknownIdsThrowTyped) {
  PhotonService service(ServiceConfig{}, test_loader());
  EXPECT_THROW((void)service.status(42), ConfigError);
  EXPECT_THROW((void)service.wait(42), ConfigError);
  EXPECT_TRUE(service.jobs().empty());
}

TEST(Service, AFinishedJobKeepsOnlyItsInfo) {
  // A finished job's spec (a whole RunConfig) and control are destroyed by
  // the time wait() returns; status(), jobs() and wait() still report its
  // JobInfo. The spec's fault plan witnesses the release.
  PhotonService service(ServiceConfig{}, test_loader());
  JobSpec spec = small_job("serial", 1000);
  auto plan = std::make_shared<FaultPlan>();
  const std::weak_ptr<FaultPlan> witness = plan;
  spec.config.fault_plan = std::move(plan);
  const std::uint64_t first = service.submit(spec);
  spec.config.fault_plan.reset();
  const std::uint64_t running = service.submit(long_job());
  const std::uint64_t third = service.submit(small_job("shared", 1000, 2));

  EXPECT_EQ(service.wait(first).state, JobState::kDone);
  EXPECT_TRUE(witness.expired());
  EXPECT_EQ(service.status(first).emitted, 1000u);
  EXPECT_FALSE(service.cancel(first));
  EXPECT_EQ(service.wait(third).state, JobState::kDone);

  // Finished and live jobs come back in one list, in id order.
  const std::vector<JobInfo> all = service.jobs();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].id, first);
  EXPECT_EQ(all[1].id, running);
  EXPECT_EQ(all[2].id, third);
  EXPECT_FALSE(job_state_terminal(all[1].state));
  EXPECT_TRUE(service.cancel(running));
  EXPECT_EQ(service.wait(running).state, JobState::kCancelled);
}

// ---- Protocol --------------------------------------------------------------

TEST(Protocol, ParsesTheDocumentedForms) {
  const Request submit = parse_request(
      "submit scene=cornell backend=shared photons=5000 seed=9 workers=2 groups=2 "
      "batch=500 chunk=64 accel=grid checkpoint=/tmp/j.ck trace=/tmp/j.jsonl");
  ASSERT_EQ(submit.kind, Request::Kind::kSubmit);
  EXPECT_EQ(submit.kv.at("scene"), "cornell");
  EXPECT_EQ(submit.kv.at("accel"), "grid");

  const JobSpec spec = job_spec_from_request(submit);
  EXPECT_EQ(spec.scene, "cornell");
  EXPECT_EQ(spec.backend, "shared");
  EXPECT_EQ(spec.config.photons, 5000u);
  EXPECT_EQ(spec.config.seed, 9u);
  EXPECT_EQ(spec.config.workers, 2);
  EXPECT_EQ(spec.accel, AccelKind::kGrid);
  EXPECT_EQ(spec.checkpoint_path, "/tmp/j.ck");
  EXPECT_EQ(spec.config.trace_path, "/tmp/j.jsonl");

  EXPECT_EQ(parse_request("status").kind, Request::Kind::kStatus);
  EXPECT_EQ(parse_request("status job=3").kv.at("job"), "3");
  EXPECT_EQ(parse_request("wait job=7").kind, Request::Kind::kWait);
  EXPECT_EQ(parse_request("cancel job=1").kind, Request::Kind::kCancel);
  EXPECT_EQ(parse_request("ping").kind, Request::Kind::kPing);
  EXPECT_EQ(parse_request("shutdown").kind, Request::Kind::kShutdown);
}

TEST(Protocol, RejectsMalformedRequestsWithADiagnostic) {
  for (const char* line : {
           "",                          // empty
           "launch scene=cornell",      // unknown verb
           "submit",                    // missing scene
           "submit photons=5",          // still missing scene
           "submit scene=a scene=b",    // duplicate key
           "submit scene=a warp=9",     // unknown key
           "submit scene=a photons",    // bare token, not key=value
           "wait",                      // missing job
           "cancel",                    // missing job
           "status job=1 extra=2",      // unknown key for status
           "ping job=1",                // ping takes nothing
       }) {
    const Request r = parse_request(line);
    EXPECT_EQ(r.kind, Request::Kind::kBad) << "accepted: '" << line << "'";
    EXPECT_FALSE(r.error.empty()) << line;
  }
}

TEST(Protocol, BadValuesThrowWhenTheSpecIsBuilt) {
  EXPECT_THROW((void)job_spec_from_request(parse_request("submit scene=a photons=ten")),
               ConfigError);
  EXPECT_THROW((void)job_spec_from_request(parse_request("submit scene=a accel=quadtree")),
               ConfigError);
  EXPECT_THROW((void)job_spec_from_request(parse_request("submit scene=a workers=1x")),
               ConfigError);
}

TEST(Protocol, JobJsonCarriesTheReportShape) {
  JobInfo info;
  info.id = 12;
  info.state = JobState::kDone;
  info.scene = "cornell";
  info.backend = "shared";
  info.photons_requested = 1000;
  info.emitted = 1000;
  info.error = "say \"hi\"\n";
  const std::string json = job_info_json(info);
  EXPECT_NE(json.find("\"job\": 12"), std::string::npos) << json;
  EXPECT_NE(json.find("\"state\": \"done\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"photons_requested\": 1000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"error\": \"say \\\"hi\\\"\\n\""), std::string::npos) << json;
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
}

// ---- Daemon round-trip over the real socket --------------------------------

TEST(Daemon, ServesSubmitWaitStatusCancelOverTheSocket) {
  const std::string socket_path = ::testing::TempDir() + "/photon_svc_test.sock";
  std::remove(socket_path.c_str());

  ServiceConfig cfg;
  cfg.max_active = 2;
  PhotonService service(cfg, test_loader());
  std::atomic<bool> stop{false};
  std::thread daemon([&] { run_daemon(service, socket_path, [&] { return stop.load(); }); });

  // Wait for the socket to appear, then connect.
  std::unique_ptr<ServiceClient> client;
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    client = std::make_unique<ServiceClient>(socket_path);
    if (client->ok()) break;
    ASSERT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30))
        << client->error();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  std::string reply;
  ASSERT_TRUE(client->request("ping", reply));
  EXPECT_EQ(reply, "{\"ok\": true}");

  ASSERT_TRUE(client->request("submit scene=cornell backend=serial photons=3000", reply));
  EXPECT_EQ(reply.rfind("{\"job\": 1", 0), 0u) << reply;
  ASSERT_TRUE(client->request("wait job=1", reply));
  EXPECT_NE(reply.find("\"state\": \"done\""), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"emitted\": 3000"), std::string::npos) << reply;

  ASSERT_TRUE(client->request("status", reply));
  EXPECT_EQ(reply.rfind("{\"jobs\": [", 0), 0u) << reply;
  ASSERT_TRUE(client->request("status job=1", reply));
  EXPECT_NE(reply.find("\"job\": 1"), std::string::npos) << reply;

  ASSERT_TRUE(client->request("cancel job=1", reply));  // already terminal
  EXPECT_NE(reply.find("\"cancelled\": false"), std::string::npos) << reply;
  ASSERT_TRUE(client->request("cancel job=99", reply));
  EXPECT_NE(reply.find("\"cancelled\": false"), std::string::npos) << reply;

  ASSERT_TRUE(client->request("bogus verb", reply));
  EXPECT_EQ(reply.rfind("{\"error\"", 0), 0u) << reply;

  // A structure outside the registry is refused before any job exists, and
  // the refusal names the supported ones.
  ASSERT_TRUE(client->request("submit scene=cornell accel=bvh", reply));
  EXPECT_EQ(reply.rfind("{\"error\"", 0), 0u) << reply;
  EXPECT_NE(reply.find("unknown accel 'bvh' (supported: octree | grid)"), std::string::npos)
      << reply;
  EXPECT_EQ(service.jobs().size(), 1u);

  // A second client coexists with the first connection.
  ServiceClient second(socket_path);
  ASSERT_TRUE(second.ok()) << second.error();
  ASSERT_TRUE(second.request("status", reply));
  EXPECT_EQ(reply.rfind("{\"jobs\": [", 0), 0u);

  ASSERT_TRUE(client->request("shutdown", reply));
  EXPECT_EQ(reply, "{\"ok\": true}");
  daemon.join();
}

// Lines of /proc/self/maps, one per mapping. A live thread holds two: its
// stack and the guard page below it.
long mapping_count() {
  std::ifstream maps("/proc/self/maps");
  long lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

TEST(Daemon, ClosedConnectionsReleaseTheirThreads) {
  const std::string socket_path = ::testing::TempDir() + "/photon_svc_reap.sock";
  std::remove(socket_path.c_str());

  PhotonService service(ServiceConfig{}, test_loader());
  std::atomic<bool> stop{false};
  std::thread daemon([&] { run_daemon(service, socket_path, [&] { return stop.load(); }); });
  const auto t0 = std::chrono::steady_clock::now();
  while (!ServiceClient(socket_path).ok() &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(30)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // One connection at a time: the daemon holds the open connection's thread
  // and the few closed ones it has not joined yet, never hundreds.
  const auto ping_one_by_one = [&](int connections) {
    for (int i = 0; i < connections && !HasFailure(); ++i) {
      ServiceClient client(socket_path);
      std::string reply;
      EXPECT_TRUE(client.request("ping", reply)) << "connection " << i << ": " << client.error();
      EXPECT_EQ(reply, "{\"ok\": true}") << "connection " << i;
    }
  };
  // The first threads a process creates add mappings once, joined or not
  // (TSan's thread contexts: about 90 lines over the first 20), so the
  // count starts after a warm-up.
  ping_one_by_one(50);
  constexpr int kConnections = 300;
  const long before = mapping_count();
  ping_one_by_one(kConnections);
  // One poll tick (200 ms) later the accept loop has joined every closed
  // connection's thread. A daemon that kept them would hold 2 * 300 more
  // mappings.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_LT(mapping_count() - before, kConnections / 2);

  stop = true;
  daemon.join();
}

// ---- The CLI daemon, end to end --------------------------------------------

#ifdef PHOTON_CLI_PATH

TEST(Daemon, CliServeRunsTwoJobsAndStopsOnShutdown) {
  const std::string socket_path = ::testing::TempDir() + "/photon_cli_svc.sock";
  std::remove(socket_path.c_str());

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    if (!std::freopen("/dev/null", "w", stdout)) _exit(127);
    const std::string exe = PHOTON_CLI_PATH;
    const std::string socket_arg = "--socket=" + socket_path;
    execl(exe.c_str(), exe.c_str(), "serve", socket_arg.c_str(), "--max-active=2",
          static_cast<char*>(nullptr));
    _exit(127);
  }

  std::unique_ptr<ServiceClient> client;
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    client = std::make_unique<ServiceClient>(socket_path);
    if (client->ok()) break;
    ASSERT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30))
        << client->error();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  std::string reply;
  ASSERT_TRUE(client->request("submit scene=cornell backend=serial photons=2000 seed=1", reply));
  ASSERT_TRUE(client->request("submit scene=cornell backend=shared photons=2000 seed=2", reply));
  for (const char* wait : {"wait job=1", "wait job=2"}) {
    ASSERT_TRUE(client->request(wait, reply)) << wait;
    EXPECT_NE(reply.find("\"state\": \"done\""), std::string::npos) << wait << ": " << reply;
    EXPECT_NE(reply.find("\"emitted\": 2000"), std::string::npos) << wait << ": " << reply;
  }
  ASSERT_TRUE(client->request("shutdown", reply));

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

#endif  // PHOTON_CLI_PATH

}  // namespace
}  // namespace photon
