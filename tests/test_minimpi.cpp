#include "mp/minimpi.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace photon {
namespace {

Bytes make_payload(int src, int dst, int tag = 0) {
  Bytes b(12);
  std::memcpy(b.data(), &src, 4);
  std::memcpy(b.data() + 4, &dst, 4);
  std::memcpy(b.data() + 8, &tag, 4);
  return b;
}

class MiniMpiTest : public ::testing::TestWithParam<int> {};

TEST_P(MiniMpiTest, RankAndSize) {
  const int P = GetParam();
  std::atomic<int> checks{0};
  run_world(P, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), P);
    EXPECT_GE(comm.rank(), 0);
    EXPECT_LT(comm.rank(), P);
    checks.fetch_add(1);
  });
  EXPECT_EQ(checks.load(), P);
}

TEST_P(MiniMpiTest, RingSendRecv) {
  const int P = GetParam();
  run_world(P, [&](Comm& comm) {
    const int next = (comm.rank() + 1) % P;
    const int prev = (comm.rank() + P - 1) % P;
    comm.send(next, make_payload(comm.rank(), next));
    const Bytes got = comm.recv(prev);
    int src = -1, dst = -1;
    std::memcpy(&src, got.data(), 4);
    std::memcpy(&dst, got.data() + 4, 4);
    EXPECT_EQ(src, prev);
    EXPECT_EQ(dst, comm.rank());
  });
}

TEST_P(MiniMpiTest, MessagesArriveInOrder) {
  const int P = GetParam();
  run_world(P, [&](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 50; ++i) comm.send(P - 1, make_payload(0, P - 1, i));
    } else if (comm.rank() == P - 1) {
      for (int i = 0; i < 50; ++i) {
        const Bytes got = comm.recv(0);
        int tag = -1;
        std::memcpy(&tag, got.data() + 8, 4);
        EXPECT_EQ(tag, i);
      }
    }
  });
}

TEST_P(MiniMpiTest, AlltoallDeliversEverything) {
  const int P = GetParam();
  run_world(P, [&](Comm& comm) {
    std::vector<Bytes> out(static_cast<std::size_t>(P));
    for (int d = 0; d < P; ++d) out[static_cast<std::size_t>(d)] = make_payload(comm.rank(), d);
    const std::vector<Bytes> in = comm.alltoall(std::move(out));
    ASSERT_EQ(in.size(), static_cast<std::size_t>(P));
    for (int s = 0; s < P; ++s) {
      int src = -1, dst = -1;
      std::memcpy(&src, in[static_cast<std::size_t>(s)].data(), 4);
      std::memcpy(&dst, in[static_cast<std::size_t>(s)].data() + 4, 4);
      EXPECT_EQ(src, s);
      EXPECT_EQ(dst, comm.rank());
    }
  });
}

TEST_P(MiniMpiTest, AlltoallWithEmptyBuffers) {
  const int P = GetParam();
  run_world(P, [&](Comm& comm) {
    std::vector<Bytes> out(static_cast<std::size_t>(P));  // all empty
    const std::vector<Bytes> in = comm.alltoall(std::move(out));
    for (const Bytes& b : in) EXPECT_TRUE(b.empty());
  });
}

TEST_P(MiniMpiTest, BarrierSeparatesPhases) {
  const int P = GetParam();
  std::atomic<int> phase1{0};
  std::atomic<bool> violated{false};
  run_world(P, [&](Comm& comm) {
    phase1.fetch_add(1);
    comm.barrier();
    // After the barrier every rank must observe all P phase-1 increments.
    if (phase1.load() != P) violated.store(true);
    comm.barrier();
  });
  EXPECT_FALSE(violated.load());
}

TEST_P(MiniMpiTest, RepeatedBarriers) {
  const int P = GetParam();
  run_world(P, [&](Comm& comm) {
    for (int i = 0; i < 20; ++i) comm.barrier();
  });
}

TEST_P(MiniMpiTest, AllreduceSum) {
  const int P = GetParam();
  run_world(P, [&](Comm& comm) {
    const double total = comm.allreduce_sum(static_cast<double>(comm.rank() + 1));
    EXPECT_DOUBLE_EQ(total, P * (P + 1) / 2.0);
  });
}

TEST_P(MiniMpiTest, AllreduceMax) {
  const int P = GetParam();
  run_world(P, [&](Comm& comm) {
    const double m = comm.allreduce_max(static_cast<double>(comm.rank() * 10));
    EXPECT_DOUBLE_EQ(m, (P - 1) * 10.0);
  });
}

TEST_P(MiniMpiTest, AllreduceU64) {
  const int P = GetParam();
  run_world(P, [&](Comm& comm) {
    const std::uint64_t total = comm.allreduce_sum_u64(100);
    EXPECT_EQ(total, static_cast<std::uint64_t>(P) * 100u);
  });
}

TEST_P(MiniMpiTest, RepeatedAllreducesDoNotCrossTalk) {
  const int P = GetParam();
  run_world(P, [&](Comm& comm) {
    for (int i = 0; i < 10; ++i) {
      const double total = comm.allreduce_sum(static_cast<double>(i));
      EXPECT_DOUBLE_EQ(total, static_cast<double>(i * P));
    }
  });
}

TEST_P(MiniMpiTest, TrafficCountersExcludeSelf) {
  const int P = GetParam();
  const WorldStats stats = run_world(P, [&](Comm& comm) {
    std::vector<Bytes> out(static_cast<std::size_t>(P));
    for (int d = 0; d < P; ++d) out[static_cast<std::size_t>(d)] = Bytes(16);
    comm.alltoall(std::move(out));
  });
  EXPECT_EQ(stats.total_messages, static_cast<std::uint64_t>(P) * (P - 1));
  EXPECT_EQ(stats.total_bytes, static_cast<std::uint64_t>(P) * (P - 1) * 16);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, MiniMpiTest, ::testing::Values(1, 2, 3, 4, 8));

TEST_P(MiniMpiTest, TagsKeepStreamsSeparate) {
  // A send on one tag must never be received on another: post photon-style
  // traffic on tag 0 and record-style traffic on tag 1 in interleaved order,
  // then drain them in the opposite order.
  const int P = GetParam();
  if (P < 2) GTEST_SKIP();
  run_world(P, [&](Comm& comm) {
    const int next = (comm.rank() + 1) % P;
    const int prev = (comm.rank() + P - 1) % P;
    comm.send(next, make_payload(comm.rank(), next, 100), 0);
    comm.send(next, make_payload(comm.rank(), next, 200), 1);
    int tag = -1;
    const Bytes rec = comm.recv(prev, 1);  // drain tag 1 first
    std::memcpy(&tag, rec.data() + 8, 4);
    EXPECT_EQ(tag, 200);
    const Bytes photon = comm.recv(prev, 0);
    std::memcpy(&tag, photon.data() + 8, 4);
    EXPECT_EQ(tag, 100);
  });
}

TEST_P(MiniMpiTest, SplitPhaseAlltoallDeliversEverything) {
  const int P = GetParam();
  run_world(P, [&](Comm& comm) {
    std::vector<Bytes> out(static_cast<std::size_t>(P));
    for (int d = 0; d < P; ++d) out[static_cast<std::size_t>(d)] = make_payload(comm.rank(), d);
    PendingExchange pending = comm.alltoall_start(std::move(out));
    // Simulated compute between start and finish.
    comm.barrier();
    const std::vector<Bytes> in = pending.finish();
    ASSERT_EQ(in.size(), static_cast<std::size_t>(P));
    for (int s = 0; s < P; ++s) {
      int src = -1, dst = -1;
      std::memcpy(&src, in[static_cast<std::size_t>(s)].data(), 4);
      std::memcpy(&dst, in[static_cast<std::size_t>(s)].data() + 4, 4);
      EXPECT_EQ(src, s);
      EXPECT_EQ(dst, comm.rank());
    }
  });
}

TEST_P(MiniMpiTest, OverlappedExchangesDrainInOrder) {
  // Two exchanges in flight on the same tag finish in FIFO order.
  const int P = GetParam();
  run_world(P, [&](Comm& comm) {
    std::vector<Bytes> round1(static_cast<std::size_t>(P)), round2(static_cast<std::size_t>(P));
    for (int d = 0; d < P; ++d) {
      round1[static_cast<std::size_t>(d)] = make_payload(comm.rank(), d, 1);
      round2[static_cast<std::size_t>(d)] = make_payload(comm.rank(), d, 2);
    }
    PendingExchange first = comm.alltoall_start(std::move(round1));
    PendingExchange second = comm.alltoall_start(std::move(round2));
    int tag = -1;
    for (const Bytes& b : first.finish()) {
      std::memcpy(&tag, b.data() + 8, 4);
      EXPECT_EQ(tag, 1);
    }
    for (const Bytes& b : second.finish()) {
      std::memcpy(&tag, b.data() + 8, 4);
      EXPECT_EQ(tag, 2);
    }
  });
}

TEST(MiniMpi, FinishTwiceThrows) {
  run_world(2, [](Comm& comm) {
    PendingExchange pending = comm.alltoall_start(std::vector<Bytes>(2));
    pending.finish();
    EXPECT_THROW(pending.finish(), std::logic_error);
  });
}

TEST(MiniMpi, TagOutOfRangeThrows) {
  run_world(1, [](Comm& comm) {
    EXPECT_THROW(comm.send(0, Bytes(), kNumTags), std::invalid_argument);
    EXPECT_THROW(comm.recv(0, -1), std::invalid_argument);
  });
}

TEST(MiniMpi, WaitSecondsCountsBlockedRecv) {
  // Rank 1 blocks in recv (on tag 1) while rank 0 sleeps before sending: the
  // wait clock must record the block, attributed to the waited-on tag only.
  // The flag + sleep keeps the assertion off a scheduler race: rank 0 only
  // starts its sleep once rank 1 is at most a few instructions from recv, so
  // any nonzero wait is expected and asserted as > 0 (not a duration bound).
  double waited = -1.0, waited_other_tag = -1.0, unwaited = -1.0;
  std::atomic<bool> receiver_ready{false};
  run_world(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      while (!receiver_ready.load()) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      comm.send(1, Bytes(8), 1);
    } else {
      receiver_ready.store(true);
      comm.recv(0, 1);
      waited = comm.wait_seconds(1);
      waited_other_tag = comm.wait_seconds(0);
    }
  });
  EXPECT_GT(waited, 0.0);
  EXPECT_DOUBLE_EQ(waited_other_tag, 0.0);

  // A pre-delivered message costs nothing: the barrier orders rank 0's send
  // before rank 1's recv, so the fast path adds exactly zero wait.
  run_world(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, Bytes(8));
      comm.barrier();
    } else {
      comm.barrier();  // after the barrier the message is certainly delivered
      comm.recv(0);
      unwaited = comm.wait_seconds();
    }
  });
  EXPECT_DOUBLE_EQ(unwaited, 0.0);
}

TEST(MiniMpi, ExceptionPropagates) {
  EXPECT_THROW(run_world(2,
                         [](Comm& comm) {
                           if (comm.rank() == 1) throw std::runtime_error("rank 1 died");
                         }),
               std::runtime_error);
}

// --- Fault model (mp/fault.hpp): deadlines, heartbeats, scripted kills,
// drops and delays. These pin the substrate-level guarantees the elastic
// runner builds on; backend-level recovery is pinned in test_faults.

TEST(MiniMpiFaults, RecvDeadlineTimesOutWithTypedError) {
  // A bounded recv with no sender must resolve to a typed kTimeout — and the
  // time blocked on the expired attempts still lands on the wait clock.
  CommErrorKind kind = CommErrorKind::kPeerDead;
  double waited = -1.0;
  std::uint64_t retries = 0;
  run_world(2, [&](Comm& comm) {
    if (comm.rank() == 1) {
      try {
        comm.recv(0, 0, 0.02);
        FAIL() << "recv returned without a message";
      } catch (const CommError& e) {
        kind = e.kind();
        waited = comm.wait_seconds(0);
        retries = comm.deadline_retries();
      }
    } else {
      // Outlive the full retry budget (0.02 * (1+2+4+8) = 0.3s) so the peer
      // times out instead of seeing us exit.
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
    }
  });
  EXPECT_EQ(kind, CommErrorKind::kTimeout);
  EXPECT_GT(waited, 0.0);
  EXPECT_GT(retries, 0u);
}

TEST(MiniMpiFaults, KillUnblocksBlockedPeersWithoutDeadlines) {
  // Fail-stop: an announced death must wake peers blocked in an UNBOUNDED
  // recv — the no-hang guarantee needs no deadline policy when deaths are
  // announced.
  FaultPlan plan;
  plan.add_kill({0, FaultPoint::kBeforeBatch, 0});
  WorldOptions opt;
  opt.plan = &plan;
  try {
    run_world(3, opt, [&](Comm& comm) {
      comm.batch_tick(0);  // rank 0 dies here
      comm.recv(0, 0);     // would block forever without the cascade
      FAIL() << "recv from a dead rank returned";
    });
    FAIL() << "expected WorldFailure";
  } catch (const WorldFailure& f) {
    ASSERT_EQ(f.dead_ranks.size(), 1u);
    EXPECT_EQ(f.dead_ranks[0], 0);
    EXPECT_EQ(f.aborted_ranks, 2);
    EXPECT_FALSE(f.timed_out);
  }
}

TEST(MiniMpiFaults, SilentDeathIsDeclaredByTheHeartbeatDetector) {
  // announce_death=false models a partition: only the failure detector can
  // discover the loss, via the stale per-batch heartbeat counter.
  FaultPlan plan;
  plan.add_kill({0, FaultPoint::kBeforeBatch, 1});
  WorldOptions opt;
  opt.plan = &plan;
  opt.policy.deadline_s = 0.02;
  opt.policy.retries = 2;
  opt.policy.heartbeats = true;
  opt.policy.announce_death = false;
  CommErrorKind kind = CommErrorKind::kTimeout;
  try {
    run_world(2, opt, [&](Comm& comm) {
      comm.batch_tick(0);
      if (comm.rank() == 0) {
        // Publish heartbeat 1 before the send: rank 1 snapshots rank 0's
        // heartbeat when its second recv starts, after the first one has
        // returned. Stored after the send, the heartbeat could advance
        // inside rank 1's window, which the detector rightly reads as a
        // live, slow peer (kTimeout).
        comm.heartbeat(1);
        comm.send(1, Bytes(4));
        comm.batch_tick(1);  // dies here, silently
        FAIL() << "rank 0 survived its scripted kill";
      } else {
        comm.recv(0);
        comm.batch_tick(1);
        try {
          comm.recv(0);  // rank 0 is gone and will never send again
          FAIL() << "recv from a silently dead rank returned";
        } catch (const CommError& e) {
          kind = e.kind();
          throw;
        }
      }
    });
    FAIL() << "expected WorldFailure";
  } catch (const WorldFailure& f) {
    ASSERT_EQ(f.dead_ranks.size(), 1u);
    EXPECT_EQ(f.dead_ranks[0], 0);
  }
  EXPECT_EQ(kind, CommErrorKind::kPeerDead);
}

TEST(MiniMpiFaults, PeerExitUnblocksUnboundedRecv) {
  CommErrorKind kind = CommErrorKind::kTimeout;
  run_world(2, [&](Comm& comm) {
    if (comm.rank() == 1) {
      try {
        comm.recv(0);
        FAIL() << "recv from an exited rank returned";
      } catch (const CommError& e) {
        kind = e.kind();
      }
    }
  });
  EXPECT_EQ(kind, CommErrorKind::kPeerExited);
}

TEST(MiniMpiFaults, QueuedMessagesDrainBeforePeerGoneError) {
  // A message sent before the peer left must still be received; only the
  // recv past the end of the queue errors.
  bool got = false;
  CommErrorKind kind = CommErrorKind::kTimeout;
  run_world(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, Bytes(4));  // then exit immediately
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      got = comm.recv(0).size() == 4;
      try {
        comm.recv(0);
      } catch (const CommError& e) {
        kind = e.kind();
      }
    }
  });
  EXPECT_TRUE(got);
  EXPECT_EQ(kind, CommErrorKind::kPeerExited);
}

TEST(MiniMpiFaults, DroppedDeliveryNeverArrives) {
  FaultPlan plan;
  plan.add_drop({0, 1, 0, 0});  // first 0->1 delivery on tag 0
  WorldOptions opt;
  opt.plan = &plan;
  run_world(2, opt, [&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, make_payload(0, 1, 7));
      comm.send(1, make_payload(0, 1, 8));
    } else {
      const Bytes got = comm.recv(0);
      int tag = -1;
      std::memcpy(&tag, got.data() + 8, 4);
      EXPECT_EQ(tag, 8);  // the first delivery was consumed on the wire
    }
  });
}

TEST(MiniMpiFaults, DelayedDeliveryArrivesLateAndIsWaitedFor) {
  // The delay runs from the send instant, and rank 1 can reach its recv at
  // any point of it (rank 0 may be descheduled between its send and the
  // barrier), so the assertions are measured from the send: the message is
  // seen no earlier than the delay after it, and the recv's wait covers what
  // was left of the delay when rank 1 entered it. kSlack allows for the clock
  // read and the mailbox lock between entering recv and starting its wait.
  constexpr double kDelay = 0.05;
  constexpr double kSlack = 0.002;
  using Clock = std::chrono::steady_clock;
  FaultPlan plan;
  plan.add_delay({0, 1, 0, 0, kDelay});
  WorldOptions opt;
  opt.plan = &plan;
  Clock::time_point sent, entered, seen;
  double waited = -1.0;
  run_world(2, opt, [&](Comm& comm) {
    if (comm.rank() == 0) {
      sent = Clock::now();
      comm.send(1, Bytes(4));
      comm.barrier();  // the delivery is posted; only its visibility lags
    } else {
      comm.barrier();
      entered = Clock::now();
      comm.recv(0);
      seen = Clock::now();
      waited = comm.wait_seconds(0);
    }
  });
  const auto seconds = [](Clock::duration d) { return std::chrono::duration<double>(d).count(); };
  EXPECT_GE(seconds(seen - sent), kDelay);
  const double left = kDelay - seconds(entered - sent);
  EXPECT_GE(waited, left - kSlack) << "entered recv " << seconds(entered - sent) << " s after the send";
}

TEST(MiniMpiFaults, RetriesAbsorbADelayWithinTheDeadlineBudget) {
  // Per-attempt deadline 0.02s but a 0.05s delivery delay: the backed-off
  // retries (0.02 * (1+2+4+8) = 0.3s budget) must absorb it without error.
  FaultPlan plan;
  plan.add_delay({0, 1, 0, 0, 0.05});
  WorldOptions opt;
  opt.plan = &plan;
  opt.policy.deadline_s = 0.02;
  std::uint64_t retries = 0;
  bool received = false;
  run_world(2, opt, [&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, Bytes(4));
    } else {
      received = comm.recv(0).size() == 4;
      retries = comm.deadline_retries();
    }
  });
  EXPECT_TRUE(received);
  EXPECT_GT(retries, 0u);
}

TEST(MiniMpiFaults, BarrierDeadlineTimesOutTyped) {
  WorldOptions opt;
  opt.policy.deadline_s = 0.02;
  opt.policy.retries = 1;
  CommErrorKind kind = CommErrorKind::kPeerDead;
  std::atomic<bool> late_aborted{false};
  run_world(2, opt, [&](Comm& comm) {
    if (comm.rank() == 0) {
      try {
        comm.barrier();
        FAIL() << "barrier completed with a missing rank";
      } catch (const CommError& e) {
        kind = e.kind();
      }
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      // By now rank 0 gave up and exited; this barrier aborts instead of
      // waiting for a world that can never assemble.
      try {
        comm.barrier();
      } catch (const CommError&) {
        late_aborted.store(true);
      }
    }
  });
  EXPECT_EQ(kind, CommErrorKind::kTimeout);
  EXPECT_TRUE(late_aborted.load());
}

TEST(MiniMpiFaults, FinishDeadlineTimesOutTyped) {
  CommErrorKind kind = CommErrorKind::kPeerDead;
  std::atomic<bool> done{false};
  run_world(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      PendingExchange pending = comm.alltoall_start(std::vector<Bytes>(2), 1);
      try {
        pending.finish(0.01);
        FAIL() << "finish completed without the peer's buffer";
      } catch (const CommError& e) {
        kind = e.kind();
      }
      done.store(true);
    } else {
      // Never participates on tag 1; just outlives rank 0's deadline.
      while (!done.load()) std::this_thread::yield();
    }
  });
  EXPECT_EQ(kind, CommErrorKind::kTimeout);
}

TEST(MiniMpiFaults, DropAndDelayMatchTheNthDelivery) {
  FaultPlan plan;
  plan.add_drop({0, 1, 0, 1});
  plan.add_delay({0, 1, 0, 2, 0.5});
  double delay = 0.0;
  EXPECT_TRUE(plan.on_delivery(0, 1, 0, delay));  // nth=0: untouched
  EXPECT_DOUBLE_EQ(delay, 0.0);
  EXPECT_FALSE(plan.on_delivery(0, 1, 0, delay));  // nth=1: dropped
  EXPECT_TRUE(plan.on_delivery(0, 1, 0, delay));   // nth=2: delayed
  EXPECT_DOUBLE_EQ(delay, 0.5);
  delay = 0.0;
  EXPECT_TRUE(plan.on_delivery(1, 0, 0, delay));  // other direction: untouched
  EXPECT_DOUBLE_EQ(delay, 0.0);
}

TEST(MiniMpiFaults, ParseFaultPlanSpecGrammar) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(parse_fault_plan(
      "kill:rank=1,batch=2,point=mid;drop:src=0,dst=1,nth=3;delay:src=1,dst=0,ms=50,tag=1",
      plan, error))
      << error;
  EXPECT_FALSE(plan.empty());
  EXPECT_FALSE(plan.should_kill(1, FaultPoint::kMidExchange, 1));
  EXPECT_FALSE(plan.should_kill(1, FaultPoint::kBeforeBatch, 2));
  EXPECT_TRUE(plan.should_kill(1, FaultPoint::kMidExchange, 2));
  EXPECT_FALSE(plan.should_kill(1, FaultPoint::kMidExchange, 2));  // one-shot

  FaultPlan bad;
  EXPECT_FALSE(parse_fault_plan("kill:batch=2", bad, error));
  EXPECT_FALSE(parse_fault_plan("drop:src=0", bad, error));
  EXPECT_FALSE(parse_fault_plan("delay:src=0,dst=1", bad, error));
  EXPECT_FALSE(parse_fault_plan("explode:rank=1", bad, error));
  EXPECT_FALSE(parse_fault_plan("kill:rank=1,point=sometime", bad, error));
  EXPECT_FALSE(parse_fault_plan("", bad, error));
}

TEST(MiniMpi, LargePayloadIntegrity) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      Bytes big(1 << 20);
      for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 31);
      comm.send(1, std::move(big));
    } else {
      const Bytes got = comm.recv(0);
      ASSERT_EQ(got.size(), static_cast<std::size_t>(1 << 20));
      for (std::size_t i = 0; i < got.size(); i += 4097) {
        EXPECT_EQ(got[i], static_cast<std::uint8_t>(i * 31));
      }
    }
  });
}

}  // namespace
}  // namespace photon
