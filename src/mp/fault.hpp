// Fault model for the MiniMPI substrate.
//
// The paper's production farm lost processes mid-run; MiniMPI's ranks are
// threads and cannot crash for real, so failures are *scripted*: a FaultPlan
// kills a rank at a chosen point in its batch loop, or drops/delays a chosen
// mailbox delivery. The runtime surfaces the consequences the way a real
// network stack would — a typed CommError on the blocked peers (timeout, or
// peer-declared-dead via the heartbeat failure detector) instead of a hang,
// and a WorldFailure from run_world naming the lost ranks — so the engine's
// elastic runner (engine/recovery.hpp) can rewind to the last checkpoint and
// re-shard the dead rank's photon slice across the survivors. See DESIGN.md,
// "Fault model".
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/error.hpp"

namespace photon {

// Where in a rank's batch loop a scripted kill fires. The three points pin
// the three pipeline states recovery must handle: before any tracing of
// batch k, after the batch's sends are posted but before the matching
// finish, and after the batch's records are applied.
enum class FaultPoint { kBeforeBatch, kMidExchange, kAfterBatch };
const char* fault_point_name(FaultPoint p);

enum class CommErrorKind {
  kTimeout,     // deadline expired after bounded retries; peer may be alive
  kPeerDead,    // peer killed, or declared dead by the failure detector
  kPeerExited,  // peer left the world and can never send again
  kWedged,      // world poisoned by the stuck-run watchdog (poison_all_worlds)
};
const char* comm_error_kind_name(CommErrorKind k);

// Thrown by recv/finish/barrier instead of blocking forever: every blocking
// path in a world with a deadline policy (or a dead rank) resolves to one of
// these. `peer` is the rank waited on (-1 for collectives), `tag` the
// channel (-1 for collectives). Part of the EngineError taxonomy
// (core/error.hpp, EngineErrorKind::kComm — exit code 4); kind() keeps the
// fine-grained CommErrorKind.
class CommError : public EngineError {
 public:
  CommError(CommErrorKind kind, int peer, int tag, const std::string& what)
      : EngineError(EngineErrorKind::kComm, what), kind_(kind), peer_(peer), tag_(tag) {}
  CommErrorKind kind() const { return kind_; }
  int peer() const { return peer_; }
  int tag() const { return tag_; }

 private:
  CommErrorKind kind_;
  int peer_;
  int tag_;
};

// Thrown on the rank a KillFault targets (by Comm::fault_point). Backends
// let it propagate: run_world catches it, records the death, and reports it
// in the WorldFailure after the join.
class RankKilled : public std::runtime_error {
 public:
  RankKilled(int rank, FaultPoint point, std::uint64_t batch);
  int rank;
  FaultPoint point;
  std::uint64_t batch;
};

// Thrown by run_world (after every rank thread joined) when the world lost
// ranks or a communication deadline expired: the run's partial work is gone,
// but the caller knows exactly who died and can re-run at the survivor
// shape from its last checkpoint.
class WorldFailure : public std::runtime_error {
 public:
  WorldFailure(std::vector<int> dead, int aborted, bool timed_out);
  std::vector<int> dead_ranks;  // killed or declared dead, ascending
  int aborted_ranks = 0;        // ranks that unwound on a CommError
  bool timed_out = false;       // some rank hit a deadline (kTimeout)
};

struct KillFault {
  int rank = 0;
  FaultPoint point = FaultPoint::kBeforeBatch;
  std::uint64_t batch = 0;  // batch/window/round index the kill fires at
};

// Drops (or delays) the nth cross-rank delivery on (src,dst,tag), counting
// from 0 in delivery order. Self-deliveries never touch the wire and are
// not counted or faultable.
struct DropFault {
  int src = 0;
  int dst = 0;
  int tag = 0;
  std::uint64_t nth = 0;
};

struct DelayFault {
  int src = 0;
  int dst = 0;
  int tag = 0;
  std::uint64_t nth = 0;
  double delay_s = 0.0;
};

// A scripted set of faults, consulted by the MiniMPI hot paths. Thread-safe;
// every entry fires exactly once. The plan is shared across recovery legs
// (the elastic runner re-runs a failed leg in a fresh world), so a consumed
// kill does not re-fire in the recovered world — which is what lets a
// recovered run complete at the survivor shape.
class FaultPlan {
 public:
  void add_kill(const KillFault& f);
  void add_drop(const DropFault& f);
  void add_delay(const DelayFault& f);

  bool empty() const;

  // Runtime hooks. should_kill consumes a matching armed kill; on_delivery
  // advances the (src,dst,tag) delivery counter, consumes a matching armed
  // drop (returns false: do not deliver) or delay (delay_s set, deliver
  // late). Delivery counters persist across legs like the armed bits.
  bool should_kill(int rank, FaultPoint point, std::uint64_t batch);
  bool on_delivery(int src, int dst, int tag, double& delay_s);

 private:
  mutable std::mutex m_;
  struct Armed {
    bool armed = true;
  };
  struct ArmedKill : Armed {
    KillFault f;
  };
  struct ArmedDrop : Armed {
    DropFault f;
  };
  struct ArmedDelay : Armed {
    DelayFault f;
  };
  std::vector<ArmedKill> kills_;
  std::vector<ArmedDrop> drops_;
  std::vector<ArmedDelay> delays_;
  std::map<std::tuple<int, int, int>, std::uint64_t> delivered_;
};

// Parses a CLI fault spec into `plan`. Entries are ';'-separated, each
// `kind:key=value,...`:
//   kill:rank=R[,batch=K][,point=before|mid|after]
//   drop:src=S,dst=D[,tag=T][,nth=N]
//   delay:src=S,dst=D,ms=M[,tag=T][,nth=N]
// Returns false with a diagnostic in `error` on malformed specs.
bool parse_fault_plan(const std::string& spec, FaultPlan& plan, std::string& error);

// Deadline/heartbeat policy for a world's blocking paths (recv, finish, and
// the barrier under every collective). The defaults preserve the historical
// semantics exactly: block forever, no failure detector.
struct CommPolicy {
  // Per-attempt deadline for a blocked recv/finish/barrier; 0 blocks forever.
  double deadline_s = 0.0;
  // Missed deadlines tolerated before erroring: total blocked time is
  // deadline_s * (1 + backoff + backoff^2 + ... + backoff^retries).
  int retries = 3;
  double backoff = 2.0;
  // When set, ranks publish per-batch liveness counters (Comm::heartbeat)
  // and a waiter whose retries expired declares the peer dead if its counter
  // never advanced while waiting and the peer is not itself blocked in a
  // deadline-bounded wait — the failure-detector path. Without it an
  // expired wait is only ever a kTimeout.
  bool heartbeats = false;
  // When set (the default), a scripted kill marks the rank dead immediately
  // and wakes every blocked peer — fail-stop semantics. When cleared the
  // rank dies silently (a partition, not a crash) and only the heartbeat
  // detector can discover it; every blocking path the survivors use must
  // then have a deadline or the world genuinely hangs, as a real one would.
  bool announce_death = true;
};

}  // namespace photon
