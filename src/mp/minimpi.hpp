// MiniMPI: an in-process message-passing runtime with MPI-shaped semantics.
//
// The paper implements distributed Photon on MPI; this environment has no MPI
// installation, so the distributed algorithm (Fig 5.3) runs against this
// substrate instead: ranks are threads, each with logically private state,
// exchanging byte buffers through per-(src,dst,tag) mailboxes. Provided
// primitives mirror the MPI subset the paper needs — buffered point-to-point
// send/recv (MPI_Send/MPI_Recv with a small tag space), barrier, all-to-all
// (the photon queue exchange, MPI_Alltoallv), a split-phase all-to-all
// (MPI_Ialltoallv: alltoall_start posts the sends and returns immediately;
// PendingExchange::finish is the matching MPI_Wait) and allreduce (batch-size
// agreement) — plus traffic counters and a blocked-receive clock that feed
// the performance model. See DESIGN.md, "Substitutions".
//
// Fault semantics (mp/fault.hpp; DESIGN.md "Fault model"): a world can run
// under a WorldOptions carrying a scripted FaultPlan and a CommPolicy of
// deadlines/heartbeats. Blocking paths then resolve instead of hanging — a
// typed CommError for a deadline expiry or a dead peer — and run_world
// reports lost ranks as a WorldFailure after all threads joined. The
// no-options overload preserves the historical block-forever semantics
// bit for bit.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "mp/fault.hpp"

namespace photon {

using Bytes = std::vector<std::uint8_t>;

struct WorldStats {
  std::uint64_t total_bytes = 0;
  std::uint64_t total_messages = 0;
};

// Fault-injection and deadline policy for one world. The default — no plan,
// block-forever policy — is exactly the historical behavior.
struct WorldOptions {
  FaultPlan* plan = nullptr;  // not owned; shared across recovery legs
  CommPolicy policy;
};

class World;
class Comm;

// Message channels: a send on one tag can never be received on another, so
// two in-flight exchanges (e.g. the spatial backend's synchronous photon
// migration and its overlapped record drain) keep their streams separate.
inline constexpr int kNumTags = 4;

// Handle for a split-phase all-to-all started with Comm::alltoall_start. The
// outgoing buffers are already on the wire when the handle is returned; the
// incoming buffers are claimed by finish(). Exactly one finish() per handle,
// on the owning rank, before that rank starts another exchange on the same
// tag (mailboxes are FIFO per (src,dst,tag)).
class PendingExchange {
 public:
  // Moves transfer the one finish() permit: the moved-from handle reads as
  // already finished, so two handles can never drain the same exchange.
  PendingExchange(PendingExchange&& other) noexcept
      : comm_(other.comm_), tag_(other.tag_), self_(std::move(other.self_)),
        finished_(other.finished_) {
    other.finished_ = true;
  }
  PendingExchange& operator=(PendingExchange&& other) noexcept {
    comm_ = other.comm_;
    tag_ = other.tag_;
    self_ = std::move(other.self_);
    finished_ = other.finished_;
    other.finished_ = true;
    return *this;
  }
  PendingExchange(const PendingExchange&) = delete;
  PendingExchange& operator=(const PendingExchange&) = delete;

  // Blocks until every rank's buffer has arrived; incoming[s] is from rank s.
  // Under a world deadline policy, throws CommError instead of blocking past
  // the (retried, backed-off) deadline; the handle reads as finished either
  // way, so an aborted exchange cannot be drained twice.
  std::vector<Bytes> finish();
  // Same, with an explicit per-call deadline overriding the world policy
  // (<= 0 blocks forever).
  std::vector<Bytes> finish(double deadline_s);

 private:
  friend class Comm;
  PendingExchange(Comm* comm, int tag, Bytes self) : comm_(comm), tag_(tag), self_(std::move(self)) {}

  Comm* comm_;
  int tag_;
  Bytes self_;
  bool finished_ = false;
};

// Per-rank communicator handle. Not thread-safe across ranks by design: each
// rank owns exactly one Comm, like an MPI process.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  // Buffered, non-blocking send (MPI_Send with buffering semantics). Subject
  // to the world's FaultPlan: a scripted drop consumes the message on the
  // wire, a scripted delay makes it visible to the receiver late.
  void send(int dst, Bytes msg, int tag = 0);
  // Blocking receive of the next message from `src` on `tag` (MPI_Recv).
  // Under the world deadline policy this retries with backoff and then
  // throws a typed CommError: kTimeout if the peer's heartbeat advanced (or
  // there is no detector), kPeerDead if the failure detector declared it, or
  // kPeerExited if the peer left the world with nothing queued.
  Bytes recv(int src, int tag = 0);
  // Same, with an explicit deadline overriding the world policy (<= 0 blocks
  // forever — but a dead/exited peer still unblocks with a CommError).
  Bytes recv(int src, int tag, double deadline_s);

  // Under the world deadline policy, throws CommError on expiry (a barrier
  // whose missing ranks have stale heartbeats declares them dead first);
  // any barrier also aborts when a rank is known dead or departed.
  void barrier();

  // Exchanges one buffer with every rank (MPI_Alltoallv): outgoing[d] goes to
  // rank d (outgoing[rank()] is delivered to self); returns incoming[s] from
  // each rank s. Counts as size()-1 messages.
  std::vector<Bytes> alltoall(std::vector<Bytes> outgoing, int tag = 0);

  // Split-phase all-to-all (MPI_Ialltoallv + MPI_Wait): posts every outgoing
  // buffer immediately and returns; the caller keeps computing and claims the
  // incoming buffers later with PendingExchange::finish(). This is what lets
  // a rank trace batch k+1 while batch k's records drain.
  PendingExchange alltoall_start(std::vector<Bytes> outgoing, int tag = 0);

  double allreduce_sum(double v);
  double allreduce_max(double v);
  std::uint64_t allreduce_sum_u64(std::uint64_t v);
  std::uint64_t allreduce_min_u64(std::uint64_t v);

  // Publishes this rank's liveness counter (the per-batch heartbeat the
  // failure detector reads). Cheap enough to call unconditionally.
  void heartbeat(std::uint64_t counter);
  // Scripted-kill hook: if the world's FaultPlan has an armed kill for
  // (rank, point, index), marks this rank dead (fail-stop under
  // announce_death, silent otherwise) and throws RankKilled.
  void fault_point(FaultPoint point, std::uint64_t index);
  // Per-batch liveness tick: heartbeat(index) + fault_point(kBeforeBatch).
  void batch_tick(std::uint64_t index) {
    heartbeat(index);
    fault_point(FaultPoint::kBeforeBatch, index);
  }

  // Traffic actually put on the "wire" by this rank (self-delivery excluded).
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t messages_sent() const { return messages_sent_; }
  // Deadline expiries this rank retried through (recv/finish/barrier): how
  // much slack the CommPolicy absorbed without declaring anything.
  std::uint64_t deadline_retries() const { return deadline_retries_; }

  // Wall time this rank has spent blocked in recv (mailbox empty — the
  // compute/communication overlap metric: a fully overlapped exchange finds
  // every buffer already delivered and adds nothing here). Accounted per tag,
  // so an overlapped exchange's waits can be read separately from a
  // deliberately synchronous one on another tag. Time blocked on an attempt
  // that *timed out* counts too — the wait was real even though no message
  // came. Barrier and allreduce waits are deliberately excluded; they
  // measure load skew, not exchange latency.
  double wait_seconds(int tag) const { return wait_by_tag_[static_cast<std::size_t>(tag)]; }
  double wait_seconds() const {
    double total = 0.0;
    for (const double w : wait_by_tag_) total += w;
    return total;
  }

 private:
  friend class World;
  friend class PendingExchange;
  friend WorldStats run_world(int nranks, const WorldOptions& options,
                              const std::function<void(Comm&)>& fn);
  Comm(World* world, int rank) : world_(world), rank_(rank) {}

  Bytes recv_deadline(int src, int tag, double deadline_s);

  World* world_;
  int rank_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t deadline_retries_ = 0;
  std::array<double, kNumTags> wait_by_tag_{};
};

// Runs `fn` on `nranks` concurrent ranks — rank 0 on the calling thread,
// the others on threads of their own — and joins them. The first exception
// thrown by any rank is rethrown after all ranks finish or abort — except
// the fault paths: scripted kills (RankKilled) and the CommErrors they
// cascade into are collected instead, and reported as one WorldFailure after
// the join when any rank died or timed out.
WorldStats run_world(int nranks, const WorldOptions& options,
                     const std::function<void(Comm&)>& fn);
// Historical entry point: no faults, block-forever policy.
WorldStats run_world(int nranks, const std::function<void(Comm&)>& fn);

// Poisons every live world (a global registry tracks them): all blocked and
// future mailbox waits, barriers and collectives throw
// CommError(CommErrorKind::kWedged) instead of blocking. The watchdog's
// wedge path (engine/governor.hpp): turns a hung world into a typed
// WorldFailure the elastic runner can convert into a WedgedError. One-way
// per world; new worlds start unpoisoned.
void poison_all_worlds();

}  // namespace photon
