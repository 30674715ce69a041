#include "mp/minimpi.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace photon {

namespace {

using Clock = std::chrono::steady_clock;

// A mailbox entry. `visible_at` implements scripted delivery delays: the
// message is queued immediately (FIFO order is preserved — a delayed message
// also delays everything queued behind it, like a stalled TCP stream) but a
// take() will not surrender it before this instant. The default-constructed
// time_point is the epoch, i.e. immediately visible.
struct Msg {
  Bytes bytes;
  Clock::time_point visible_at{};
};

struct Mailbox {
  std::mutex m;
  std::condition_variable cv;
  std::deque<Msg> q;
};

// Liveness states per rank. Alive -> exited (fn returned or aborted) or
// alive -> dead (scripted kill with announce, or declared by the failure
// detector). Monotonic: a gone rank never comes back in this world.
constexpr std::uint8_t kAlive = 0;
constexpr std::uint8_t kExited = 1;
constexpr std::uint8_t kDead = 2;

// Live-world registry for poison_all_worlds (the watchdog's wedge path).
// Registration brackets the World lifetime exactly: construct/destruct on the
// run_world caller's stack.
void register_world(World* world);
void deregister_world(World* world);

}  // namespace

class World {
 public:
  enum class TakeStatus { kOk, kTimeout, kPeerGone, kPoisoned };

  // Counts `rank` as blocked in a deadline-bounded wait (every attempt of
  // it, retries included) while in scope; see in_bounded_wait.
  struct BoundedWait {
    BoundedWait(World& world, int rank) : count(world.waiting_[static_cast<std::size_t>(rank)]) {
      ++count;
    }
    BoundedWait(const BoundedWait&) = delete;
    ~BoundedWait() { --count; }
    std::atomic<int>& count;
  };

  World(int nranks, const WorldOptions& options)
      : nranks_(nranks),
        opts_(options),
        boxes_(static_cast<std::size_t>(nranks) * static_cast<std::size_t>(nranks) *
               static_cast<std::size_t>(kNumTags)),
        reduce_slots_(static_cast<std::size_t>(nranks), 0.0),
        life_(static_cast<std::size_t>(nranks)),
        hb_(static_cast<std::size_t>(nranks)),
        waiting_(static_cast<std::size_t>(nranks)),
        arrived_(static_cast<std::size_t>(nranks), 0) {
    register_world(this);
  }
  ~World() { deregister_world(this); }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // The watchdog's wedge path: one-way flag checked by every blocking wait,
  // plus a wake of everything currently blocked. Waiters throw
  // CommError(kWedged), which run_world folds into a WorldFailure.
  void poison() {
    poisoned_.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(barrier_m_);
      barrier_cv_.notify_all();
    }
    for (Mailbox& b : boxes_) {
      std::lock_guard<std::mutex> lock(b.m);
      b.cv.notify_all();
    }
  }
  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }

  int size() const { return nranks_; }
  FaultPlan* plan() const { return opts_.plan; }
  const CommPolicy& policy() const { return opts_.policy; }

  Mailbox& box(int src, int dst, int tag) {
    return boxes_[(static_cast<std::size_t>(src) * static_cast<std::size_t>(nranks_) +
                   static_cast<std::size_t>(dst)) *
                      static_cast<std::size_t>(kNumTags) +
                  static_cast<std::size_t>(tag)];
  }

  void deliver(int src, int dst, int tag, Bytes msg, double delay_s) {
    Mailbox& b = box(src, dst, tag);
    Msg entry;
    entry.bytes = std::move(msg);
    if (delay_s > 0.0) {
      entry.visible_at =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(delay_s));
    }
    {
      std::lock_guard<std::mutex> lock(b.m);
      b.q.push_back(std::move(entry));
    }
    b.cv.notify_one();
  }

  // Pops the next visible message from (src,tag). Every interval spent
  // blocked — including one that ends in a timeout — is accumulated into
  // `wait_s` (the overlap telemetry). deadline_s <= 0 blocks until a message
  // arrives or `src` is known gone; a bounded wait returns kTimeout on
  // expiry. Queued messages from a gone rank are drained before kPeerGone is
  // reported — a dead rank's last posted batch is still valid data.
  TakeStatus take(int src, int dst, int tag, double deadline_s, Bytes& out, double& wait_s) {
    Mailbox& b = box(src, dst, tag);
    std::unique_lock<std::mutex> lock(b.m);
    const bool bounded = deadline_s > 0.0;
    const Clock::time_point deadline =
        bounded ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(deadline_s))
                : Clock::time_point::max();
    for (;;) {
      if (poisoned()) return TakeStatus::kPoisoned;
      const Clock::time_point now = Clock::now();
      if (!b.q.empty()) {
        if (b.q.front().visible_at <= now) {
          out = std::move(b.q.front().bytes);
          b.q.pop_front();
          return TakeStatus::kOk;
        }
        if (bounded && now >= deadline) return TakeStatus::kTimeout;
        Clock::time_point until = b.q.front().visible_at;
        if (deadline < until) until = deadline;
        b.cv.wait_until(lock, until);
        wait_s += std::chrono::duration<double>(Clock::now() - now).count();
        continue;
      }
      if (life_[static_cast<std::size_t>(src)].load(std::memory_order_acquire) != kAlive) {
        return TakeStatus::kPeerGone;
      }
      if (bounded && now >= deadline) return TakeStatus::kTimeout;
      if (bounded) {
        b.cv.wait_until(lock, deadline);
      } else {
        b.cv.wait(lock);
      }
      wait_s += std::chrono::duration<double>(Clock::now() - now).count();
    }
  }

  std::uint8_t life_of(int rank) const {
    return life_[static_cast<std::size_t>(rank)].load(std::memory_order_acquire);
  }
  std::uint64_t heartbeat_of(int rank) const {
    return hb_[static_cast<std::size_t>(rank)].load(std::memory_order_acquire);
  }
  void set_heartbeat(int rank, std::uint64_t counter) {
    hb_[static_cast<std::size_t>(rank)].store(counter, std::memory_order_release);
  }
  // A rank blocked in a deadline-bounded wait is alive: its own deadline
  // will end the wait, so the failure detector must not declare it dead
  // for a heartbeat it cannot tick from there. (Two ranks starved on each
  // other then end in plain timeouts, not in declaring each other dead.)
  bool in_bounded_wait(int rank) const { return waiting_[static_cast<std::size_t>(rank)] > 0; }

  // Records a death for the post-join WorldFailure. Under announce (the
  // fail-stop model) the rank is also marked gone, which wakes and aborts
  // every peer blocked on it; a silent death leaves discovery to the
  // heartbeat detector.
  void record_death(int rank, bool announce) {
    {
      std::lock_guard<std::mutex> lock(record_m_);
      if (std::find(dead_.begin(), dead_.end(), rank) == dead_.end()) dead_.push_back(rank);
    }
    if (announce) mark_gone(rank, kDead);
  }

  // The failure detector's verdict: a peer whose heartbeat went stale
  // through every retry. Same effect as an announced kill.
  void declare_dead(int rank) { record_death(rank, true); }

  void mark_exited(int rank) { mark_gone(rank, kExited); }

  void record_abort(CommErrorKind kind) {
    std::lock_guard<std::mutex> lock(record_m_);
    ++aborted_;
    if (kind == CommErrorKind::kTimeout) timed_out_ = true;
  }

  bool failed() const {
    std::lock_guard<std::mutex> lock(record_m_);
    return !dead_.empty() || aborted_ > 0 || timed_out_;
  }
  WorldFailure make_failure() const {
    std::lock_guard<std::mutex> lock(record_m_);
    std::vector<int> dead = dead_;
    std::sort(dead.begin(), dead.end());
    return WorldFailure(std::move(dead), aborted_, timed_out_);
  }

  void barrier(int rank, std::uint64_t& retries) {
    std::unique_lock<std::mutex> lock(barrier_m_);
    if (any_gone_) throw_collective_abort();
    if (poisoned()) throw_poisoned();
    const std::uint64_t gen = barrier_gen_;
    arrived_[static_cast<std::size_t>(rank)] = 1;
    if (++barrier_count_ == nranks_) {
      barrier_count_ = 0;
      ++barrier_gen_;
      std::fill(arrived_.begin(), arrived_.end(), char{0});
      barrier_cv_.notify_all();
      return;
    }
    const CommPolicy& pol = opts_.policy;
    const auto released = [&] { return barrier_gen_ != gen; };
    if (pol.deadline_s <= 0.0) {
      // Unbounded wait — but a rank death/exit (or a watchdog poison) still
      // aborts the barrier: the missing participant can never arrive, so
      // waiting on is a hang.
      barrier_cv_.wait(lock, [&] { return released() || any_gone_ || poisoned(); });
      if (released()) return;
      leave_barrier(rank);
      if (poisoned() && !any_gone_) throw_poisoned();
      throw_collective_abort();
    }
    const BoundedWait waiting(*this, rank);
    // Baseline heartbeat snapshot: a missing rank whose counter advances
    // during our waits is alive (slow), not dead.
    std::vector<std::uint64_t> hb0(static_cast<std::size_t>(nranks_));
    for (int r = 0; r < nranks_; ++r) hb0[static_cast<std::size_t>(r)] = heartbeat_of(r);
    double d = pol.deadline_s;
    for (int attempt = 0;; ++attempt) {
      const Clock::time_point deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(d));
      barrier_cv_.wait_until(lock, deadline,
                             [&] { return released() || any_gone_ || poisoned(); });
      if (released()) return;
      if (poisoned() && !any_gone_) {
        leave_barrier(rank);
        throw_poisoned();
      }
      if (any_gone_) {
        leave_barrier(rank);
        throw_collective_abort();
      }
      if (attempt < pol.retries) {
        ++retries;
        d *= pol.backoff;
        continue;
      }
      // Out of retries. Declare the missing ranks dead if every one of them
      // has a stale heartbeat; if any is provably alive this is load skew or
      // a lost message, and only a timeout can be reported.
      std::vector<int> stale;
      bool any_advancing = false;
      for (int r = 0; r < nranks_; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        if (arrived_[ri]) continue;
        if (heartbeat_of(r) != hb0[ri] || in_bounded_wait(r)) {
          any_advancing = true;
        } else {
          stale.push_back(r);
        }
      }
      leave_barrier(rank);
      if (pol.heartbeats && !any_advancing && !stale.empty()) {
        for (const int r : stale) declare_dead_locked(r);
        barrier_cv_.notify_all();
        throw CommError(CommErrorKind::kPeerDead, stale.front(), -1,
                        "MiniMPI: barrier declared stale rank(s) dead");
      }
      throw CommError(CommErrorKind::kTimeout, -1, -1,
                      "MiniMPI: barrier deadline expired");
    }
  }

  // Writes this rank's value, barriers, reduces, barriers again so the slots
  // can be safely reused by the next collective.
  double allreduce(int rank, double v, bool use_max, std::uint64_t& retries) {
    {
      std::lock_guard<std::mutex> lock(barrier_m_);
      reduce_slots_[static_cast<std::size_t>(rank)] = v;
    }
    barrier(rank, retries);
    double acc = use_max ? reduce_slots_[0] : 0.0;
    for (int r = 0; r < nranks_; ++r) {
      const double x = reduce_slots_[static_cast<std::size_t>(r)];
      if (use_max) {
        acc = x > acc ? x : acc;
      } else {
        acc += x;
      }
    }
    barrier(rank, retries);
    return acc;
  }

  std::atomic<std::uint64_t> total_bytes{0};
  std::atomic<std::uint64_t> total_messages{0};

 private:
  // Flags the rank gone (first writer wins), then wakes the barrier and
  // every mailbox a peer could be blocked on. Lock order is barrier_m_ then
  // box mutexes; nothing locks in the opposite order.
  void mark_gone(int rank, std::uint8_t state) {
    std::uint8_t expected = kAlive;
    if (!life_[static_cast<std::size_t>(rank)].compare_exchange_strong(
            expected, state, std::memory_order_acq_rel)) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(barrier_m_);
      any_gone_ = true;
      barrier_cv_.notify_all();
    }
    wake_receivers_of(rank);
  }

  // Same as declare_dead but callable while holding barrier_m_ (the barrier
  // detector path): sets the flags directly instead of re-locking.
  void declare_dead_locked(int rank) {
    {
      std::lock_guard<std::mutex> lock(record_m_);
      if (std::find(dead_.begin(), dead_.end(), rank) == dead_.end()) dead_.push_back(rank);
    }
    std::uint8_t expected = kAlive;
    if (life_[static_cast<std::size_t>(rank)].compare_exchange_strong(
            expected, kDead, std::memory_order_acq_rel)) {
      any_gone_ = true;
      wake_receivers_of(rank);
    }
  }

  void wake_receivers_of(int rank) {
    for (int dst = 0; dst < nranks_; ++dst) {
      for (int tag = 0; tag < kNumTags; ++tag) {
        Mailbox& b = box(rank, dst, tag);
        std::lock_guard<std::mutex> lock(b.m);
        b.cv.notify_all();
      }
    }
  }

  // Un-count this rank from the current barrier before throwing, so ranks
  // that arrive later see consistent state (they will abort on any_gone_ or
  // their own deadline, not on a phantom arrival).
  void leave_barrier(int rank) {
    --barrier_count_;
    arrived_[static_cast<std::size_t>(rank)] = 0;
  }

  [[noreturn]] static void throw_poisoned() {
    throw CommError(CommErrorKind::kWedged, -1, -1,
                    "MiniMPI: world poisoned by the stuck-run watchdog");
  }

  [[noreturn]] void throw_collective_abort() {
    bool dead = false;
    for (int r = 0; r < nranks_; ++r) {
      if (life_of(r) == kDead) dead = true;
    }
    throw CommError(dead ? CommErrorKind::kPeerDead : CommErrorKind::kPeerExited, -1, -1,
                    dead ? "MiniMPI: barrier aborted (rank dead)"
                         : "MiniMPI: barrier aborted (rank left the world)");
  }

  int nranks_;
  WorldOptions opts_;
  std::vector<Mailbox> boxes_;
  std::vector<double> reduce_slots_;
  std::vector<std::atomic<std::uint8_t>> life_;
  std::vector<std::atomic<std::uint64_t>> hb_;
  std::vector<std::atomic<int>> waiting_;  // bounded waits in progress per rank

  std::mutex barrier_m_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  std::uint64_t barrier_gen_ = 0;
  std::vector<char> arrived_;  // guarded by barrier_m_
  bool any_gone_ = false;      // guarded by barrier_m_

  std::atomic<bool> poisoned_{false};

  mutable std::mutex record_m_;
  std::vector<int> dead_;
  int aborted_ = 0;
  bool timed_out_ = false;
};

namespace {

std::mutex g_worlds_m;
std::vector<World*> g_worlds;

void register_world(World* world) {
  std::lock_guard<std::mutex> lock(g_worlds_m);
  g_worlds.push_back(world);
}

void deregister_world(World* world) {
  std::lock_guard<std::mutex> lock(g_worlds_m);
  g_worlds.erase(std::remove(g_worlds.begin(), g_worlds.end(), world), g_worlds.end());
}

}  // namespace

void poison_all_worlds() {
  // The registry lock brackets every World's lifetime, so each pointer here
  // is live for the duration of its poison() call.
  std::lock_guard<std::mutex> lock(g_worlds_m);
  for (World* world : g_worlds) world->poison();
}

int Comm::size() const { return world_->size(); }

void Comm::send(int dst, Bytes msg, int tag) {
  if (tag < 0 || tag >= kNumTags) throw std::invalid_argument("MiniMPI: tag out of range");
  double delay_s = 0.0;
  if (dst != rank_) {
    bytes_sent_ += msg.size();
    ++messages_sent_;
    world_->total_bytes.fetch_add(msg.size(), std::memory_order_relaxed);
    world_->total_messages.fetch_add(1, std::memory_order_relaxed);
    if (FaultPlan* plan = world_->plan()) {
      // A dropped delivery was sent (the counters above stand) but never
      // arrives; a delayed one arrives late. Self-deliveries are not on the
      // wire and not faultable.
      if (!plan->on_delivery(rank_, dst, tag, delay_s)) return;
    }
  }
  world_->deliver(rank_, dst, tag, std::move(msg), delay_s);
}

Bytes Comm::recv(int src, int tag) { return recv_deadline(src, tag, world_->policy().deadline_s); }

Bytes Comm::recv(int src, int tag, double deadline_s) {
  return recv_deadline(src, tag, deadline_s);
}

Bytes Comm::recv_deadline(int src, int tag, double deadline_s) {
  if (tag < 0 || tag >= kNumTags) throw std::invalid_argument("MiniMPI: tag out of range");
  double& wait_ref = wait_by_tag_[static_cast<std::size_t>(tag)];
  const auto throw_gone = [&]() -> Bytes {
    const bool dead = world_->life_of(src) == kDead;
    std::ostringstream what;
    what << "MiniMPI: recv from rank " << src << " tag " << tag
         << (dead ? ": peer dead" : ": peer left the world with nothing queued");
    throw CommError(dead ? CommErrorKind::kPeerDead : CommErrorKind::kPeerExited, src, tag,
                    what.str());
  };
  const auto throw_poisoned = [&]() -> Bytes {
    std::ostringstream what;
    what << "MiniMPI: recv from rank " << src << " tag " << tag
         << ": world poisoned by the stuck-run watchdog";
    throw CommError(CommErrorKind::kWedged, src, tag, what.str());
  };
  Bytes out;
  if (deadline_s <= 0.0) {
    const World::TakeStatus st = world_->take(src, rank_, tag, 0.0, out, wait_ref);
    if (st == World::TakeStatus::kOk) return out;
    if (st == World::TakeStatus::kPoisoned) return throw_poisoned();
    return throw_gone();  // kPeerGone — an unbounded take cannot time out
  }
  const CommPolicy& pol = world_->policy();
  const World::BoundedWait waiting(*world_, rank_);
  double d = deadline_s;
  std::uint64_t hb_last = world_->heartbeat_of(src);
  bool advanced = false;
  for (int attempt = 0;; ++attempt) {
    const World::TakeStatus st = world_->take(src, rank_, tag, d, out, wait_ref);
    if (st == World::TakeStatus::kOk) return out;
    if (st == World::TakeStatus::kPoisoned) return throw_poisoned();
    if (st == World::TakeStatus::kPeerGone) return throw_gone();
    const std::uint64_t hb = world_->heartbeat_of(src);
    if (hb != hb_last) {
      advanced = true;
      hb_last = hb;
    }
    if (attempt >= pol.retries) {
      std::ostringstream what;
      if (pol.heartbeats && !advanced && !world_->in_bounded_wait(src)) {
        // Missed-deadline threshold reached and the peer's liveness counter
        // never moved: the failure detector declares it dead, waking every
        // other rank blocked on it.
        world_->declare_dead(src);
        what << "MiniMPI: rank " << src << " declared dead after " << (attempt + 1)
             << " missed deadlines on tag " << tag;
        throw CommError(CommErrorKind::kPeerDead, src, tag, what.str());
      }
      what << "MiniMPI: recv from rank " << src << " tag " << tag << " timed out after "
           << (attempt + 1) << " attempts";
      throw CommError(CommErrorKind::kTimeout, src, tag, what.str());
    }
    ++deadline_retries_;
    d *= pol.backoff;
  }
}

void Comm::barrier() { world_->barrier(rank_, deadline_retries_); }

void Comm::heartbeat(std::uint64_t counter) { world_->set_heartbeat(rank_, counter); }

void Comm::fault_point(FaultPoint point, std::uint64_t index) {
  FaultPlan* plan = world_->plan();
  if (!plan || !plan->should_kill(rank_, point, index)) return;
  world_->record_death(rank_, world_->policy().announce_death);
  throw RankKilled(rank_, point, index);
}

PendingExchange Comm::alltoall_start(std::vector<Bytes> outgoing, int tag) {
  const int P = size();
  Bytes self = std::move(outgoing[static_cast<std::size_t>(rank_)]);
  for (int d = 0; d < P; ++d) {
    if (d == rank_) continue;
    send(d, std::move(outgoing[static_cast<std::size_t>(d)]), tag);
  }
  return PendingExchange(this, tag, std::move(self));
}

std::vector<Bytes> PendingExchange::finish() {
  return finish(comm_->world_->policy().deadline_s);
}

std::vector<Bytes> PendingExchange::finish(double deadline_s) {
  if (finished_) throw std::logic_error("MiniMPI: PendingExchange finished twice");
  finished_ = true;
  const int P = comm_->size();
  std::vector<Bytes> incoming(static_cast<std::size_t>(P));
  incoming[static_cast<std::size_t>(comm_->rank())] = std::move(self_);
  for (int s = 0; s < P; ++s) {
    if (s == comm_->rank()) continue;
    incoming[static_cast<std::size_t>(s)] = comm_->recv(s, tag_, deadline_s);
  }
  return incoming;
}

std::vector<Bytes> Comm::alltoall(std::vector<Bytes> outgoing, int tag) {
  return alltoall_start(std::move(outgoing), tag).finish();
}

double Comm::allreduce_sum(double v) {
  return world_->allreduce(rank_, v, false, deadline_retries_);
}
double Comm::allreduce_max(double v) {
  return world_->allreduce(rank_, v, true, deadline_retries_);
}
std::uint64_t Comm::allreduce_sum_u64(std::uint64_t v) {
  // 2^53 headroom is ample for photon counts in one run.
  return static_cast<std::uint64_t>(
      world_->allreduce(rank_, static_cast<double>(v), false, deadline_retries_));
}
std::uint64_t Comm::allreduce_min_u64(std::uint64_t v) {
  // The max of the negations; exact below 2^53, like the sum.
  return static_cast<std::uint64_t>(
      -world_->allreduce(rank_, -static_cast<double>(v), true, deadline_retries_));
}

WorldStats run_world(int nranks, const WorldOptions& options,
                     const std::function<void(Comm&)>& fn) {
  World world(nranks, options);
  std::exception_ptr first_error = nullptr;
  std::mutex error_m;
  const auto rank_main = [&](int r) {
    Comm comm(&world, r);
    try {
      fn(comm);
      world.mark_exited(r);
    } catch (const RankKilled&) {
      // Scripted death: recorded by fault_point. Under announce_death the
      // rank is already marked gone; a silent death leaves no trace here —
      // the zombie is for the heartbeat detector to find.
    } catch (const CommError& e) {
      // Collateral abort: this rank was blocked on a failure elsewhere (or
      // hit its own deadline). Not a program error — folded into the
      // post-join WorldFailure.
      world.record_abort(e.kind());
      world.mark_exited(r);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(error_m);
        if (!first_error) first_error = std::current_exception();
      }
      world.mark_exited(r);
    }
  };
  // Rank 0 runs on the calling thread: a one-rank world costs no thread, and
  // rank 0's allocations stay in the caller's heap arena instead of a
  // per-run thread's.
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(std::max(nranks - 1, 0)));
  for (int r = 1; r < nranks; ++r) threads.emplace_back(rank_main, r);
  if (nranks > 0) rank_main(0);
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
  if (world.failed()) throw world.make_failure();
  return {world.total_bytes.load(), world.total_messages.load()};
}

WorldStats run_world(int nranks, const std::function<void(Comm&)>& fn) {
  return run_world(nranks, WorldOptions{}, fn);
}

}  // namespace photon
