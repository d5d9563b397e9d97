// vmpi — a threads-based message-passing runtime reproducing the paper's
// execution model: every execution client is one process of a data-parallel
// application, clients are "colored" by application id and split into
// per-application communicators (MPI_Comm_split, paper §IV-C), then run a
// pre-linked application subroutine.
//
// Ranks run on a work-stealing pool or as simulated fibers; point-to-point
// messages go through one mailbox plane (runtime/mailbox.hpp); every send
// crosses HybridDART (HybridDart::send: fault admission, then byte
// accounting against the sender/receiver core placement). This substitutes
// for MPI per DESIGN.md §1 while keeping real data movement and real
// concurrency.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <span>

#include "dart/dart.hpp"
#include "runtime/executor.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/sim.hpp"

namespace cods {

/// How run_collect dispatches rank bodies onto OS threads.
enum class ExecMode {
  /// Bounded work-stealing pool with blocking-aware escalation
  /// (WorkStealingExecutor). The default: thread count scales with
  /// hardware concurrency plus concurrently-blocked ranks, not with the
  /// rank count.
  kPooled,
  /// Single-threaded discrete-event enactment (runtime/sim.hpp,
  /// docs/SIMULATION.md): ranks run as cooperative fibers scheduled by
  /// virtual timestamp, so 100k-rank scenarios enact in seconds with the
  /// same traces, ledgers and failure order as the live modes.
  kSimulate,
};

class Runtime;

/// A communicator: an ordered group of global ranks. Value object; each
/// rank holds its own copy (like an MPI_Comm handle).
class Comm {
 public:
  Comm() = default;

  i32 rank() const { return my_index_; }
  i32 size() const { return static_cast<i32>(members_->size()); }
  bool valid() const { return runtime_ != nullptr && my_index_ >= 0; }
  i64 id() const { return comm_id_; }

  /// Application id used for metric attribution of this communicator's
  /// traffic (intra-application exchanges).
  i32 app_id() const { return app_id_; }
  void set_app_id(i32 app_id) { app_id_ = app_id; }

  /// Global rank of a communicator rank.
  i32 global_rank(i32 comm_rank) const;

  void send(i32 dst, i32 tag, std::span<const std::byte> payload) const;
  Message recv(i32 src, i32 tag) const;  ///< src may be kAnySource

  /// Non-blocking receive handle. test() polls; wait() blocks.
  class RecvRequest {
   public:
    /// True once a matching message arrived (and was claimed).
    bool test();
    /// Blocks until the message arrives and returns it.
    Message wait();

   private:
    friend class Comm;
    RecvRequest(const Comm* comm, i32 src, i32 tag)
        : comm_(comm), src_(src), tag_(tag) {}
    const Comm* comm_;
    i32 src_;
    i32 tag_;
    std::optional<Message> message_;
  };

  /// Posts a non-blocking receive. (Sends are always buffered and
  /// non-blocking in this runtime, so there is no isend counterpart.)
  RecvRequest irecv(i32 src, i32 tag) const { return RecvRequest(this, src, tag); }

  /// Combined send + receive with the same peer (safe against deadlock in
  /// pairwise exchanges since sends are buffered).
  Message sendrecv(i32 peer, i32 tag, std::span<const std::byte> payload) const {
    send(peer, tag, payload);
    return recv(peer, tag);
  }

  /// Typed convenience wrappers for trivially copyable values.
  template <typename T>
  void send_value(i32 dst, i32 tag, const T& value) const {
    static_assert(std::is_trivially_copyable_v<T>);
    send(dst, tag,
         std::span(reinterpret_cast<const std::byte*>(&value), sizeof(T)));
  }
  template <typename T>
  T recv_value(i32 src, i32 tag) const {
    static_assert(std::is_trivially_copyable_v<T>);
    const Message m = recv(src, tag);
    CODS_CHECK(m.payload.size() == sizeof(T), "typed recv size mismatch");
    T value;
    std::memcpy(&value, m.payload.data(), sizeof(T));
    return value;
  }

  void barrier() const;
  void bcast(i32 root, std::vector<std::byte>& data) const;
  std::vector<std::vector<std::byte>> gather(
      i32 root, std::span<const std::byte> contribution) const;

  /// Root distributes chunks[r] to every rank r; returns this rank's chunk.
  /// `chunks` is only read at the root (must have size() entries there).
  std::vector<std::byte> scatter(
      i32 root, const std::vector<std::vector<std::byte>>& chunks) const;

  /// Every rank sends send[j] to rank j and receives one buffer from every
  /// rank (result[i] came from rank i). The M x N workhorse collective.
  std::vector<std::vector<std::byte>> alltoallv(
      const std::vector<std::vector<std::byte>>& send) const;
  i64 allreduce_sum(i64 value) const;
  double allreduce_sum(double value) const;
  i64 allreduce_max(i64 value) const;
  double allreduce_max(double value) const;
  double allreduce_min(double value) const;

  /// Collective: partitions this communicator by `color` (>= 0); ranks with
  /// the same color form a new communicator ordered by (key, old rank).
  /// A negative color yields an invalid Comm (not a member of any group).
  Comm split(i32 color, i32 key) const;

 private:
  friend class Runtime;

  Runtime* runtime_ = nullptr;
  i64 comm_id_ = -1;
  i32 my_index_ = -1;
  i32 app_id_ = 0;
  std::shared_ptr<const std::vector<i32>> members_;  // global ranks

  i64 comm_tag(i32 tag) const;
  Message recv_impl(i32 src, i32 tag) const;
  // Out of line, so that the frames a parked simulate fiber's stack copy
  // holds (docs/SIMULATION.md "Park and resume copy") carry none of
  // their locals.
  Message recv_faulted(const FaultInjector& fault, i32 src_global,
                       i32 my_global, i32 tag) const;
  std::vector<std::byte> split_assign(
      const std::vector<std::vector<std::byte>>& gathered) const;
};

/// Per-rank context handed to the body function.
struct RankCtx {
  i32 global_rank = -1;
  CoreLoc loc;
  Comm world;
  Runtime* runtime = nullptr;
};

/// One rank that terminated with an exception during run_collect().
struct RankFailure {
  i32 global_rank = -1;
  std::exception_ptr error;
};

/// The runtime: dispatches ranks and owns their mailbox plane. Payloads
/// cross `dart`, the run's one transport: its fault injector governs sends
/// and dead-peer receives, and its funnel accounts every send.
class Runtime {
 public:
  explicit Runtime(HybridDart& dart) : dart_(&dart) {}

  HybridDart& dart() { return *dart_; }
  const Cluster& cluster() const { return dart_->cluster(); }
  Metrics& metrics() { return dart_->metrics(); }

  /// Bound on blocking receives: a dead or wedged peer surfaces as a
  /// cods::Error after this long instead of hanging the rank forever.
  /// Atomic, so tests may tighten it while ranks are already running.
  void set_recv_timeout(std::chrono::seconds timeout) {
    recv_timeout_.store(timeout, std::memory_order_relaxed);
  }
  std::chrono::seconds recv_timeout() const {
    return recv_timeout_.load(std::memory_order_relaxed);
  }

  /// Runs one rank per entry of `placement` under exec_mode(), with a
  /// world communicator spanning all of them. Blocks until all ranks
  /// return; rethrows the first rank exception.
  void run(const std::vector<CoreLoc>& placement,
           const std::function<void(RankCtx&)>& body);

  /// Like run(), but collects rank exceptions instead of rethrowing, so a
  /// caller (the workflow engine's recovery path) can see *which* ranks
  /// failed. Returns the failures ordered by global rank (empty = success).
  std::vector<RankFailure> run_collect(
      const std::vector<CoreLoc>& placement,
      const std::function<void(RankCtx&)>& body);

  /// Dispatch strategy for run()/run_collect(). Set between waves, not
  /// while ranks are running.
  void set_exec_mode(ExecMode mode) { exec_mode_ = mode; }
  ExecMode exec_mode() const { return exec_mode_; }

  /// Worker cap for ExecMode::kPooled; <= 0 (the default) selects
  /// WorkStealingExecutor::default_pool_size().
  void set_exec_pool_size(i32 pool_size) { exec_pool_size_ = pool_size; }
  i32 exec_pool_size() const { return exec_pool_size_; }

  /// Thread accounting of the most recent run()/run_collect(). Under
  /// kSimulate no rank threads are spawned at all (total_spawned = 0,
  /// peak_live = 1 scheduler thread) and the event-loop accounting lives
  /// in last_sim_stats().
  const ExecutorStats& last_exec_stats() const { return last_exec_stats_; }

  /// Discrete-event accounting of the most recent kSimulate
  /// run()/run_collect(); zeroed by kPooled.
  const SimStats& last_sim_stats() const { return last_sim_stats_; }

  /// Modelled seconds each rank of the most recent run()/run_collect()
  /// accumulated on its TaskClock, indexed by global rank — the health
  /// layer's straggler-detection input.
  const std::vector<double>& last_task_times() const {
    return last_task_times_;
  }

  // --- internals used by Comm ---
  /// The mailbox plane of the current run, one cell per global rank,
  /// built by run_collect for every exec mode.
  MailboxPool& mail() { return *mail_; }
  CoreLoc loc(i32 global_rank) const;
  i64 alloc_comm_id() { return next_comm_id_.fetch_add(1); }

  /// Communicator member-list registry. All ranks live in one process,
  /// so a split's root registers each group's global-rank vector once
  /// and peers attach by comm id — keeping the split protocol O(n)
  /// instead of mailing every member an O(group) copy (65,536-rank
  /// worlds made that quadratic buffering the enactment memory bound).
  void register_comm_group(i64 comm_id,
                           std::shared_ptr<const std::vector<i32>> members);
  std::shared_ptr<const std::vector<i32>> comm_group(i64 comm_id);

 private:
  HybridDart* dart_;
  std::atomic<std::chrono::seconds> recv_timeout_{std::chrono::seconds(120)};
  // Rebuilt single-threadedly in run_collect() before ranks spawn and only
  // read while they execute (the spawn is the synchronization point).
  std::unique_ptr<MailboxPool> mail_;
  std::vector<CoreLoc> placement_;
  std::atomic<i64> next_comm_id_{1};
  Mutex comm_groups_mutex_{"runtime.comm_groups"};
  std::map<i64, std::shared_ptr<const std::vector<i32>>> comm_groups_
      CODS_GUARDED_BY(comm_groups_mutex_);
  ExecMode exec_mode_ = ExecMode::kPooled;
  i32 exec_pool_size_ = 0;  ///< <= 0: default_pool_size()
  ExecutorStats last_exec_stats_;
  SimStats last_sim_stats_;
  // Written per-rank into disjoint slots while ranks run; read after join.
  std::vector<double> last_task_times_;
};

}  // namespace cods
