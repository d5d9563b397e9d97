#include "runtime/runtime.hpp"

#include <algorithm>
#include <exception>
#include <map>

#include "health/task_clock.hpp"
#include "trace/trace.hpp"

namespace cods {

namespace {

// Internal tags for collectives live above the user tag space.
constexpr i32 kUserTagBits = 20;
constexpr i32 kTagGather = (1 << kUserTagBits) + 1;
constexpr i32 kTagBcast = (1 << kUserTagBits) + 2;
constexpr i32 kTagSplit = (1 << kUserTagBits) + 3;
constexpr i32 kTagScatter = (1 << kUserTagBits) + 4;
constexpr i32 kTagAlltoall = (1 << kUserTagBits) + 5;

// Collective ids carried in the kCollective span's detail field.
constexpr u32 kOpBarrier = 1;
constexpr u32 kOpBcast = 2;
constexpr u32 kOpGather = 3;
constexpr u32 kOpScatter = 4;
constexpr u32 kOpAlltoall = 5;
constexpr u32 kOpAllreduce = 6;
constexpr u32 kOpSplit = 7;

/// One rank's split() request, gathered at rank 0.
struct SplitEntry {
  i32 color;
  i32 key;
  i32 old_rank;
};

/// Rank 0's split() answer to one rank. The member list itself travels
/// out of band: the root registers each group's global-rank vector with
/// the shared Runtime and peers attach by comm id, so the split protocol
/// stays O(n) in mailbox bytes instead of mailing every member an
/// O(group)-sized copy.
struct SplitAssignment {
  i64 comm_id;
  i32 my_index;
  i32 group_size;
};

}  // namespace

bool Comm::RecvRequest::test() {
  if (message_) return true;
  const i32 src_global =
      src_ == kAnySource ? kAnySource : comm_->global_rank(src_);
  auto m = comm_->runtime_->mail().try_pop(comm_->global_rank(comm_->rank()),
                                           src_global, comm_->comm_tag(tag_));
  if (m) message_ = std::move(*m);
  return message_.has_value();
}

Message Comm::RecvRequest::wait() {
  if (!message_) message_ = comm_->recv(src_, tag_);
  Message out = std::move(*message_);
  message_.reset();
  return out;
}

i64 Comm::comm_tag(i32 tag) const {
  CODS_REQUIRE(tag >= 0 && tag < (1 << (kUserTagBits + 2)),
               "tag out of range");
  return comm_id_ * (i64{1} << (kUserTagBits + 2)) + tag;
}

i32 Comm::global_rank(i32 comm_rank) const {
  CODS_REQUIRE(valid(), "invalid communicator");
  CODS_REQUIRE(comm_rank >= 0 && comm_rank < size(), "rank out of range");
  return (*members_)[static_cast<size_t>(comm_rank)];
}

void Comm::send(i32 dst, i32 tag, std::span<const std::byte> payload) const {
  CODS_REQUIRE(valid(), "invalid communicator");
  const i32 dst_global = global_rank(dst);
  const i32 src_global = global_rank(my_index_);
  // The payload crosses the transport between the two ranks' placements.
  runtime_->dart().send(Endpoint{src_global, runtime_->loc(src_global)},
                        Endpoint{dst_global, runtime_->loc(dst_global)},
                        app_id_, payload.size());
  runtime_->mail().push(dst_global, src_global, comm_tag(tag), payload);
}

Message Comm::recv(i32 src, i32 tag) const {
  Message m = recv_impl(src, tag);
  if (TraceContext* trace = TraceContext::current()) {
    trace->instant(SpanCategory::kRecv, m.payload.size(),
                   static_cast<u32>(m.src_global + 1));
  }
  return m;
}

Message Comm::recv_impl(i32 src, i32 tag) const {
  CODS_REQUIRE(valid(), "invalid communicator");
  const i32 src_global = src == kAnySource ? kAnySource : global_rank(src);
  const i32 my_global = global_rank(my_index_);
  if (const FaultInjector* fault = runtime_->dart().fault_injector()) {
    return recv_faulted(*fault, src_global, my_global, tag);
  }
  return runtime_->mail().pop(my_global, src_global, comm_tag(tag),
                              runtime_->recv_timeout());
}

[[gnu::noinline]] Message Comm::recv_faulted(const FaultInjector& fault,
                                             i32 src_global, i32 my_global,
                                             i32 tag) const {
  const i32 my_node = runtime_->loc(my_global).node;
  if (fault.is_dead(my_node)) {
    throw NodeDownError(my_node, "node " + std::to_string(my_node) +
                                     " is down (receiver)");
  }
  if (src_global != kAnySource) {
    // A message the peer sent before dying is still deliverable; only
    // block on a live peer.
    if (auto m = runtime_->mail().try_pop(my_global, src_global,
                                          comm_tag(tag))) {
      return std::move(*m);
    }
    const i32 src_node = runtime_->loc(src_global).node;
    if (fault.is_dead(src_node)) {
      throw NodeDownError(src_node, "recv peer's node " +
                                        std::to_string(src_node) +
                                        " is down");
    }
  }
  return runtime_->mail().pop(my_global, src_global, comm_tag(tag),
                              runtime_->recv_timeout());
}

void Comm::barrier() const {
  ScopedSpan span(SpanCategory::kCollective, 0, kOpBarrier);
  // Linear gather to rank 0 followed by a broadcast release.
  gather(0, {});
  std::vector<std::byte> token;
  bcast(0, token);
}

void Comm::bcast(i32 root, std::vector<std::byte>& data) const {
  CODS_REQUIRE(valid(), "invalid communicator");
  ScopedSpan span(SpanCategory::kCollective, data.size(), kOpBcast);
  if (my_index_ == root) {
    for (i32 r = 0; r < size(); ++r) {
      if (r == root) continue;
      send(r, kTagBcast, data);
    }
  } else {
    data = recv(root, kTagBcast).payload;
  }
}

std::vector<std::vector<std::byte>> Comm::gather(
    i32 root, std::span<const std::byte> contribution) const {
  CODS_REQUIRE(valid(), "invalid communicator");
  ScopedSpan span(SpanCategory::kCollective, contribution.size(), kOpGather);
  std::vector<std::vector<std::byte>> result;
  if (my_index_ == root) {
    result.resize(static_cast<size_t>(size()));
    result[static_cast<size_t>(root)].assign(contribution.begin(),
                                             contribution.end());
    for (i32 r = 0; r < size(); ++r) {
      if (r == root) continue;
      Message m = recv(r, kTagGather);
      result[static_cast<size_t>(r)] = std::move(m.payload);
    }
  } else {
    send(root, kTagGather, contribution);
  }
  return result;
}

std::vector<std::byte> Comm::scatter(
    i32 root, const std::vector<std::vector<std::byte>>& chunks) const {
  CODS_REQUIRE(valid(), "invalid communicator");
  ScopedSpan span(SpanCategory::kCollective, 0, kOpScatter);
  if (my_index_ == root) {
    CODS_REQUIRE(static_cast<i32>(chunks.size()) == size(),
                 "scatter needs one chunk per rank at the root");
    for (i32 r = 0; r < size(); ++r) {
      if (r == root) continue;
      send(r, kTagScatter, chunks[static_cast<size_t>(r)]);
    }
    return chunks[static_cast<size_t>(root)];
  }
  return recv(root, kTagScatter).payload;
}

std::vector<std::vector<std::byte>> Comm::alltoallv(
    const std::vector<std::vector<std::byte>>& send_bufs) const {
  CODS_REQUIRE(valid(), "invalid communicator");
  CODS_REQUIRE(static_cast<i32>(send_bufs.size()) == size(),
               "alltoallv needs one buffer per rank");
  ScopedSpan span(SpanCategory::kCollective, 0, kOpAlltoall);
  // Buffered sends: fire them all, then drain the receives.
  for (i32 r = 0; r < size(); ++r) {
    if (r == my_index_) continue;
    send(r, kTagAlltoall, send_bufs[static_cast<size_t>(r)]);
  }
  std::vector<std::vector<std::byte>> result(static_cast<size_t>(size()));
  result[static_cast<size_t>(my_index_)] =
      send_bufs[static_cast<size_t>(my_index_)];
  for (i32 r = 0; r < size(); ++r) {
    if (r == my_index_) continue;
    result[static_cast<size_t>(r)] = recv(r, kTagAlltoall).payload;
  }
  return result;
}

namespace {

template <typename T, typename Op>
T allreduce(const Comm& comm, T value, Op op) {
  ScopedSpan span(SpanCategory::kCollective, sizeof(T), kOpAllreduce);
  const auto bytes =
      std::span(reinterpret_cast<const std::byte*>(&value), sizeof(T));
  auto contributions = comm.gather(0, bytes);
  std::vector<std::byte> out(sizeof(T));
  if (comm.rank() == 0) {
    T acc = value;
    for (i32 r = 1; r < comm.size(); ++r) {
      T v;
      std::memcpy(&v, contributions[static_cast<size_t>(r)].data(), sizeof(T));
      acc = op(acc, v);
    }
    std::memcpy(out.data(), &acc, sizeof(T));
  }
  comm.bcast(0, out);
  T result;
  std::memcpy(&result, out.data(), sizeof(T));
  return result;
}

}  // namespace

i64 Comm::allreduce_sum(i64 value) const {
  return allreduce(*this, value, [](i64 a, i64 b) { return a + b; });
}

double Comm::allreduce_sum(double value) const {
  return allreduce(*this, value, [](double a, double b) { return a + b; });
}

i64 Comm::allreduce_max(i64 value) const {
  return allreduce(*this, value, [](i64 a, i64 b) { return std::max(a, b); });
}

double Comm::allreduce_max(double value) const {
  return allreduce(*this, value,
                   [](double a, double b) { return std::max(a, b); });
}

double Comm::allreduce_min(double value) const {
  return allreduce(*this, value,
                   [](double a, double b) { return std::min(a, b); });
}

Comm Comm::split(i32 color, i32 key) const {
  CODS_REQUIRE(valid(), "invalid communicator");
  ScopedSpan span(SpanCategory::kCollective, 0, kOpSplit);
  const SplitEntry mine{color, key, my_index_};
  const auto gathered = gather(
      0, std::span(reinterpret_cast<const std::byte*>(&mine), sizeof(mine)));
  const std::vector<std::byte> my_assignment =
      my_index_ == 0 ? split_assign(gathered) : recv(0, kTagSplit).payload;

  if (my_assignment.empty()) return Comm{};  // negative color
  SplitAssignment a;
  std::memcpy(&a, my_assignment.data(), sizeof(SplitAssignment));
  auto members = runtime_->comm_group(a.comm_id);
  CODS_CHECK(members != nullptr &&
                 static_cast<i32>(members->size()) == a.group_size,
             "split: comm group not registered");
  Comm out;
  out.runtime_ = runtime_;
  out.comm_id_ = a.comm_id;
  out.my_index_ = a.my_index;
  out.app_id_ = app_id_;
  out.members_ = std::move(members);
  return out;
}

[[gnu::noinline]] std::vector<std::byte> Comm::split_assign(
    const std::vector<std::vector<std::byte>>& gathered) const {
  std::vector<SplitEntry> entries;
  entries.reserve(gathered.size());
  for (const auto& buf : gathered) {
    SplitEntry e;
    std::memcpy(&e, buf.data(), sizeof(SplitEntry));
    entries.push_back(e);
  }
  std::map<i32, std::vector<SplitEntry>> groups;
  for (const SplitEntry& e : entries) {
    if (e.color >= 0) groups[e.color].push_back(e);
  }
  // Build each group's member list (global ranks) ordered by (key, rank).
  std::vector<std::vector<std::byte>> assignments(static_cast<size_t>(size()));
  for (auto& [c, group] : groups) {
    std::sort(group.begin(), group.end(),
              [](const SplitEntry& a, const SplitEntry& b) {
                return std::tie(a.key, a.old_rank) <
                       std::tie(b.key, b.old_rank);
              });
    const i64 comm_id = runtime_->alloc_comm_id();
    auto globals = std::make_shared<std::vector<i32>>();
    globals->reserve(group.size());
    for (const SplitEntry& e : group) {
      globals->push_back(global_rank(e.old_rank));
    }
    runtime_->register_comm_group(comm_id, globals);
    for (size_t i = 0; i < group.size(); ++i) {
      SplitAssignment a{comm_id, static_cast<i32>(i),
                        static_cast<i32>(group.size())};
      const auto* head = reinterpret_cast<const std::byte*>(&a);
      assignments[static_cast<size_t>(group[i].old_rank)] =
          std::vector<std::byte>(head, head + sizeof(SplitAssignment));
    }
  }
  // Colorless ranks get an empty assignment.
  for (i32 r = 1; r < size(); ++r) {
    send(r, kTagSplit, assignments[static_cast<size_t>(r)]);
  }
  return std::move(assignments[0]);
}

void Runtime::register_comm_group(
    i64 comm_id, std::shared_ptr<const std::vector<i32>> members) {
  MutexLock lock(comm_groups_mutex_);
  comm_groups_[comm_id] = std::move(members);
}

std::shared_ptr<const std::vector<i32>> Runtime::comm_group(i64 comm_id) {
  MutexLock lock(comm_groups_mutex_);
  const auto it = comm_groups_.find(comm_id);
  return it == comm_groups_.end() ? nullptr : it->second;
}

void Runtime::run(const std::vector<CoreLoc>& placement,
                  const std::function<void(RankCtx&)>& body) {
  const std::vector<RankFailure> failures = run_collect(placement, body);
  if (!failures.empty()) std::rethrow_exception(failures.front().error);
}

std::vector<RankFailure> Runtime::run_collect(
    const std::vector<CoreLoc>& placement,
    const std::function<void(RankCtx&)>& body) {
  const i32 n = static_cast<i32>(placement.size());
  CODS_REQUIRE(n >= 1, "need at least one rank");
  for (const CoreLoc& loc : placement) {
    CODS_REQUIRE(loc.node >= 0 && loc.node < cluster().num_nodes() &&
                     loc.core >= 0 && loc.core < cluster().cores_per_node(),
                 "placement outside the cluster");
  }
  placement_ = placement;
  mail_ = std::make_unique<MailboxPool>(n);
  {
    // Groups registered by previous waves' splits are unreachable once
    // their Comm handles die with the rank bodies; drop them here so the
    // registry does not grow over a long campaign.
    MutexLock lock(comm_groups_mutex_);
    comm_groups_.clear();
  }

  auto members = std::make_shared<std::vector<i32>>();
  members->resize(static_cast<size_t>(n));
  for (i32 r = 0; r < n; ++r) (*members)[static_cast<size_t>(r)] = r;
  const i64 world_id = alloc_comm_id();

  Mutex error_mutex{"runtime.errors"};
  std::vector<RankFailure> failures;
  // One rank body, shared by both dispatch modes: everything a rank can
  // observe (mailboxes, communicators, trace contexts, failure capture)
  // is identical whether it runs on a pool thread or as a fiber.
  last_task_times_.assign(static_cast<size_t>(n), 0.0);
  const auto rank_main = [&](i32 r) {
    RankCtx ctx;
    ctx.global_rank = r;
    ctx.loc = placement_[static_cast<size_t>(r)];
    ctx.runtime = this;
    ctx.world.runtime_ = this;
    ctx.world.comm_id_ = world_id;
    ctx.world.my_index_ = r;
    ctx.world.members_ = members;
    // Each rank carries a modelled-time clock: the transport layers
    // advance it per operation, and the totals feed straggler detection.
    TaskClock::install();
    try {
      body(ctx);
    } catch (...) {
      MutexLock lock(error_mutex);
      failures.push_back(RankFailure{r, std::current_exception()});
    }
    last_task_times_[static_cast<size_t>(r)] = TaskClock::elapsed();
    TaskClock::uninstall();
  };
  last_sim_stats_ = SimStats{};
  if (exec_mode_ == ExecMode::kPooled) {
    WorkStealingExecutor executor(exec_pool_size_);
    executor.run(n, rank_main);
    last_exec_stats_ = executor.stats();
  } else {
    SimEngine sim;
    sim.run(n, rank_main);
    last_sim_stats_ = sim.stats();
    last_exec_stats_ = ExecutorStats{};
    last_exec_stats_.pool_size = 1;  // the calling scheduler thread
    last_exec_stats_.total_spawned = 0;
    last_exec_stats_.peak_live = 1;
    last_exec_stats_.peak_blocked = last_sim_stats_.peak_blocked;
  }
  // Failure order must not depend on which thread reported first in
  // either mode.
  std::sort(failures.begin(), failures.end(),
            [](const RankFailure& a, const RankFailure& b) {
              return a.global_rank < b.global_rank;
            });
  return failures;
}

CoreLoc Runtime::loc(i32 global_rank) const {
  CODS_REQUIRE(global_rank >= 0 &&
                   global_rank < static_cast<i32>(placement_.size()),
               "global rank out of range");
  return placement_[static_cast<size_t>(global_rank)];
}

}  // namespace cods
