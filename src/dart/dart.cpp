#include "dart/dart.hpp"

#include "health/task_clock.hpp"
#include "trace/trace.hpp"

namespace cods {

namespace {

/// Backoff jitter key of a data-plane op: the issuing client and its size.
u64 op_jitter_key(const Endpoint& local, u64 bytes) {
  return (static_cast<u64>(static_cast<u32>(local.client_id)) << 32) ^ bytes;
}

}  // namespace

void HybridDart::expose(i32 client_id, u64 key, std::span<std::byte> window) {
  WriterLock lock(mutex_);
  const bool inserted = windows_.insert(Key{client_id, key}, window).second;
  CODS_CHECK(inserted, "window already exposed for this (client, key)");
}

void HybridDart::withdraw(i32 client_id, u64 key) {
  WriterLock lock(mutex_);
  windows_.erase(Key{client_id, key});
}

std::span<std::byte> HybridDart::window(i32 client_id, u64 key) const {
  ReaderLock lock(mutex_);
  return window_locked(client_id, key);
}

std::span<std::byte> HybridDart::window_locked(i32 client_id, u64 key) const {
  const std::span<std::byte>* window = windows_.find(Key{client_id, key});
  CODS_CHECK(window != nullptr, "window not exposed");
  return *window;
}

bool HybridDart::has_window(i32 client_id, u64 key) const {
  ReaderLock lock(mutex_);
  return windows_.contains(Key{client_id, key});
}

void HybridDart::record(i32 app_id, TrafficClass cls, const CoreLoc& src,
                        const CoreLoc& dst, u64 bytes, double model_time,
                        bool overlay) {
  const bool net = select_transport(src, dst) == TransportKind::kRdma;
  metrics_->record(app_id, cls, bytes, net);
  if (TransferLog* log = transfer_log()) {
    log->record(
        TransferRecord{src, dst, bytes, net, cls, app_id, model_time});
  }
  if (TraceContext* trace = TraceContext::current()) {
    trace->leaf(net ? SpanCategory::kTransferNet : SpanCategory::kTransferShm,
                model_time, bytes, cls, app_id, /*sequential=*/!overlay,
                TraceFlags::kLedger, pack_loc(src.node, src.core));
  }
}

double HybridDart::slowdown_factor(i32 node) const {
  FaultInjector* fault = fault_injector();
  if (fault == nullptr || !fault->has_slowdowns()) return 1.0;
  return fault->slowdown(node);
}

double HybridDart::admit_op(FaultSite site, i32 actor, i32 local_node,
                            i32 remote_node, i32 app_id, TrafficClass cls,
                            const std::optional<Flow>& failed,
                            u64 jitter_key) {
  FaultInjector* fault = fault_injector();
  if (fault == nullptr) return 0.0;
  double penalty = 0.0;
  for (i32 attempt = 1;; ++attempt) {
    if (!fault->on_op(site, actor, local_node, remote_node)) return penalty;
    // The failed attempt moved its bytes before erroring out: account them
    // as regular traffic of the same class, plus the modelled time.
    double attempt_time = 0.0;
    if (failed) {
      attempt_time = model_.flow_time(*failed);
      record(app_id, cls, failed->src, failed->dst, failed->bytes,
             attempt_time);
    }
    if (attempt > retry_.max_retries) {
      metrics_->add_count(app_id, fault_exhausted_id_);
      throw RetriesExhaustedError(site, retry_.max_retries);
    }
    metrics_->add_count(app_id, fault_retries_id_);
    const double delay =
        retry_.backoff(attempt, fault->spec().seed ^ jitter_key);
    metrics_->add_time(app_id, fault_backoff_id_, delay);
    penalty += attempt_time + delay;
  }
}

double HybridDart::pull(std::span<PullOp> ops) {
  u64 total_bytes = 0;
  for (const PullOp& op : ops) total_bytes += op.bytes;
  ScopedSpan span(SpanCategory::kPull, total_bytes,
                  static_cast<u32>(ops.size()));
  double penalty = 0.0;
  if (fault_injector() != nullptr) {
    for (const PullOp& op : ops) {
      penalty += admit_op(FaultSite::kPull, op.local.client_id,
                          op.local.loc.node, op.remote.loc.node, op.app_id,
                          op.cls, Flow{op.remote.loc, op.local.loc, op.bytes},
                          op_jitter_key(op.local, op.bytes));
    }
  }
  std::vector<Flow> flows;
  flows.reserve(ops.size());
  {
    // Hold the registry lock across the gather: a window cannot be
    // withdrawn (and its memory freed) while a one-sided read is in
    // flight — the software analogue of pinned RDMA regions.
    ReaderLock lock(mutex_);
    for (PullOp& op : ops) {
      const auto win = window_locked(op.remote.client_id, op.key);
      if (op.copy) op.copy(win);
      flows.push_back(Flow{op.remote.loc, op.local.loc, op.bytes});
    }
  }
  const double straggle =
      ops.empty() ? 1.0 : slowdown_factor(ops.front().local.loc.node);
  const double time = model_.batch_time(flows) * straggle;
  // Overlay leaves: each op's record shares the batch interval — the
  // batch completes as one concurrent transfer, so per-op leaves must
  // not stack sequentially on the virtual clock.
  for (const PullOp& op : ops) {
    record(op.app_id, op.cls, op.remote.loc, op.local.loc, op.bytes, time,
           /*overlay=*/true);
  }
  span.close(penalty + time);
  TaskClock::advance(penalty + time);
  return penalty + time;
}

double HybridDart::rpc(const Endpoint& from, const Endpoint& to, u64 count) {
  ScopedSpan span(SpanCategory::kRpc, 0, pack_loc(to.loc.node, to.loc.core));
  const u64 bytes =
      count * static_cast<u64>(model_.params().rpc_bytes) * 2;  // round trips
  const double penalty = admit_op(
      FaultSite::kRpc, from.client_id, from.loc.node, to.loc.node,
      /*app_id=*/0, TrafficClass::kControl, Flow{to.loc, from.loc, bytes},
      op_jitter_key(from, bytes));
  // Control-plane RPC bytes feed the kControl counters only: they are
  // deliberately not journaled or ledger-traced, reconciliation covers
  // payload traffic (docs/TRACING.md).
  // codslint-allow(funnel): control-plane bytes are metered, not journaled
  metrics_->record(/*app_id=*/0, TrafficClass::kControl, bytes,
                   select_transport(from.loc, to.loc) == TransportKind::kRdma);
  const double time = penalty + model_.rpc_time(from.loc, to.loc, count) *
                                    slowdown_factor(from.loc.node);
  span.close(time, bytes);
  TaskClock::advance(time);
  return time;
}

void HybridDart::send(const Endpoint& src, const Endpoint& dst, i32 app_id,
                      u64 bytes) {
  // A self-send or an empty payload crosses no fabric: admitted, but
  // nothing to account, for the failed attempts or the delivered one.
  const bool moves = src.client_id != dst.client_id && bytes > 0;
  std::optional<Flow> flow;
  if (moves) flow = Flow{src.loc, dst.loc, bytes};
  // The sender is the actor; the penalty is dropped because the send is
  // buffered and never waits out its own retries.
  (void)admit_op(FaultSite::kSend, src.client_id, src.loc.node, dst.loc.node,
                 app_id, TrafficClass::kIntraApp, flow,
                 (static_cast<u64>(static_cast<u32>(src.client_id)) << 32) ^
                     static_cast<u64>(static_cast<u32>(dst.client_id)));
  if (moves) {
    // The flow time feeds only the journal and the ledger leaf, so the
    // common unjournaled, untraced send skips the cost model (its hop
    // count is most of a send's accounting cost).
    const bool timed =
        transfer_log() != nullptr || TraceContext::current() != nullptr;
    record(app_id, TrafficClass::kIntraApp, src.loc, dst.loc, bytes,
           timed ? model_.flow_time(*flow) : 0.0);
  }
}

}  // namespace cods
