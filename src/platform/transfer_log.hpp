// Optional detailed transfer log: records individual data movements
// (endpoints, bytes, transport, traffic class, modelled duration) for
// reconciliation against the trace ledger and the Metrics registry (the
// wfgen oracles). Attach one to HybridDart when per-transfer visibility is
// needed; the aggregate Metrics registry stays the always-on accounting
// path, and Chrome export lives with the trace (src/trace/export.hpp).
#pragma once

#include <vector>

#include "common/sync.hpp"
#include "platform/cluster.hpp"
#include "platform/metrics.hpp"

namespace cods {

struct TransferRecord {
  CoreLoc src;
  CoreLoc dst;
  u64 bytes = 0;
  bool via_network = false;
  TrafficClass cls = TrafficClass::kInterApp;
  i32 app_id = 0;
  double model_time = 0.0;  ///< modelled duration of this transfer
};

/// Bounded, thread-safe transfer journal.
class TransferLog {
 public:
  explicit TransferLog(size_t capacity = 1 << 16) : capacity_(capacity) {}

  void record(const TransferRecord& record);

  size_t size() const;
  u64 dropped() const;  ///< records discarded after the log filled up
  std::vector<TransferRecord> snapshot() const;

 private:
  mutable Mutex mutex_{"platform.transfer_log"};
  const size_t capacity_;
  u64 dropped_ CODS_GUARDED_BY(mutex_) = 0;
  std::vector<TransferRecord> records_ CODS_GUARDED_BY(mutex_);
};

}  // namespace cods
