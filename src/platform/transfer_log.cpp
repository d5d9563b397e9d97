#include "platform/transfer_log.hpp"

namespace cods {

void TransferLog::record(const TransferRecord& record) {
  MutexLock lock(mutex_);
  if (records_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  records_.push_back(record);
}

size_t TransferLog::size() const {
  MutexLock lock(mutex_);
  return records_.size();
}

u64 TransferLog::dropped() const {
  MutexLock lock(mutex_);
  return dropped_;
}

std::vector<TransferRecord> TransferLog::snapshot() const {
  MutexLock lock(mutex_);
  return records_;
}

}  // namespace cods
