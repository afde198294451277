#include "journal/group_commit.h"

namespace arkfs::journal {

const char* DurabilityModeName(DurabilityMode mode) {
  switch (mode) {
    case DurabilityMode::kSync: return "sync";
    case DurabilityMode::kGroup: return "group";
    case DurabilityMode::kAsync: return "async";
  }
  return "unknown";
}

Result<DurabilityMode> ParseDurabilityMode(std::string_view name) {
  if (name == "sync") return DurabilityMode::kSync;
  if (name == "group") return DurabilityMode::kGroup;
  if (name == "async") return DurabilityMode::kAsync;
  return ErrStatus(Errc::kInval,
                   "unknown durability mode '" + std::string(name) +
                       "' (expected sync|group|async)");
}

std::uint64_t ApproxRecordBytes(const Record& r) {
  // Fixed frame/header share plus the variable-length fields that dominate
  // each record type's encoding.
  switch (r.type) {
    case RecordType::kInodeUpsert:
      return 128 + r.inode.symlink_target.size();
    case RecordType::kDentryAdd:
      return 48 + r.dentry.name.size();
    case RecordType::kDentryRemove:
      return 32 + r.name.size();
    case RecordType::kInodeRemove:
    case RecordType::kDirRemove:
    case RecordType::kPrepare:
    case RecordType::kDecision:
      return 48;
  }
  return 48;
}

std::uint64_t ApproxRecordBytes(const std::vector<Record>& records) {
  std::uint64_t total = 0;
  for (const Record& r : records) total += ApproxRecordBytes(r);
  return total;
}

void GroupWindow::Close() {
  {
    std::lock_guard lock(mu_);
    closed_ = true;
  }
  drained_cv_.notify_all();
}

void GroupWindow::NoteSequenced(std::uint64_t records, std::uint64_t bytes) {
  if (records == 0) return;
  std::lock_guard lock(mu_);
  if (records_ == 0) oldest_ = Now();
  records_ += records;
  bytes_ += bytes;
}

void GroupWindow::NoteDrained(std::uint64_t records, std::uint64_t bytes) {
  if (records == 0) return;
  {
    std::lock_guard lock(mu_);
    records_ -= std::min(records_, records);
    bytes_ -= std::min(bytes_, bytes);
  }
  drained_cv_.notify_all();
}

bool GroupWindow::OverLimitLocked(TimePoint now) const {
  if (records_ == 0) return false;
  return records_ > limits_.max_records || bytes_ > limits_.max_bytes ||
         now - oldest_ > limits_.max_age;
}

bool GroupWindow::Backpressure() {
  std::unique_lock lock(mu_);
  if (closed_ || !OverLimitLocked(Now())) return false;
  const TimePoint deadline = Now() + limits_.max_stall;
  while (!closed_ && OverLimitLocked(Now())) {
    // Bounded waits: the age limit can only clear through a drain, but a
    // wedged flusher must not park appenders forever — re-check on a short
    // tick and give up entirely at the stall cap.
    const TimePoint now = Now();
    if (now >= deadline) break;
    drained_cv_.wait_for(lock, std::min<Nanos>(Millis(1), deadline - now));
  }
  return true;
}

GroupWindow::Depth GroupWindow::depth() const {
  std::lock_guard lock(mu_);
  Depth d;
  d.records = records_;
  d.bytes = bytes_;
  d.oldest_age = records_ > 0
                     ? std::chrono::duration_cast<Nanos>(Now() - oldest_)
                     : Nanos{0};
  return d;
}

}  // namespace arkfs::journal
