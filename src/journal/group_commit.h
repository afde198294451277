// Group-commit durability pipeline (DESIGN.md §4.7).
//
// JournalManager's durability-mode knob decides when a metadata mutation is
// acknowledged relative to its journal-object append:
//
//   sync   — Append commits the running transaction durably (framed append
//            plus both fence checks) before returning. Strongest guarantee;
//            pays one object-store round trip per transaction batch.
//   group  — ack on sequence assignment: Append places the records on the
//            per-directory running queue (queue position under append
//            ordering IS the sequence) and returns immediately; the flusher
//            commits the directory at once. Appends arriving while a flush
//            round is in flight pile into the next round, so batching
//            adapts to load without a timer. Sequenced-but-unflushed
//            records are the documented loss window, bounded by
//            GroupWindowLimits below: appenders are backpressured while the
//            window is over any of its record/byte/age bounds.
//   async  — ack on sequence; the flusher commits each directory
//            commit_interval after its first pending op (the historical
//            behavior; the loss window is up to a whole interval of acked
//            mutations).
//
// One flusher per JournalManager serves every mode with one rule: a
// directory is queued when its running queue goes from empty to non-empty
// (Append in group/async mode, a failed commit's unwind in any mode — how
// sync mode redrives), due at first op + delay (0 in group mode, else
// commit_interval), or max(delay / 4, 2 ms) after a failed commit.
//
// In every mode, acked-durable ops (fsync/SyncAll returned Ok, or any op in
// sync mode) are never lost; crash recovery treats a torn group tail
// exactly like a torn single frame (ParseJournal stops at the first
// incomplete/corrupt frame — those bytes never committed).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "journal/record.h"

namespace arkfs::journal {

enum class DurabilityMode : std::uint8_t {
  kSync = 0,
  kGroup = 1,
  kAsync = 2,
};

const char* DurabilityModeName(DurabilityMode mode);

// Parses "sync" / "group" / "async" (the ARKFS_DURABILITY env knob and
// bench flags go through this).
Result<DurabilityMode> ParseDurabilityMode(std::string_view name);

// Approximate framed size of one record, for dirty-window byte accounting.
// The sequencing (add) and drain (subtract) sides both use this same
// estimate, so the window always sums back to zero when empty — it needs to
// be stable per record, not byte-exact against the wire encoding.
std::uint64_t ApproxRecordBytes(const Record& r);
std::uint64_t ApproxRecordBytes(const std::vector<Record>& records);

struct GroupWindowLimits {
  std::uint64_t max_records = 512;
  std::uint64_t max_bytes = 1 << 20;
  Nanos max_age = Millis(50);
  // Backpressure never parks an appender longer than this, even if the
  // flusher is wedged on a store outage: the window bound is a throttle,
  // not a hang. Overshoot past the bound is limited to what the stalled
  // appenders themselves carry, and the records are still redriven by the
  // flusher once the store heals.
  Nanos max_stall = Millis(500);
};

// Tracks the sequenced-but-unflushed records across all directories of one
// JournalManager: appenders report window growth and (in group mode) block
// while it exceeds its bounds; commits and resets drain it.
class GroupWindow {
 public:
  struct Depth {
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
    Nanos oldest_age = Nanos{0};
  };

  explicit GroupWindow(GroupWindowLimits limits) : limits_(limits) {}

  // Wakes every waiter; subsequent waits return immediately (shutdown).
  void Close();

  // Appender: `records` newly sequenced records totaling `bytes` estimated
  // bytes joined the window.
  void NoteSequenced(std::uint64_t records, std::uint64_t bytes);

  // Records left the window — made durable by a commit, or dropped at
  // deposition/reset (either way they are no longer pending).
  void NoteDrained(std::uint64_t records, std::uint64_t bytes);

  // Appender: blocks while the window exceeds any limit (capped at
  // max_stall total). Returns true if it had to wait at all.
  bool Backpressure();

  Depth depth() const;
  const GroupWindowLimits& limits() const { return limits_; }

 private:
  bool OverLimitLocked(TimePoint now) const;

  const GroupWindowLimits limits_;
  mutable std::mutex mu_;
  std::condition_variable drained_cv_;  // drains -> backpressured appenders
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  // Arrival time of the oldest pending record; valid while records_ > 0.
  // Partial drains keep the old stamp (conservative: age never under-reads).
  TimePoint oldest_{};
  bool closed_ = false;
};

}  // namespace arkfs::journal
