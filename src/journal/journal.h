// Per-directory journaling (paper §III-E).
//
// One journal object per directory ("j<uuid>"), so journals for different
// directories commit in parallel with zero contention — the property that
// lets ArkFS absorb bursty archiving metadata storms. Within a directory:
//
//   running transaction  --commit-->  journal object  --checkpoint-->
//   (in-memory, buffered              (durable, framed     inode / dentry
//    up to the commit                  + CRC)              objects
//    interval, 1 s default)
//
// One flusher thread commits running transactions as they fall due (rule in
// group_commit.h); checkpoints run on a small thread pool, each directory
// statically mapped to one checkpoint thread by its inode number, as in the
// paper. A checkpointed transaction is removed from
// the journal object; any transaction still present in the journal at lease
// acquisition time therefore marks a crashed predecessor, and the new leader
// replays it (RecoverDir).
//
// RENAME across directories commits via two-phase commit: both prepared
// transactions are appended durably (phase 1), then decision records
// (phase 2), all under both directories' I/O locks so a checkpoint can never
// observe an undecided prepare. Recovery resolves a dangling prepare by
// consulting the peer directory's journal (presumed abort).
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/mpmc_queue.h"
#include "common/stats.h"
#include "journal/group_commit.h"
#include "journal/record.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prt/translator.h"

namespace arkfs::journal {

// How many dentry shards a directory gets. Checkpointing picks the smallest
// power of two B <= max_shards with entries <= target_entries * B, and only
// ever grows a directory's shard count (shrinking would churn layouts for no
// read-path win). `override_count` (benches/tests) pins B outright.
struct DentryShardPolicy {
  std::uint32_t target_entries = 4096;  // max entries per shard before growing
  std::uint32_t max_shards = 64;        // policy cap (format cap is 256)
  std::uint32_t override_count = 0;     // 0 = derive from size
};

// Smallest power-of-two shard count the policy allows for `entries`.
std::uint32_t ShardCountFor(const DentryShardPolicy& policy,
                            std::uint64_t entries);

struct JournalConfig {
  Nanos commit_interval{Seconds(1)};  // paper: 1 s in-memory buffering
  int checkpoint_threads = 2;
  DentryShardPolicy shard_policy;
  // When a mutation is acked relative to its journal append — see
  // group_commit.h for the mode contract. `group_window` bounds the
  // sequenced-but-unflushed loss window in group mode (ignored otherwise).
  DurabilityMode durability = DurabilityMode::kAsync;
  GroupWindowLimits group_window;
  // Where the "journal.*" metric cells attach; null = process default.
  obs::MetricsRegistry* metrics = nullptr;
  // Invoked (on the checkpoint thread) after each successful checkpoint of
  // any directory, once the journal trim has landed. Deployments hang
  // periodic durable housekeeping off this — e.g. persisting QoS quota
  // usage — so the extra store write rides the checkpoint cadence instead
  // of needing its own timer. Must be cheap and must not call back into
  // the JournalManager.
  std::function<void()> on_checkpoint;

  static JournalConfig ForTests() {
    JournalConfig c;
    c.commit_interval = Millis(20);
    return c;
  }
};

// Registry-backed journal metric cells (one bundle per JournalManager).
// Exported as "journal.*"; tests read a specific manager's cells directly.
struct JournalMetrics {
  obs::Counter transactions_committed;
  obs::Counter records_committed;
  obs::Counter transactions_checkpointed;
  obs::Counter journal_bytes_written;
  obs::Counter checkpoints;
  obs::Counter dentry_shards_loaded;
  obs::Counter dentry_shards_written;
  obs::Counter dentry_migrations;  // legacy block -> sharded layout
  obs::Counter dentry_reshards;    // shard-count growth events
  // Lease-HA fencing (see FenceDir): commit-time fence-object reads, commits
  // rejected kStale because a successor advanced the fence, and violations —
  // a persisted fence BEHIND the registered token, which must never happen
  // (it would mean a grant was used without FenceDir'ing first). Chaos tests
  // assert fence_violations == 0.
  obs::Counter fence_checks;
  obs::Counter fence_rejections;
  obs::Counter fence_violations;
  // Per-directory failures inside CommitAll/FlushAll/flusher fan-outs. The
  // Status those calls return is first-error-wins; this counter makes every
  // failing directory visible to Introspect.
  obs::Counter flush_errors;
  // Group-commit pipeline ("journal.group.*"): flusher rounds (any mode),
  // transactions they drained, appender backpressure stalls, explicit
  // drains (fsync / CommitAll and the lease-event subset: release, handoff,
  // lame-duck deposition warning), and records dropped undurable at
  // ResetDir — the realized loss window of a deposed tenure.
  obs::Counter group_flushes;
  obs::Counter group_flushed_txns;
  obs::Counter group_stalls;
  obs::Counter group_drains;
  obs::Counter group_lease_drains;
  obs::Counter group_dropped_records;

  void Attach(obs::MetricsRegistry* registry);
};

// What one ApplyTransactions call did to the dentry layout (stats/tests).
struct ApplyOutcome {
  std::uint32_t shard_count = 0;  // layout after apply (0 = untouched)
  std::uint64_t shards_loaded = 0;
  std::uint64_t shards_written = 0;
  bool migrated = false;
  bool resharded = false;
  bool swept = false;  // orphan-generation sweep ran this apply
};

struct RecoveryReport {
  std::size_t transactions_replayed = 0;
  std::size_t transactions_aborted = 0;  // undecided 2PC prepares
  std::size_t records_applied = 0;
};

class JournalManager {
 public:
  JournalManager(std::shared_ptr<Prt> prt, JournalConfig config);
  ~JournalManager();

  JournalManager(const JournalManager&) = delete;
  JournalManager& operator=(const JournalManager&) = delete;

  // Directory lifecycle: Register when a lease is acquired, Unregister
  // (flush + drop journal object) when it is cleanly released.
  void RegisterDir(const Uuid& dir_ino);
  // Registers under a lease fencing token: every commit for this directory
  // is stamped with `token` and double-checked against the persisted fence
  // object (before the append, so a deposed leader cannot overwrite the
  // successor's journal at a stale offset; and after, before the ack, so an
  // acked commit provably precedes any successor's fence advance — see
  // DESIGN.md §4.4). Re-registering with a newer token (fresh re-grant)
  // keeps the journal bookkeeping intact: the durable frames stay owned.
  void RegisterDir(const Uuid& dir_ino, const FenceToken& token);
  Status UnregisterDir(const Uuid& dir_ino);

  // Advances the persisted per-directory fence object to `token`. kStale if
  // the store already holds a NEWER token (the caller's grant is from a
  // deposed epoch). New leaders must call this BEFORE loading/replaying the
  // directory's journal — that ordering is the split-brain argument.
  Status FenceDir(const Uuid& dir_ino, const FenceToken& token);

  // Drops all in-memory journal bookkeeping for the directory (running
  // records, committed-but-uncheckpointed queue, journal-length cursor)
  // WITHOUT touching the store. Used when leadership is lost (deposed or
  // relinquished-by-fence): the durable journal now belongs to the
  // successor, which replays it; replaying our stale in-memory copy on top
  // would double-apply or clobber.
  void ResetDir(const Uuid& dir_ino);

  // Adds records to the running transaction. Records passed together are
  // committed atomically in one transaction (e.g. CREATE = inode + dentry).
  // The records take their sequence position on the directory's running
  // queue before this returns; what else happens depends on the durability
  // mode (group_commit.h): sync commits them durably here (the returned
  // Status is the commit result — kStale means a successor fenced us mid-
  // op), group queues the directory for an immediate flush and may
  // backpressure briefly if the dirty window is over its bounds, async
  // queues it for first op + commit_interval. Group/async always return Ok.
  Status Append(const Uuid& dir_ino, std::vector<Record> records);

  // Forces running -> journal object for this directory. No checkpoint.
  Status CommitDir(const Uuid& dir_ino);

  // Commit + checkpoint everything pending for the directory (fsync path,
  // lease handoff).
  Status FlushDir(const Uuid& dir_ino);
  Status FlushAll();

  // Durability-only flush: commits every directory's running transaction to
  // its journal object, without checkpointing. This is what fsync()/sync()
  // need — journaled state is crash-safe; checkpointing remains background
  // work.
  Status CommitAll();

  // Two-phase commit for RENAME: atomically (w.r.t. checkpointing) appends
  // the prepared transactions to both journals, then the commit decisions.
  // src_ino == dst_ino is invalid (same-directory rename needs no 2PC).
  Status CommitCrossDir(const Uuid& src_dir, std::vector<Record> src_records,
                        const Uuid& dst_dir, std::vector<Record> dst_records);

  // Replays any surviving journal of dir_ino from the store (crash
  // recovery). Does not require the directory to be registered.
  Result<RecoveryReport> RecoverDir(const Uuid& dir_ino);

  // True if the directory has a non-empty journal object in the store (the
  // "valid transactions remain" predecessor-crash test a new leader runs).
  bool HasSurvivingJournal(const Uuid& dir_ino);

  // Monotonic mutation watermark of the directory within the CURRENT
  // leadership tenure: bumped on every Append (and on both sides of a
  // cross-directory commit), reset to zero whenever the tenure's journal
  // bookkeeping is dropped (ResetDir, RecoverDir). Read delegations compare
  // watermarks only under an unchanged fence token, so the reset-on-tenure-
  // change is exactly what makes the comparison sound. 0 = no mutations
  // this tenure (or directory unknown).
  std::uint64_t Watermark(const Uuid& dir_ino);

  const JournalMetrics& metrics() const { return metrics_; }
  const JournalConfig& config() const { return config_; }
  DurabilityMode durability() const { return config_.durability; }

  // Current dirty-window depth: sequenced-but-unflushed records/bytes
  // (estimated) and the age of the oldest one. Tracked in every mode so
  // introspection is uniform; only group mode enforces limits against it.
  GroupWindow::Depth WindowDepth() const { return window_.depth(); }

  // Human-readable durability/introspection summary (mode, window depth,
  // cumulative flush/stall/drain counters) for Vfs::Introspect.
  std::string IntrospectText() const;

  // Tags the caller's next CommitDir/FlushDir as a lease-event drain
  // (handoff, lame-duck deposition warning) for the introspection counters;
  // release tags itself inside UnregisterDir.
  void NoteLeaseDrain() { metrics_.group_lease_drains.Add(); }

  // Stops all background activity (flusher, checkpoint workers) WITHOUT
  // flushing: models a process crash. Running transactions that were never
  // committed are abandoned in memory; only what already reached the
  // journal objects survives to recovery. Idempotent; the destructor calls
  // it too.
  void Halt();

  // Wall-clock histograms for "commit" (running txn -> journal object) and
  // "checkpoint" (journal -> authoritative objects). p50/p95/p99 via Table().
  const OpLatencySet& latencies() const { return op_latencies_; }

  // Applies parsed transactions to the authoritative objects. Exposed for
  // tests. `peer_decision` resolves prepared transactions with no local
  // decision (recovery passes a peer-journal scan; checkpointing never
  // needs it). Dentry deltas touch only the shards the batch dirtied,
  // writing each dirty shard's INACTIVE slot and flipping the manifest
  // afterwards (copy-on-write: a torn put can never damage referenced
  // state); a legacy unsharded block is migrated to the sharded layout on
  // the way through (see DESIGN.md for the crash-ordering protocol).
  // `sweep_orphans` additionally LISTs the directory's dentry prefix and
  // deletes every shard generation other than the final one — recovery
  // always sweeps, checkpointing sweeps after a failed apply may have left
  // orphan generation objects behind (a stale-but-decodable orphan must not
  // survive to confuse a later torn-manifest adoption).
  static Status ApplyTransactions(
      Prt& prt, const Uuid& dir_ino, const std::vector<Transaction>& txns,
      const std::function<bool(const Uuid& txid, const Uuid& peer)>&
          peer_decision,
      RecoveryReport* report, const DentryShardPolicy& policy = {},
      ApplyOutcome* outcome = nullptr, bool sweep_orphans = false);

 private:
  struct DirState {
    std::mutex mu;  // guards running/flush_due/next_seq/trace
    std::vector<Record> running;
    // When the flusher commits `running` (see QueueFlushLocked); earlier
    // queue entries for this directory are stale.
    TimePoint flush_due{};
    std::uint64_t next_seq = 1;
    // Estimated bytes of `running` as accounted in the manager-wide dirty
    // window (group_commit.h). Kept symmetric with the window: incremented
    // on Append, zeroed when a commit takes the batch, restored on commit
    // unwind — so drains subtract exactly what sequencing added.
    std::uint64_t pending_window_bytes = 0;
    // When the flusher (or a sync append) last pushed this directory to a
    // checkpoint queue. Group flush rounds can be sub-millisecond under
    // load; checkpoints stay on the commit_interval cadence.
    TimePoint last_checkpoint_enqueue{};
    // Trace of the op that opened the running transaction; re-installed
    // around the (possibly deferred, background-thread) commit so the
    // journal append lands in the originating request's trace.
    obs::ActiveTrace trace;

    // Lock order: checkpoint_mu -> append_mu -> mu.
    std::mutex append_mu;  // journal-object appends, committed, journal_bytes
    // Fencing token of the current leadership tenure (zero = unfenced
    // legacy). Stamped into every committed frame and checked against the
    // persisted fence object around each append. Guarded by append_mu.
    FenceToken fence;
    // Committed transactions awaiting checkpoint, with their framed sizes
    // (needed to truncate exactly the checkpointed prefix afterwards).
    std::deque<std::pair<Transaction, std::uint64_t>> committed;
    std::uint64_t journal_bytes = 0;  // current journal object length
    // Mutation watermark of the current tenure (see Watermark()). Atomic so
    // the read-delegation path can sample it without taking either journal
    // lock; bumps happen under st.mu (Append) or append_mu (cross-dir).
    std::atomic<std::uint64_t> watermark{0};
    std::mutex checkpoint_mu;         // one checkpointer per directory
    // A failed apply may have landed orphan shard-generation objects; the
    // next successful dentry checkpoint must sweep them (before the journal
    // is trimmed) so a stale orphan can never outlive the entries that
    // supersede it. Guarded by checkpoint_mu.
    bool sweep_orphans = false;
  };
  using DirStatePtr = std::shared_ptr<DirState>;

  DirStatePtr FindDir(const Uuid& dir_ino);
  DirStatePtr FindOrCreateDir(const Uuid& dir_ino);

  // Reads the persisted fence and compares it to st.fence (append_mu held).
  Status CheckFenceLocked(const Uuid& dir_ino, DirState& st);

  // Appends one framed transaction to the journal object. append_mu held.
  // Consumes `txn` only on success; on a store failure `txn` is left intact
  // so the caller can unwind (nothing was made durable).
  Status AppendToJournalLocked(const Uuid& dir_ino, DirState& st,
                               Transaction& txn);
  // Takes the running txn (if any) and appends it (acquires append_mu, or
  // expects it held for the Locked variant). On failure the records go back
  // on the running queue and the directory is re-queued for the flusher.
  Status CommitRunning(const Uuid& dir_ino, DirState& st);
  Status CommitRunningLocked(const Uuid& dir_ino, DirState& st);
  // Checkpoints all committed txns. Applies store updates WITHOUT holding
  // append_mu, so fsync-path commits never stall behind a checkpoint; the
  // consumed journal prefix is trimmed afterwards.
  Status Checkpoint(const Uuid& dir_ino, DirState& st);

  // Runs `op` against each directory, fanned out through the async layer
  // (first-error-wins; every directory is attempted; each failure counted
  // in flush_errors). ForEachDir does so for every registered directory.
  Status FanOut(const std::vector<Uuid>& dirs,
                const std::function<Status(const Uuid&)>& op);
  Status ForEachDir(const std::function<Status(const Uuid&)>& op);

  // Sets st.flush_due = now + delay and queues the directory for then.
  // st.mu must be held (lock order st.mu -> flush_mu_).
  void QueueFlushLocked(const Uuid& dir_ino, DirState& st, Nanos delay);
  // The flusher: sleeps until the earliest queued due time, then commits
  // every due directory in one fan-out per round.
  void FlusherMain();
  void FlushRound(const std::set<Uuid>& candidates, TimePoint now);
  void CheckpointThreadMain(int index);
  // Zeroes a directory's share of the dirty window (records leaving
  // `running` without a commit: ResetDir, RecoverDir). st.mu must be held.
  void DropPendingWindowLocked(DirState& st, bool count_as_dropped);
  // Pushes the directory to its checkpoint queue at most once per
  // commit_interval, measured at `now`. The flusher passes its round time:
  // in async mode a directory's rounds are then at least commit_interval
  // apart (barring a failed-commit retry), so each commit is checkpointed.
  void MaybeEnqueueCheckpoint(const Uuid& dir_ino, DirState& st,
                              TimePoint now);

  int CheckpointThreadFor(const Uuid& dir) const {
    return static_cast<int>(UuidHash{}(dir) % config_.checkpoint_threads);
  }

  const JournalConfig config_;
  // Flusher delay after a directory's first running op: 0 in group mode,
  // commit_interval otherwise. A failed commit re-queues after a quarter.
  const Nanos flush_delay_;
  std::shared_ptr<Prt> prt_;

  std::mutex registry_mu_;
  std::unordered_map<Uuid, DirStatePtr> dirs_;

  std::mutex flush_mu_;  // guards flush_queue_ and stopping_
  std::condition_variable flush_cv_;
  std::multimap<TimePoint, Uuid> flush_queue_;  // due time -> directory
  bool stopping_ = false;
  std::vector<std::thread> checkpoint_threads_;
  std::vector<std::unique_ptr<MpmcQueue<Uuid>>> checkpoint_queues_;

  GroupWindow window_;
  JournalMetrics metrics_;
  OpLatencySet op_latencies_{{"commit", "checkpoint", "group_flush"}};
  std::thread flusher_;  // last: it uses every member above
};

}  // namespace arkfs::journal
