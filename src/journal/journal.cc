#include "journal/journal.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <set>

#include "common/log.h"

namespace arkfs::journal {

std::uint32_t ShardCountFor(const DentryShardPolicy& policy,
                            std::uint64_t entries) {
  std::uint32_t cap = std::min(policy.max_shards, kMaxDentryShards);
  if (!IsPow2(cap)) {  // round a non-pow2 cap down
    std::uint32_t p = 1;
    while (p * 2 <= cap) p *= 2;
    cap = p;
  }
  if (cap == 0) cap = 1;
  if (policy.override_count != 0) {
    std::uint32_t b = 1;  // round the override up to a power of two
    while (b < policy.override_count && b < kMaxDentryShards) b *= 2;
    return b;
  }
  std::uint32_t b = 1;
  while (b < cap &&
         entries > static_cast<std::uint64_t>(policy.target_entries) * b) {
    b *= 2;
  }
  return b;
}

void JournalMetrics::Attach(obs::MetricsRegistry* registry) {
  transactions_committed.Attach(registry, "journal.transactions_committed");
  records_committed.Attach(registry, "journal.records_committed");
  transactions_checkpointed.Attach(registry,
                                   "journal.transactions_checkpointed");
  journal_bytes_written.Attach(registry, "journal.bytes_written");
  checkpoints.Attach(registry, "journal.checkpoints");
  dentry_shards_loaded.Attach(registry, "journal.dentry.shards_loaded");
  dentry_shards_written.Attach(registry, "journal.dentry.shards_written");
  dentry_migrations.Attach(registry, "journal.dentry.migrations");
  dentry_reshards.Attach(registry, "journal.dentry.reshards");
  fence_checks.Attach(registry, "journal.commit.fence_checks");
  fence_rejections.Attach(registry, "journal.commit.fence_rejections");
  fence_violations.Attach(registry, "journal.commit.fence_violations");
  flush_errors.Attach(registry, "journal.flush.errors");
  group_flushes.Attach(registry, "journal.group.flushes");
  group_flushed_txns.Attach(registry, "journal.group.flushed_txns");
  group_stalls.Attach(registry, "journal.group.stalls");
  group_drains.Attach(registry, "journal.group.drains");
  group_lease_drains.Attach(registry, "journal.group.lease_drains");
  group_dropped_records.Attach(registry, "journal.group.dropped_records");
}

JournalManager::JournalManager(std::shared_ptr<Prt> prt, JournalConfig config)
    : config_(config),
      flush_delay_(config_.durability == DurabilityMode::kGroup
                       ? Nanos{0}
                       : config_.commit_interval),
      prt_(std::move(prt)),
      window_(config_.group_window) {
  metrics_.Attach(config_.metrics);
  obs::MetricsRegistry& reg = config_.metrics != nullptr
                                  ? *config_.metrics
                                  : obs::MetricsRegistry::Default();
  reg.RegisterHistograms("journal", &op_latencies_);
  checkpoint_queues_.reserve(config_.checkpoint_threads);
  for (int i = 0; i < config_.checkpoint_threads; ++i) {
    checkpoint_queues_.push_back(std::make_unique<MpmcQueue<Uuid>>());
  }
  for (int i = 0; i < config_.checkpoint_threads; ++i) {
    checkpoint_threads_.emplace_back([this, i] { CheckpointThreadMain(i); });
  }
  flusher_ = std::thread([this] { FlusherMain(); });
}

JournalManager::~JournalManager() {
  Halt();
  obs::MetricsRegistry& reg = config_.metrics != nullptr
                                  ? *config_.metrics
                                  : obs::MetricsRegistry::Default();
  reg.UnregisterHistograms(&op_latencies_);
}

void JournalManager::Halt() {
  {
    std::lock_guard lock(flush_mu_);
    stopping_ = true;
  }
  flush_cv_.notify_all();
  window_.Close();
  if (flusher_.joinable()) flusher_.join();
  for (auto& q : checkpoint_queues_) q->Close();
  for (auto& t : checkpoint_threads_) {
    if (t.joinable()) t.join();
  }
}

void JournalManager::RegisterDir(const Uuid& dir_ino) {
  FindOrCreateDir(dir_ino);
}

void JournalManager::RegisterDir(const Uuid& dir_ino,
                                 const FenceToken& token) {
  DirStatePtr st = FindOrCreateDir(dir_ino);
  std::lock_guard append(st->append_mu);
  // Only the token changes: on a fresh re-grant (same client, metatable
  // still authoritative) durable frames and their bookkeeping stay owned by
  // this journal — resetting here would orphan acked transactions.
  st->fence = token;
}

Status JournalManager::FenceDir(const Uuid& dir_ino, const FenceToken& token) {
  if (!token.valid()) return Status::Ok();  // unfenced legacy grant
  obs::Span span("journal.fence");
  ARKFS_ASSIGN_OR_RETURN(const FenceToken stored, prt_->LoadDirFence(dir_ino));
  if (stored > token) {
    return ErrStatus(Errc::kStale,
                     "lease fencing token superseded (stored " +
                         stored.ToString() + " > granted " + token.ToString() +
                         ")");
  }
  if (stored == token) return Status::Ok();
  return prt_->StoreDirFence(dir_ino, token);
}

void JournalManager::ResetDir(const Uuid& dir_ino) {
  DirStatePtr st = FindDir(dir_ino);
  if (!st) return;
  std::scoped_lock locks(st->checkpoint_mu, st->append_mu, st->mu);
  // Sequenced-but-unflushed records die here with the tenure — that is the
  // documented loss window of the group/async modes, and dropped_records is
  // its realized size.
  DropPendingWindowLocked(*st, /*count_as_dropped=*/true);
  st->running.clear();
  st->committed.clear();
  st->journal_bytes = 0;
  st->fence = FenceToken{};
  st->watermark.store(0, std::memory_order_relaxed);
}

void JournalManager::DropPendingWindowLocked(DirState& st,
                                             bool count_as_dropped) {
  const std::uint64_t n = st.running.size();
  if (n == 0 && st.pending_window_bytes == 0) return;
  window_.NoteDrained(n, st.pending_window_bytes);
  st.pending_window_bytes = 0;
  if (count_as_dropped && n > 0) metrics_.group_dropped_records.Add(n);
}

Status JournalManager::UnregisterDir(const Uuid& dir_ino) {
  DirStatePtr st = FindDir(dir_ino);
  if (!st) return Status::Ok();
  // Lease release is a forced drain point: nothing sequenced may stay
  // unflushed once the lease (and with it our fence) is gone. Counted only
  // when there actually was something pending (mirrors CommitDir/FlushDir).
  {
    std::lock_guard lock(st->mu);
    if (!st->running.empty()) {
      metrics_.group_drains.Add();
      metrics_.group_lease_drains.Add();
    }
  }
  ARKFS_RETURN_IF_ERROR(CommitRunning(dir_ino, *st));
  ARKFS_RETURN_IF_ERROR(Checkpoint(dir_ino, *st));
  {
    std::lock_guard append(st->append_mu);
    ARKFS_RETURN_IF_ERROR(prt_->DeleteJournal(dir_ino));
    st->journal_bytes = 0;
  }
  std::lock_guard lock(registry_mu_);
  dirs_.erase(dir_ino);
  return Status::Ok();
}

Status JournalManager::Append(const Uuid& dir_ino,
                              std::vector<Record> records) {
  obs::Span span("journal.append");
  const std::uint64_t n_records = records.size();
  const std::uint64_t est_bytes = ApproxRecordBytes(records);
  DirStatePtr st = FindOrCreateDir(dir_ino);
  {
    std::lock_guard lock(st->mu);
    if (st->running.empty()) {
      // Group/async ack on sequence; the flusher commits after the delay.
      if (config_.durability != DurabilityMode::kSync) {
        QueueFlushLocked(dir_ino, *st, flush_delay_);
      }
      // The transaction's trace is the trace of its first op; a deferred
      // flusher commit replays it (later appends piggyback).
      st->trace = obs::CaptureTrace();
    }
    // Taking a position on the running queue under st->mu IS the sequence
    // assignment: commits drain the queue in order and allocate the frame
    // seq under the same locks.
    st->running.insert(st->running.end(),
                       std::make_move_iterator(records.begin()),
                       std::make_move_iterator(records.end()));
    st->pending_window_bytes += est_bytes;
    // Publish to the window while still holding st->mu (lock order st.mu ->
    // GroupWindow::mu_, same as DropPendingWindowLocked): a concurrent
    // CommitRunningLocked can only claim these records AFTER this critical
    // section, so its NoteDrained always observes this NoteSequenced. Done
    // outside, the drain's min-clamp could run first and the late sequence
    // add would leak window depth permanently (and with it the age bound,
    // stalling every subsequent group-mode append).
    window_.NoteSequenced(n_records, est_bytes);
    // Delegation watermark: every accepted mutation advances it, BEFORE the
    // op is acked, so a delegate that observes the piggybacked watermark on
    // any later reply can never miss the mutation it races with.
    st->watermark.fetch_add(1, std::memory_order_relaxed);
  }
  if (config_.durability == DurabilityMode::kSync) {
    // Durable before ack. On failure the records stay on the running queue
    // and the commit unwind queues the directory, so the flusher redrives
    // them — the caller sees the error and must not ack the op.
    ARKFS_RETURN_IF_ERROR(CommitRunning(dir_ino, *st));
    MaybeEnqueueCheckpoint(dir_ino, *st, Now());
    return Status::Ok();
  }
  // Group mode holds the appender only while the dirty window is over its
  // bounds.
  if (config_.durability == DurabilityMode::kGroup &&
      window_.Backpressure()) {
    metrics_.group_stalls.Add();
  }
  return Status::Ok();
}

std::uint64_t JournalManager::Watermark(const Uuid& dir_ino) {
  DirStatePtr st = FindDir(dir_ino);
  return st ? st->watermark.load(std::memory_order_relaxed) : 0;
}

JournalManager::DirStatePtr JournalManager::FindDir(const Uuid& dir_ino) {
  std::lock_guard lock(registry_mu_);
  auto it = dirs_.find(dir_ino);
  return it == dirs_.end() ? nullptr : it->second;
}

JournalManager::DirStatePtr JournalManager::FindOrCreateDir(
    const Uuid& dir_ino) {
  std::lock_guard lock(registry_mu_);
  auto& slot = dirs_[dir_ino];
  if (!slot) slot = std::make_shared<DirState>();
  return slot;
}

// Compares the persisted fence object against this tenure's token.
// kStale: a successor advanced the fence — this leader is deposed. A
// persisted fence BEHIND the registered token is an invariant violation
// (grants must FenceDir before registering) and is also rejected.
Status JournalManager::CheckFenceLocked(const Uuid& dir_ino, DirState& st) {
  ARKFS_ASSIGN_OR_RETURN(const FenceToken stored, prt_->LoadDirFence(dir_ino));
  metrics_.fence_checks.Add();
  if (stored > st.fence) {
    metrics_.fence_rejections.Add();
    return ErrStatus(Errc::kStale,
                     "journal commit fenced: lease epoch superseded (stored " +
                         stored.ToString() + " > " + st.fence.ToString() + ")");
  }
  if (stored < st.fence) {
    metrics_.fence_violations.Add();
    return ErrStatus(Errc::kStale,
                     "fence invariant violated: persisted fence " +
                         stored.ToString() + " behind granted " +
                         st.fence.ToString());
  }
  return Status::Ok();
}

Status JournalManager::AppendToJournalLocked(const Uuid& dir_ino,
                                             DirState& st, Transaction& txn) {
  // PRE-append fence check: if a successor already advanced the fence, this
  // leader's journal-length cursor is stale and a PutRange at that offset
  // would corrupt the successor's journal. (A successor fences BEFORE it
  // loads the journal, so a deposed leader is caught here in the common
  // case; the residual window is closed by the post-append check below.)
  if (st.fence.valid()) {
    ARKFS_RETURN_IF_ERROR(CheckFenceLocked(dir_ino, st));
  }
  txn.fence = st.fence;
  const Bytes framed = EncodeTransaction(txn);
  if (prt_->store().supports_partial_write()) {
    ARKFS_RETURN_IF_ERROR(
        prt_->store().PutRange(JournalKey(dir_ino), st.journal_bytes, framed));
  } else {
    // Whole-object backend: read-modify-write append.
    Bytes full;
    if (st.journal_bytes > 0) {
      auto existing = prt_->LoadJournal(dir_ino);
      if (existing.ok()) full = std::move(*existing);
    }
    full.resize(st.journal_bytes);  // drop any stale tail
    full.insert(full.end(), framed.begin(), framed.end());
    ARKFS_RETURN_IF_ERROR(prt_->StoreJournal(dir_ino, full));
  }
  // POST-append fence check, BEFORE the transaction is acknowledged (the
  // caller treats any error as "nothing committed" and unwinds). This is the
  // split-brain linchpin: an acked commit implies the fence had not moved
  // AFTER the frame was durable, so any successor's fence advance — which
  // strictly precedes its journal load — happens after the frame landed and
  // the successor's recovery replays it. Acked operations survive deposition.
  if (st.fence.valid()) {
    ARKFS_RETURN_IF_ERROR(CheckFenceLocked(dir_ino, st));
  }
  st.journal_bytes += framed.size();
  metrics_.transactions_committed.Add();
  metrics_.records_committed.Add(txn.records.size());
  metrics_.journal_bytes_written.Add(framed.size());
  st.committed.emplace_back(std::move(txn), framed.size());
  return Status::Ok();
}

Status JournalManager::CommitRunningLocked(const Uuid& dir_ino, DirState& st) {
  Transaction txn;
  obs::ActiveTrace trace;
  std::uint64_t window_bytes = 0;
  {
    std::lock_guard lock(st.mu);
    if (st.running.empty()) return Status::Ok();
    txn.records = std::move(st.running);
    st.running.clear();
    txn.seq = st.next_seq++;
    // Claim the batch's dirty-window share; it is drained only once the
    // append succeeds (the records stay "unflushed" while in flight).
    window_bytes = st.pending_window_bytes;
    st.pending_window_bytes = 0;
    trace = st.trace;
    st.trace = obs::ActiveTrace{};
  }
  const std::uint64_t n_records = txn.records.size();
  // Commit under the trace of the op that opened the transaction, whether
  // we run on the caller's thread (fsync) or the flusher.
  obs::TraceScope scope(trace.tracer, trace.ctx);
  obs::Span span("journal.commit");
  const TimePoint commit_start = Now();
  Status append = AppendToJournalLocked(dir_ino, st, txn);
  if (append.ok()) {
    op_latencies_.Record("commit", Now() - commit_start);
    window_.NoteDrained(n_records, window_bytes);
  }
  if (!append.ok()) {
    // Unwind: nothing was made durable, so the records must stay committable
    // — losing them here would silently drop already-applied metatable
    // mutations on the floor. Re-prepend them ahead of anything appended
    // meanwhile and return the seq (safe: seqs are only allocated under
    // append_mu, which we still hold, so no later seq exists yet). The
    // flusher redrives them after the retry delay, in every mode.
    std::lock_guard lock(st.mu);
    txn.records.insert(txn.records.end(),
                       std::make_move_iterator(st.running.begin()),
                       std::make_move_iterator(st.running.end()));
    st.running = std::move(txn.records);
    st.pending_window_bytes += window_bytes;  // still pending, still counted
    --st.next_seq;
    QueueFlushLocked(dir_ino, st,
                     std::max<Nanos>(flush_delay_ / 4, Millis(2)));
  }
  return append;
}

Status JournalManager::CommitRunning(const Uuid& dir_ino, DirState& st) {
  std::lock_guard append(st.append_mu);
  return CommitRunningLocked(dir_ino, st);
}

Status JournalManager::Checkpoint(const Uuid& dir_ino, DirState& st) {
  obs::Span span("journal.checkpoint");
  std::lock_guard cp(st.checkpoint_mu);
  std::vector<Transaction> batch;
  std::vector<std::uint64_t> sizes;
  std::uint64_t batch_bytes = 0;
  {
    std::lock_guard append(st.append_mu);
    if (st.committed.empty()) return Status::Ok();
    batch.reserve(st.committed.size());
    sizes.reserve(st.committed.size());
    for (auto& [txn, size] : st.committed) {
      batch.push_back(std::move(txn));
      sizes.push_back(size);
      batch_bytes += size;
    }
    st.committed.clear();
  }
  // On any failure the batch goes back to the FRONT of the queue: its frames
  // are still at the head of the journal object, so the retry re-applies the
  // same prefix (idempotently) and the trim stays byte-aligned with memory.
  // Dropping the batch instead would desynchronize the next trim and orphan
  // acked transactions until a full recovery.
  auto restore_batch = [&] {
    std::lock_guard append(st.append_mu);
    for (std::size_t i = batch.size(); i-- > 0;) {
      st.committed.emplace_front(std::move(batch[i]), sizes[i]);
    }
  };

  // Apply to the authoritative objects WITHOUT blocking appends: anything
  // committed meanwhile lands after the prefix we are consuming, and a
  // crash at any point simply replays (idempotently) from the journal.
  // 2PC prepares are always co-batched with their decisions (CommitCrossDir
  // appends both phases under append_mu), so no peer consultation is needed.
  const TimePoint cp_start = Now();
  ApplyOutcome outcome;
  Status applied = ApplyTransactions(
      *prt_, dir_ino, batch, [](const Uuid&, const Uuid&) { return false; },
      nullptr, config_.shard_policy, &outcome, st.sweep_orphans);
  if (!applied.ok()) {
    // The failed apply may have landed some of a new shard generation before
    // dying; flag the orphan sweep so the retry cleans it up before trimming.
    st.sweep_orphans = true;
    restore_batch();
    return applied;
  }
  if (outcome.shard_count > 0) st.sweep_orphans = false;

  // Trim exactly the checkpointed prefix from the journal object.
  Status trim = Status::Ok();
  {
    std::lock_guard append(st.append_mu);
    Bytes remainder;
    if (st.journal_bytes > batch_bytes) {
      auto current = prt_->LoadJournal(dir_ino);
      if (current.ok() && current->size() >= batch_bytes) {
        remainder.assign(current->begin() + batch_bytes, current->end());
      } else if (!current.ok() && current.code() != Errc::kNoEnt) {
        // Can't see the suffix appended meanwhile; truncating blind would
        // drop it. Leave the journal alone and retry the whole batch later.
        trim = current.status();
      }
    }
    if (trim.ok()) {
      trim = prt_->StoreJournal(dir_ino, remainder);
      if (trim.ok()) st.journal_bytes = remainder.size();
    }
  }
  if (!trim.ok()) {
    restore_batch();  // re-apply is idempotent; keeps trim offsets aligned
    return trim;
  }
  op_latencies_.Record("checkpoint", Now() - cp_start);
  metrics_.transactions_checkpointed.Add(batch.size());
  metrics_.checkpoints.Add();
  metrics_.dentry_shards_loaded.Add(outcome.shards_loaded);
  metrics_.dentry_shards_written.Add(outcome.shards_written);
  if (outcome.migrated) metrics_.dentry_migrations.Add();
  if (outcome.resharded) metrics_.dentry_reshards.Add();
  if (config_.on_checkpoint) config_.on_checkpoint();
  return Status::Ok();
}

Status JournalManager::CommitDir(const Uuid& dir_ino) {
  DirStatePtr st = FindDir(dir_ino);
  if (!st) return Status::Ok();
  {
    std::lock_guard lock(st->mu);
    if (!st->running.empty()) metrics_.group_drains.Add();
  }
  return CommitRunning(dir_ino, *st);
}

Status JournalManager::FlushDir(const Uuid& dir_ino) {
  DirStatePtr st = FindDir(dir_ino);
  if (!st) return Status::Ok();
  {
    std::lock_guard lock(st->mu);
    if (!st->running.empty()) metrics_.group_drains.Add();
  }
  ARKFS_RETURN_IF_ERROR(CommitRunning(dir_ino, *st));
  return Checkpoint(dir_ino, *st);
}

Status JournalManager::FlushAll() {
  // Per-directory journals are independent, so sync() fans the flushes out
  // across directories and overlaps their store round trips. RunAll runs
  // every task even after a failure (first-error-wins, not abort-on-first):
  // one bad directory must not leave the rest of the namespace unsynced.
  return ForEachDir([this](const Uuid& ino) { return FlushDir(ino); });
}

Status JournalManager::CommitAll() {
  return ForEachDir([this](const Uuid& ino) { return CommitDir(ino); });
}

Status JournalManager::ForEachDir(
    const std::function<Status(const Uuid&)>& op) {
  std::vector<Uuid> all;
  {
    std::lock_guard lock(registry_mu_);
    all.reserve(dirs_.size());
    for (const auto& [ino, _] : dirs_) all.push_back(ino);
  }
  return FanOut(all, op);
}

Status JournalManager::FanOut(const std::vector<Uuid>& dirs,
                              const std::function<Status(const Uuid&)>& op) {
  if (dirs.empty()) return Status::Ok();
  // The returned Status is first-error-wins; the per-directory failure
  // COUNT is only visible through the journal.flush.errors counter, so bump
  // it for every failing directory here.
  auto counted = [this, &op](const Uuid& ino) {
    Status s = op(ino);
    if (!s.ok()) metrics_.flush_errors.Add();
    return s;
  };
  if (dirs.size() == 1) return counted(dirs[0]);
  std::vector<std::function<Status()>> tasks;
  tasks.reserve(dirs.size());
  for (const auto& ino : dirs) {
    tasks.push_back([&counted, ino] { return counted(ino); });
  }
  return prt_->async().RunAll(std::move(tasks));
}

Status JournalManager::CommitCrossDir(const Uuid& src_dir,
                                      std::vector<Record> src_records,
                                      const Uuid& dst_dir,
                                      std::vector<Record> dst_records) {
  if (src_dir == dst_dir) {
    return ErrStatus(Errc::kInval, "cross-dir commit needs two directories");
  }
  DirStatePtr src = FindOrCreateDir(src_dir);
  DirStatePtr dst = FindOrCreateDir(dst_dir);
  // Canonical lock order by inode id prevents deadlock with a concurrent
  // rename in the opposite direction. Holding both append locks across both
  // 2PC phases guarantees a checkpoint never sees an undecided prepare.
  DirState* first = src.get();
  DirState* second = dst.get();
  if (dst_dir < src_dir) std::swap(first, second);
  std::lock_guard io1(first->append_mu);
  std::lock_guard io2(second->append_mu);

  // Preserve intra-directory ordering: anything already buffered commits
  // ahead of the rename.
  ARKFS_RETURN_IF_ERROR(CommitRunningLocked(src_dir, *src));
  ARKFS_RETURN_IF_ERROR(CommitRunningLocked(dst_dir, *dst));

  const Uuid txid = NewUuid();

  // Phase 1: durable prepares in both journals.
  Transaction src_prep;
  {
    std::lock_guard lock(src->mu);
    src_prep.seq = src->next_seq++;
  }
  src_prep.records.push_back(Record::Prepare(txid, dst_dir));
  for (auto& r : src_records) src_prep.records.push_back(std::move(r));
  ARKFS_RETURN_IF_ERROR(AppendToJournalLocked(src_dir, *src, src_prep));

  Transaction dst_prep;
  {
    std::lock_guard lock(dst->mu);
    dst_prep.seq = dst->next_seq++;
  }
  dst_prep.records.push_back(Record::Prepare(txid, src_dir));
  for (auto& r : dst_records) dst_prep.records.push_back(std::move(r));
  ARKFS_RETURN_IF_ERROR(AppendToJournalLocked(dst_dir, *dst, dst_prep));

  // Phase 2: commit decisions.
  for (DirStatePtr* side : {&src, &dst}) {
    Transaction decision;
    {
      std::lock_guard lock((*side)->mu);
      decision.seq = (*side)->next_seq++;
    }
    decision.records.push_back(Record::Decision(txid, /*commit=*/true));
    const Uuid& ino = (side == &src) ? src_dir : dst_dir;
    ARKFS_RETURN_IF_ERROR(AppendToJournalLocked(ino, **side, decision));
  }
  // Cross-dir renames mutate both directories without passing through
  // Append(): advance both watermarks before the ack.
  src->watermark.fetch_add(1, std::memory_order_relaxed);
  dst->watermark.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Result<RecoveryReport> JournalManager::RecoverDir(const Uuid& dir_ino) {
  obs::Span span("journal.recover");
  RecoveryReport report;
  auto raw = prt_->LoadJournal(dir_ino);
  if (!raw.ok()) {
    if (raw.code() == Errc::kNoEnt) return report;  // nothing to recover
    return raw.status();
  }
  const std::vector<Transaction> txns = ParseJournal(*raw);
  if (txns.empty()) return report;

  auto peer_decision = [this](const Uuid& txid, const Uuid& peer) -> bool {
    auto peer_raw = prt_->LoadJournal(peer);
    if (!peer_raw.ok()) return false;  // presumed abort
    for (const auto& txn : ParseJournal(*peer_raw)) {
      for (const auto& rec : txn.records) {
        if (rec.type == RecordType::kDecision && rec.txid == txid) {
          return rec.commit;
        }
      }
    }
    return false;
  };

  ApplyOutcome outcome;
  ARKFS_RETURN_IF_ERROR(ApplyTransactions(*prt_, dir_ino, txns, peer_decision,
                                          &report, config_.shard_policy,
                                          &outcome, /*sweep_orphans=*/true));
  ARKFS_RETURN_IF_ERROR(prt_->StoreJournal(dir_ino, Bytes{}));
  metrics_.dentry_shards_loaded.Add(outcome.shards_loaded);
  metrics_.dentry_shards_written.Add(outcome.shards_written);
  if (outcome.migrated) metrics_.dentry_migrations.Add();
  if (outcome.resharded) metrics_.dentry_reshards.Add();

  // Reset any stale in-memory bookkeeping for this directory.
  if (DirStatePtr st = FindDir(dir_ino)) {
    std::scoped_lock locks(st->checkpoint_mu, st->append_mu, st->mu);
    DropPendingWindowLocked(*st, /*count_as_dropped=*/false);
    st->running.clear();
    st->committed.clear();
    st->journal_bytes = 0;
    st->watermark.store(0, std::memory_order_relaxed);
  }
  return report;
}

bool JournalManager::HasSurvivingJournal(const Uuid& dir_ino) {
  auto raw = prt_->LoadJournal(dir_ino);
  if (!raw.ok()) return false;
  return !ParseJournal(*raw).empty();
}

Status JournalManager::ApplyTransactions(
    Prt& prt, const Uuid& dir_ino, const std::vector<Transaction>& txns,
    const std::function<bool(const Uuid& txid, const Uuid& peer)>&
        peer_decision,
    RecoveryReport* report, const DentryShardPolicy& policy,
    ApplyOutcome* outcome, bool sweep_orphans) {
  // Decisions may live in later transactions than their prepares.
  std::map<Uuid, bool> decisions;
  for (const auto& txn : txns) {
    for (const auto& rec : txn.records) {
      if (rec.type == RecordType::kDecision) decisions[rec.txid] = rec.commit;
    }
  }

  // Fold every record in replay order into the FINAL per-key action, then
  // execute the whole group as one batched put and one batched delete: a
  // checkpoint of N transactions costs ~one overlapped store round trip
  // instead of one blocking op per record. Replay is idempotent, so the
  // all-attempt/first-error batch semantics are safe on partial failure.
  std::map<Uuid, std::optional<Inode>> inode_ops;  // value = upsert, nullopt = remove
  // Final per-name dentry action (value = upsert, nullopt = remove). Folding
  // to actions first means we never load a shard the batch didn't touch.
  std::map<std::string, std::optional<Dentry>> dentry_ops;
  // Data chunks of removed files. Kept even if the ino is later re-upserted
  // (the serial path deleted them at the remove record too).
  std::map<Uuid, std::pair<std::uint64_t, std::uint64_t>> data_removes;
  std::set<Uuid> dir_removes;  // dentry objects + journal of removed child dirs

  for (const auto& txn : txns) {
    if (const Record* prep = txn.FindPrepare()) {
      bool commit = false;
      auto it = decisions.find(prep->txid);
      if (it != decisions.end()) {
        commit = it->second;
      } else if (peer_decision) {
        commit = peer_decision(prep->txid, prep->peer_dir);
      }
      if (!commit) {
        if (report) ++report->transactions_aborted;
        continue;
      }
    }
    if (report) ++report->transactions_replayed;

    for (const auto& rec : txn.records) {
      switch (rec.type) {
        case RecordType::kInodeUpsert:
          inode_ops[rec.inode.ino] = rec.inode;
          break;
        case RecordType::kInodeRemove:
          inode_ops[rec.target_ino] = std::nullopt;
          if (rec.chunk_size > 0 && rec.file_size > 0) {
            data_removes[rec.target_ino] = {rec.chunk_size, rec.file_size};
          }
          break;
        case RecordType::kDentryAdd:
          dentry_ops[rec.dentry.name] = rec.dentry;
          break;
        case RecordType::kDentryRemove:
          dentry_ops[rec.name] = std::nullopt;
          break;
        case RecordType::kDirRemove:
          dir_removes.insert(rec.target_ino);
          break;
        case RecordType::kPrepare:
        case RecordType::kDecision:
          break;  // control records
      }
      if (report && rec.type != RecordType::kPrepare &&
          rec.type != RecordType::kDecision) {
        ++report->records_applied;
      }
    }
  }

  ApplyOutcome out;
  std::vector<Bytes> put_bufs;  // owns encodings until the batches join
  std::vector<BatchPut> puts;
  // Ordered manifest Put, issued only after the main MultiPut fully lands.
  // For migration/reshard it is the commit point that atomically switches
  // readers to the new generation (the old layout is deleted only after);
  // for steady-state checkpoints it carries the entry-count update. Either
  // way the manifest object only ever transitions valid -> valid, and a
  // crash before it leaves the previous layout intact with the journal
  // unconsumed, so replay converges.
  std::optional<std::pair<std::string, Bytes>> layout_commit;
  std::vector<std::string> deletes;

  for (const auto& [ino, op] : inode_ops) {
    if (op) {
      put_bufs.push_back(op->Encode());
      BatchPut p;
      p.key = InodeKey(ino);
      p.data = put_bufs.back();
      puts.push_back(std::move(p));
    } else {
      deletes.push_back(InodeKey(ino));
    }
  }

  if (!dentry_ops.empty()) {
    auto add_shard_put = [&](std::uint32_t shard_count, std::uint32_t shard,
                             std::uint32_t slot, std::uint64_t epoch,
                             const std::vector<Dentry>& entries) {
      put_bufs.push_back(EncodeDentryShardObject(epoch, entries));
      BatchPut p;
      p.key = DentryShardKey(dir_ino, shard_count, shard, slot);
      p.data = put_bufs.back();
      puts.push_back(std::move(p));
      ++out.shards_written;
    };
    auto apply_ops = [&](std::map<std::string, Dentry>& entries) {
      for (const auto& [name, op] : dentry_ops) {
        if (op) {
          entries[name] = *op;
        } else {
          entries.erase(name);
        }
      }
    };
    auto partition = [&](std::map<std::string, Dentry>& entries,
                         std::uint32_t shard_count) {
      std::vector<std::vector<Dentry>> shards(shard_count);
      for (auto& [name, d] : entries) {
        shards[DentryShardOf(name, shard_count)].push_back(std::move(d));
      }
      return shards;
    };

    auto manifest = prt.LoadDentryManifest(dir_ino);
    bool adopted = false;
    std::uint64_t adopted_epoch_max = 0;
    if (!manifest.ok() && manifest.code() != Errc::kNoEnt) {
      if (!report) return manifest.status();
      // Undecodable manifest during recovery: the layout-flip Put tore. The
      // journal is only ever trimmed AFTER a successful flip, so this journal
      // provably covers everything since the last durable layout — all we
      // need as a base is some fully materialized generation. Candidates are
      // verified shard-by-shard before adoption (a failed reshard can leave
      // a partially landed orphan generation, possibly LARGER than the real
      // one): take the biggest generation where every shard index has at
      // least one decodable slot object, preferring the highest epoch per
      // shard. Stale-but-complete orphans cannot occur here — they are swept
      // by the next successful checkpoint before its journal trim, so any
      // generation still present is no older than this journal's coverage.
      ARKFS_ASSIGN_OR_RETURN(std::vector<std::string> keys,
                             prt.store().List(DentryObjectPrefix(dir_ino)));
      // gen -> per-shard slot presence (2 bits).
      std::map<std::uint32_t, std::vector<std::uint8_t>> gens;
      for (const auto& k : keys) {
        auto parsed = ParseKey(k);
        if (!parsed.ok() || parsed->kind != KeyKind::kDentryShard) continue;
        auto& present = gens[parsed->dentry_shard_count];
        present.resize(parsed->dentry_shard_count, 0);
        present[parsed->dentry_shard] |=
            static_cast<std::uint8_t>(1u << parsed->dentry_slot);
      }
      for (auto it = gens.rbegin(); it != gens.rend() && !adopted; ++it) {
        const std::uint32_t g = it->first;
        const auto& present = it->second;
        std::vector<BatchGet> gets;
        std::vector<std::pair<std::uint32_t, std::uint32_t>> which;
        for (std::uint32_t s = 0; s < g; ++s) {
          for (std::uint32_t slot = 0; slot < 2; ++slot) {
            if (present[s] & (1u << slot)) {
              BatchGet bg;
              bg.key = DentryShardKey(dir_ino, g, s, slot);
              gets.push_back(std::move(bg));
              which.emplace_back(s, slot);
            }
          }
        }
        auto mg = prt.async().MultiGet(std::move(gets));
        DentryManifest candidate;
        candidate.shard_count = g;
        std::vector<std::uint64_t> best_epoch(g, 0);
        std::vector<bool> has_slot(g, false);
        std::uint64_t epoch_max = 0;
        for (std::size_t i = 0; i < which.size(); ++i) {
          if (!mg.results[i].ok()) continue;
          auto decoded = DecodeDentryShardObject(*mg.results[i]);
          if (!decoded.ok()) continue;  // torn artifact at this slot
          const auto [s, slot] = which[i];
          if (!has_slot[s] || decoded->epoch > best_epoch[s]) {
            has_slot[s] = true;
            best_epoch[s] = decoded->epoch;
            candidate.SetSlot(s, static_cast<std::uint8_t>(slot));
          }
          epoch_max = std::max(epoch_max, decoded->epoch);
        }
        bool complete = true;
        for (std::uint32_t s = 0; s < g; ++s) complete &= has_slot[s];
        if (!complete) continue;  // torn orphan generation: skip it
        manifest = candidate;  // entry_count recomputed by the rewrite below
        adopted = true;
        adopted_epoch_max = epoch_max;
      }
      if (!adopted) {
        // No complete generation at all: the tear was a legacy migration
        // whose shards never fully landed either — fall back to the legacy
        // path, which rewrites every shard of its generation anyway.
        manifest = ErrStatus(Errc::kNoEnt, "torn manifest, no shards");
      }
    }
    if (!manifest.ok()) {
      // Legacy unsharded block (or never checkpointed): fold the batch in
      // and migrate to the sharded layout in the same pass.
      ARKFS_ASSIGN_OR_RETURN(auto block, prt.LoadDentryBlock(dir_ino));
      std::map<std::string, Dentry> entries;
      for (auto& d : block) entries[d.name] = std::move(d);
      apply_ops(entries);
      const std::uint32_t b = ShardCountFor(policy, entries.size());
      const std::uint64_t total = entries.size();
      auto shards = partition(entries, b);
      for (std::uint32_t s = 0; s < b; ++s) {
        // Every shard of the new generation is written, empty ones included:
        // a replayed migration must overwrite any torn artifact a crashed
        // earlier attempt left at these keys.
        add_shard_put(b, s, /*slot=*/0, /*epoch=*/1, shards[s]);
      }
      layout_commit.emplace(DentryManifestKey(dir_ino),
                            EncodeDentryManifest({b, total}));
      deletes.push_back(DentryKey(dir_ino));
      out.migrated = true;
      out.shard_count = b;
    } else {
      const std::uint32_t b = manifest->shard_count;
      // Grow decision from the size hint plus an upper bound on net adds;
      // overestimating only grows a touch early, and counts are corrected
      // whenever all shards are in hand.
      std::uint64_t adds = 0;
      for (const auto& [_, op] : dentry_ops) adds += op ? 1 : 0;
      std::uint32_t target = ShardCountFor(policy, manifest->entry_count + adds);
      if (target > b || adopted) {
        // Full rewrite: reshard into a bigger generation, or (after a torn-
        // manifest adoption) re-materialize the adopted generation with a
        // freshly recomputed entry count and a valid manifest.
        std::vector<std::uint32_t> all_idx(b);
        for (std::uint32_t s = 0; s < b; ++s) all_idx[s] = s;
        ARKFS_ASSIGN_OR_RETURN(auto loaded,
                               prt.LoadDentryShards(dir_ino, *manifest, all_idx));
        out.shards_loaded += b;
        std::map<std::string, Dentry> entries;
        for (auto& part : loaded) {
          for (auto& d : part.entries) entries[d.name] = std::move(d);
        }
        apply_ops(entries);
        const std::uint64_t total = entries.size();
        // An adopted manifest carries no usable size hint; re-derive the
        // target from the true count now that everything is in hand.
        if (adopted) target = std::max(b, ShardCountFor(policy, total));
        if (target > b) {
          // New generation at slot 0, epoch 1; the old generation's objects
          // (both slots) are dropped only after the flip.
          auto shards = partition(entries, target);
          for (std::uint32_t s = 0; s < target; ++s) {
            add_shard_put(target, s, /*slot=*/0, /*epoch=*/1, shards[s]);
          }
          layout_commit.emplace(DentryManifestKey(dir_ino),
                                EncodeDentryManifest({target, total}));
          for (std::uint32_t s = 0; s < b; ++s) {
            deletes.push_back(DentryShardKey(dir_ino, b, s, 0));
            deletes.push_back(DentryShardKey(dir_ino, b, s, 1));
          }
          out.resharded = true;
          out.shard_count = target;
        } else {
          // Same generation: write every shard's INACTIVE slot and flip all
          // the slot bits, exactly like a whole-directory steady-state
          // checkpoint. Epochs restart above everything the adoption saw so
          // a future adoption prefers these objects.
          DentryManifest updated = *manifest;
          updated.entry_count = total;
          auto shards = partition(entries, b);
          for (std::uint32_t s = 0; s < b; ++s) {
            const std::uint8_t slot = 1 - manifest->SlotOf(s);
            add_shard_put(b, s, slot, adopted_epoch_max + 1, shards[s]);
            updated.SetSlot(s, slot);
          }
          layout_commit.emplace(DentryManifestKey(dir_ino),
                                EncodeDentryManifest(updated));
          out.shard_count = b;
        }
      } else {
        // Steady state: load and rewrite ONLY the shards this batch dirtied,
        // each into its INACTIVE slot (copy-on-write double buffer). The
        // manifest flip after the MultiPut is the commit point; until it
        // lands, readers and recovery still see the previous slots, so a
        // torn shard put can never damage referenced state — which is what
        // lets every load above decode strictly and fail loudly.
        std::set<std::uint32_t> dirty;
        for (const auto& [name, _] : dentry_ops) {
          dirty.insert(DentryShardOf(name, b));
        }
        const std::vector<std::uint32_t> idx(dirty.begin(), dirty.end());
        ARKFS_ASSIGN_OR_RETURN(auto loaded,
                               prt.LoadDentryShards(dir_ino, *manifest, idx));
        out.shards_loaded += idx.size();
        DentryManifest updated = *manifest;
        std::int64_t delta = 0;
        for (std::size_t i = 0; i < idx.size(); ++i) {
          std::map<std::string, Dentry> entries;
          for (auto& d : loaded[i].entries) entries[d.name] = std::move(d);
          for (const auto& [name, op] : dentry_ops) {
            if (DentryShardOf(name, b) != idx[i]) continue;
            const bool existed = entries.count(name) != 0;
            if (op) {
              entries[name] = *op;
              delta += existed ? 0 : 1;
            } else {
              entries.erase(name);
              delta -= existed ? 1 : 0;
            }
          }
          std::vector<Dentry> shard;
          shard.reserve(entries.size());
          for (auto& [_, d] : entries) shard.push_back(std::move(d));
          // A now-empty shard is still written (as an empty object) so the
          // superseded slot can't resurrect stale entries after the flip.
          const std::uint8_t slot = 1 - manifest->SlotOf(idx[i]);
          add_shard_put(b, idx[i], slot, loaded[i].epoch + 1, shard);
          updated.SetSlot(idx[i], slot);
        }
        updated.entry_count =
            delta < 0 && updated.entry_count < static_cast<std::uint64_t>(-delta)
                ? 0
                : updated.entry_count + delta;
        // The slot-bit flip rides the ordered commit-point Put (after the
        // shard MultiPut), never the MultiPut itself: the manifest object
        // only ever transitions valid -> valid, and nothing references the
        // freshly written slots until it lands.
        layout_commit.emplace(DentryManifestKey(dir_ino),
                              EncodeDentryManifest(updated));
        out.shard_count = b;
        // Recovery replay may be redoing a crashed migration whose manifest
        // landed but whose legacy-block delete didn't; re-issue the delete
        // so the orphan can't linger.
        if (report) deletes.push_back(DentryKey(dir_ino));
      }
    }

    // Orphan-generation sweep: recovery always sweeps; checkpointing sweeps
    // after a failed apply (which may have landed part — or, worse, all — of
    // a generation that never got its manifest flip). A complete-but-stale
    // orphan is the one artifact torn-manifest adoption cannot tell from the
    // real layout, so it must never survive past the journal trim that
    // settles the entries superseding it; the deletes below are ordered
    // after this apply's own manifest flip and before any trim.
    if ((sweep_orphans || report) && out.shard_count > 0) {
      ARKFS_ASSIGN_OR_RETURN(std::vector<std::string> keys,
                             prt.store().List(DentryObjectPrefix(dir_ino)));
      for (auto& k : keys) {
        auto parsed = ParseKey(k);
        if (parsed.ok() && parsed->kind == KeyKind::kDentryShard &&
            parsed->dentry_shard_count != out.shard_count) {
          deletes.push_back(std::move(k));
        }
      }
      out.swept = true;
    }
  }

  for (const auto& [ino, geom] : data_removes) {
    const auto [rec_chunk_size, rec_file_size] = geom;
    const std::uint64_t chunks = (rec_file_size - 1) / rec_chunk_size + 1;
    for (std::uint64_t c = 0; c < chunks; ++c) {
      deletes.push_back(DataKey(ino, c));
    }
  }
  for (const auto& ino : dir_removes) {
    // The removed child may be on either layout: sweep the manifest and all
    // shard generations by prefix, plus the legacy block and the journal.
    ARKFS_ASSIGN_OR_RETURN(std::vector<std::string> listed,
                           prt.store().List(DentryObjectPrefix(ino)));
    for (auto& k : listed) deletes.push_back(std::move(k));
    deletes.push_back(DentryKey(ino));
    deletes.push_back(JournalKey(ino));
    deletes.push_back(FenceKey(ino));  // uuids are never reused; pure cleanup
  }

  Status first = Status::Ok();
  if (!puts.empty()) {
    auto pr = prt.async().MultiPut(std::move(puts));
    first = pr.status;
  }
  if (layout_commit && first.ok()) {
    first = prt.store().Put(layout_commit->first, layout_commit->second);
  }
  // Deletes only run after every put landed: on a torn migration/reshard the
  // old layout MUST survive (the manifest still points at it), and for plain
  // failures the journal is retained for replay anyway.
  if (!deletes.empty() && first.ok()) {
    first = prt.async().MultiDelete(std::move(deletes)).FirstErrorIgnoringNoEnt();
  }
  if (outcome) *outcome = out;
  return first;
}

void JournalManager::QueueFlushLocked(const Uuid& dir_ino, DirState& st,
                                      Nanos delay) {
  st.flush_due = Now() + delay;
  std::lock_guard lock(flush_mu_);
  if (flush_queue_.empty() || st.flush_due < flush_queue_.begin()->first) {
    flush_cv_.notify_one();  // new earliest deadline
  }
  flush_queue_.emplace(st.flush_due, dir_ino);
}

void JournalManager::FlusherMain() {
  std::unique_lock lock(flush_mu_);
  while (!stopping_) {
    const TimePoint now = Now();
    if (flush_queue_.empty()) {
      flush_cv_.wait(lock);
    } else if (flush_queue_.begin()->first > now) {
      flush_cv_.wait_until(lock, flush_queue_.begin()->first);
    } else {
      std::set<Uuid> candidates;
      while (!flush_queue_.empty() && flush_queue_.begin()->first <= now) {
        candidates.insert(flush_queue_.begin()->second);
        flush_queue_.erase(flush_queue_.begin());
      }
      lock.unlock();
      FlushRound(candidates, now);
      lock.lock();
    }
  }
}

void JournalManager::FlushRound(const std::set<Uuid>& candidates,
                                TimePoint now) {
  // An entry is stale when the directory was drained meanwhile (fsync, lease
  // drain, reset) or re-queued for later; whoever refilled or re-queued it
  // left a live entry at its flush_due.
  std::vector<Uuid> due;
  for (const Uuid& ino : candidates) {
    DirStatePtr st = FindDir(ino);
    if (!st) continue;
    std::lock_guard lock(st->mu);
    if (!st->running.empty() && st->flush_due <= now) due.push_back(ino);
  }
  if (due.empty()) return;
  // A failed directory was re-queued by its commit unwind, so the round
  // never retries.
  const TimePoint t0 = Now();
  (void)FanOut(due, [this](const Uuid& ino) {
    DirStatePtr st = FindDir(ino);
    return st ? CommitRunning(ino, *st) : Status::Ok();
  });
  op_latencies_.Record("group_flush", Now() - t0);
  metrics_.group_flushes.Add();
  metrics_.group_flushed_txns.Add(due.size());
  for (const Uuid& ino : due) {
    if (DirStatePtr st = FindDir(ino)) MaybeEnqueueCheckpoint(ino, *st, now);
  }
}

void JournalManager::CheckpointThreadMain(int index) {
  while (auto ino = checkpoint_queues_[index]->Pop()) {
    DirStatePtr st = FindDir(*ino);
    if (!st) continue;
    Status s = Checkpoint(*ino, *st);
    if (!s.ok()) {
      ARKFS_WLOG << "checkpoint failed for " << ino->ToString() << ": "
                 << s.ToString();
    }
  }
}

void JournalManager::MaybeEnqueueCheckpoint(const Uuid& dir_ino,
                                            DirState& st, TimePoint now) {
  bool due = false;
  {
    std::lock_guard lock(st.mu);
    if (now - st.last_checkpoint_enqueue >= config_.commit_interval) {
      st.last_checkpoint_enqueue = now;
      due = true;
    }
  }
  if (due) checkpoint_queues_[CheckpointThreadFor(dir_ino)]->Push(dir_ino);
}

std::string JournalManager::IntrospectText() const {
  const GroupWindow::Depth d = window_.depth();
  const GroupWindowLimits& lim = window_.limits();
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "durability mode: %s\n"
      "dirty window: %llu records / %llu bytes (est), oldest %.3f ms"
      " (limits %llu records / %llu bytes / %lld ms)\n"
      "drains: %llu (lease-event %llu)  stalls: %llu\n"
      "flushes: %llu (txns %llu)  dropped records: %llu  flush errors: %llu\n",
      DurabilityModeName(config_.durability),
      static_cast<unsigned long long>(d.records),
      static_cast<unsigned long long>(d.bytes),
      static_cast<double>(d.oldest_age.count()) / 1e6,
      static_cast<unsigned long long>(lim.max_records),
      static_cast<unsigned long long>(lim.max_bytes),
      static_cast<long long>(
          std::chrono::duration_cast<std::chrono::milliseconds>(lim.max_age)
              .count()),
      static_cast<unsigned long long>(metrics_.group_drains.value()),
      static_cast<unsigned long long>(metrics_.group_lease_drains.value()),
      static_cast<unsigned long long>(metrics_.group_stalls.value()),
      static_cast<unsigned long long>(metrics_.group_flushes.value()),
      static_cast<unsigned long long>(metrics_.group_flushed_txns.value()),
      static_cast<unsigned long long>(metrics_.group_dropped_records.value()),
      static_cast<unsigned long long>(metrics_.flush_errors.value()));
  return buf;
}

}  // namespace arkfs::journal
