// Client infrastructure: construction, lease/leadership flows, RPC serving.
// Operation bodies live in client_ops.cc.
#include "core/client.h"

#include "common/log.h"
#include "objstore/tracing_store.h"

namespace arkfs {

Status Client::Format(const ObjectStorePtr& store, bool force) {
  Prt prt(store);
  if (!force) {
    auto existing = prt.LoadInode(kRootIno);
    if (existing.ok()) return ErrStatus(Errc::kExist, "file system exists");
  }
  Inode root = MakeInode(kRootIno, FileType::kDirectory, 0755, 0, 0, Uuid{});
  ARKFS_RETURN_IF_ERROR(prt.StoreInode(root));
  // Fresh file systems start on the sharded layout (B=1, grown on demand);
  // only pre-existing images still carry legacy unsharded blocks.
  ARKFS_RETURN_IF_ERROR(prt.StoreDentryManifest(kRootIno, DentryManifest{}));
  return Status::Ok();
}

Client::Client(ObjectStorePtr store, rpc::FabricPtr fabric,
               ClientConfig config)
    : config_([&] {
        ClientConfig c = std::move(config);
        // One registry per client: sub-layer configs that left their
        // registry unset inherit the client's.
        if (!c.journal.metrics) c.journal.metrics = c.metrics;
        if (!c.async.metrics) c.async.metrics = c.metrics;
        return c;
      }()),
      // Every store op this client issues (PRT, journal, cache, async I/O)
      // goes through the tracing decorator, so an active request trace picks
      // up its "objstore.*" spans.
      store_(std::make_shared<TracingStore>(std::move(store))),
      fabric_(std::move(fabric)),
      tracer_(config_.trace_capacity) {
  local_meta_ops_.Attach(config_.metrics, "client.local_meta_ops");
  forwarded_ops_.Attach(config_.metrics, "client.forwarded_ops");
  served_remote_ops_.Attach(config_.metrics, "client.served_remote_ops");
  lease_acquires_.Attach(config_.metrics, "client.lease_acquires");
  lease_redirects_.Attach(config_.metrics, "client.lease_redirects");
  perm_cache_hits_.Attach(config_.metrics, "client.perm_cache_hits");
  recoveries_.Attach(config_.metrics, "client.recoveries");
  stat_local_.Attach(config_.metrics, "client.stat.local");
  stat_forwarded_.Attach(config_.metrics, "client.stat.forwarded");
  stat_delegated_.Attach(config_.metrics, "client.stat.delegated");
  deleg_hits_.Attach(config_.metrics, "client.deleg.hits");
  deleg_misses_.Attach(config_.metrics, "client.deleg.misses");
  deleg_refetches_.Attach(config_.metrics, "client.deleg.refetches");
  deleg_invalidations_.Attach(config_.metrics, "client.deleg.invalidations");
  prt_ = std::make_shared<Prt>(store_, config_.chunk_size, config_.async);
  lease_ = std::make_unique<lease::LeaseClient>(fabric_, config_.address,
                                                config_.lease_options);
  journal_ = std::make_shared<journal::JournalManager>(prt_, config_.journal);
  cache_ = std::make_shared<ObjectCache>(prt_, config_.cache);
}

Result<std::shared_ptr<Client>> Client::Create(ObjectStorePtr store,
                                               rpc::FabricPtr fabric,
                                               ClientConfig config) {
  if (config.address.empty()) {
    return ErrStatus(Errc::kInval, "client needs a fabric address");
  }
  std::shared_ptr<Client> client(
      new Client(std::move(store), std::move(fabric), std::move(config)));
  ARKFS_RETURN_IF_ERROR(client->Start());
  return client;
}

Status Client::Start() {
  endpoint_ = std::make_shared<rpc::Endpoint>();
  endpoint_->RegisterMethod(
      wire::kMethodDirOp,
      [this](ByteSpan payload) { return HandleDirOp(payload); });
  endpoint_->RegisterMethod(
      wire::kMethodFlushFile,
      [this](ByteSpan payload) { return HandleFlushFile(payload); });
  return fabric_->Bind(config_.address, endpoint_);
}

Client::~Client() {
  if (!shut_down_.load()) {
    Status st = Shutdown();
    if (!st.ok()) {
      ARKFS_WLOG << "client shutdown in destructor failed: " << st.ToString();
    }
  }
}

Status Client::Shutdown() {
  if (shut_down_.exchange(true)) return Status::Ok();
  Status first_error;
  // Flush data before metadata so sizes recorded in inodes are backed by
  // chunks in the store.
  Status st = cache_->FlushAll();
  if (!st.ok() && first_error.ok()) first_error = st;

  std::vector<Uuid> held;
  {
    std::lock_guard lock(dirs_mu_);
    for (auto& [ino, handle] : dirs_) {
      if (handle->leader) held.push_back(ino);
    }
  }
  for (const Uuid& ino : held) {
    st = RelinquishDir(ino);
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  fabric_->Unbind(config_.address);
  return first_error;
}

void Client::CrashHard() {
  // Disappear from the network; keep all in-memory state unflushed. The
  // journal objects in the store retain exactly what was committed. Halting
  // the journal's background threads is part of the crash model: a dead
  // process cannot keep flushing its dirty window, so whatever was
  // sequenced-but-unflushed at this instant is the realized loss window.
  shut_down_.store(true);
  fabric_->Unbind(config_.address);
  journal_->Halt();
}

// ---------------------------------------------------------------------------
// Directory access & leases
// ---------------------------------------------------------------------------

Client::DirHandlePtr Client::HandleFor(const Uuid& dir_ino) {
  std::lock_guard lock(dirs_mu_);
  auto& slot = dirs_[dir_ino];
  if (!slot) {
    slot = std::make_shared<DirHandle>();
    slot->ino = dir_ino;
  }
  return slot;
}

Result<Client::DirRef> Client::EnsureDirAccess(const Uuid& dir_ino,
                                                bool need_lease) {
  DirHandlePtr handle = HandleFor(dir_ino);
  {
    std::shared_lock lock(handle->mu);
    // Proactive renewal: re-acquire when less than a quarter of the lease
    // term remains, so a busy leader never stalls on expiry mid-burst.
    const TimePoint now = Now();
    if (handle->leader && !handle->lame_duck && now < handle->lease_until &&
        handle->lease_until - now > handle->lease_duration / 4) {
      return DirRef{handle, {}};
    }
    // Until the hinted leader's lease can lapse nobody else can lead: route
    // there without a manager round trip. The leader validates every
    // forwarded op against its own lease, so a stale hint costs one retry.
    if (!handle->leader && !need_lease && now < handle->hint_until) {
      return DirRef{nullptr, handle->leader_hint, /*hinted=*/true};
    }
  }
  // Not (or no longer) leader: try to acquire the lease. A leader renewal
  // reports the directory's journal watermark (zero when we never led this
  // tenure) so the manager can stamp delegations; a non-leader asks for a
  // read delegation to ride along with the redirect.
  lease::LeaseClient::AcquireOptions opts;
  opts.want_delegation = config_.read_delegations;
  opts.watermark = journal_->Watermark(dir_ino);
  lease::LeaseClient::Delegation deleg;
  auto grant = lease_->Acquire(dir_ino, opts, &deleg);
  if (grant.ok()) {
    lease_acquires_.Add();
    std::unique_lock lock(handle->mu);
    // Double-check: a concurrent EnsureDirAccess may have won.
    if (!handle->leader || Now() >= handle->lease_until) {
      handle->lease_duration = std::chrono::duration_cast<Nanos>(
          grant->until - Now());
      ARKFS_RETURN_IF_ERROR(BecomeLeader(handle, *grant));
    } else if (grant->token == handle->fence) {
      // Extension of the live tenure: adopt the manager's new expiry.
      handle->lease_until = std::max(handle->lease_until, grant->until);
    }
    handle->lame_duck = false;
    handle->hint_until = {};
    return DirRef{handle, {}};
  }
  if (lease::IsRedirect(grant.status())) {
    lease_redirects_.Add();
    TimePoint hint_until = deleg.leader_until;
    if (deleg.granted) {
      DelegAdopt(dir_ino, deleg);
      // Delegation refresh rides on the redirect, so the hint ends with it.
      hint_until = std::min(hint_until, deleg.until);
    }
    std::unique_lock lock(handle->mu);
    handle->leader_hint = grant.status().detail();
    handle->hint_until = hint_until;
    return DirRef{nullptr, handle->leader_hint};
  }
  if (grant.code() == Errc::kTimedOut || grant.code() == Errc::kBusy) {
    // Renewal failed outright (manager unreachable/overloaded) but our
    // current lease has not expired: degrade to lame duck instead of
    // failing the whole op. Reads stay served from the metatable; ServeDirOp
    // fences mutations with kStale until renewal succeeds or the lease runs
    // out.
    std::unique_lock lock(handle->mu);
    if (handle->leader && Now() < handle->lease_until) {
      handle->lame_duck = true;
      // Entering lame duck is the deposition warning: drain every
      // sequenced-but-unflushed frame NOW, while our fence still holds, so
      // a successor's journal load sees everything we acked. Past this
      // point the fence can advance at any time and a late flush would be
      // rejected (never silently lost — just not ours to write anymore).
      journal_->NoteLeaseDrain();
      (void)journal_->CommitDir(dir_ino);
      return DirRef{handle, {}};
    }
  }
  return grant.status();
}

Status Client::BecomeLeader(const DirHandlePtr& handle,
                            const lease::LeaseClient::Grant& grant) {
  // handle->mu held exclusively by the caller.
  handle->lease_until = grant.until;
  if (grant.fresh && handle->metatable) {
    // Re-acquired before anyone else led the directory: the in-memory
    // metatable is still authoritative (paper's extension optimization).
    if (grant.token != handle->fence) {
      // New tenure (manager restarted or the old lease lapsed unobserved):
      // advance the persisted fence before committing under the new token.
      // Journal bookkeeping is kept — our durable frames stay ours.
      ARKFS_RETURN_IF_ERROR(journal_->FenceDir(handle->ino, grant.token));
      journal_->RegisterDir(handle->ino, grant.token);
      handle->fence = grant.token;
    }
    handle->leader = true;
    return Status::Ok();
  }

  // Leadership genuinely changes hands. Ask the previous leader to flush
  // its pending journal state; an unreachable predecessor means a crash.
  // A predecessor that released cleanly has nothing left to flush and may
  // have left the fabric (unmount), so it is neither asked nor suspected;
  // a journal it left behind still goes through recovery below.
  bool predecessor_crashed = false;
  if (!grant.prev_released && !grant.prev_leader.empty() &&
      grant.prev_leader != config_.address) {
    wire::DirOpRequest flush_req;
    flush_req.op = wire::DirOp::kFlushDir;
    flush_req.dir_ino = handle->ino;
    flush_req.client = config_.address;
    auto resp =
        fabric_->Call(grant.prev_leader, wire::kMethodDirOp, flush_req.Encode());
    if (!resp.ok()) predecessor_crashed = true;
  }

  // Advance the persisted fence BEFORE reading the journal: once the fence
  // holds our token, every commit a deposed predecessor attempts fails its
  // post-append check and is never acked, so the journal state we load below
  // is complete w.r.t. acked operations (DESIGN.md §4.4). kStale here means
  // WE are the deposed one — a newer epoch already fenced this directory.
  ARKFS_RETURN_IF_ERROR(journal_->FenceDir(handle->ino, grant.token));

  // Everything a new leader needs from the store goes out as one overlapped
  // batch: the dir inode, the dentry shards (seeded by the shard count seen
  // at the last leadership), and the surviving-journal probe cost ~one store
  // round trip instead of one per object.
  Prt::DirObjects dir = prt_->LoadDirObjects(handle->ino, handle->shard_hint);
  if (dir.shard_count != 0) handle->shard_hint = dir.shard_count;
  const bool surviving_journal =
      dir.journal.ok() && !journal::ParseJournal(*dir.journal).empty();

  if (surviving_journal || predecessor_crashed) {
    // Valid transactions remain in the journal: the predecessor crashed
    // before checkpointing. Recover under the manager's fence.
    ARKFS_RETURN_IF_ERROR(lease_->BeginRecovery(handle->ino));
    auto report = journal_->RecoverDir(handle->ino);
    if (!report.ok()) {
      (void)lease_->EndRecovery(handle->ino);
      return report.status();
    }
    ARKFS_RETURN_IF_ERROR(lease_->EndRecovery(handle->ino));
    recoveries_.Add();
    ARKFS_ILOG << config_.address << " recovered dir "
               << handle->ino.ToString() << ": "
               << report->transactions_replayed << " replayed, "
               << report->transactions_aborted << " aborted";
    // Recovery rewrote the authoritative objects — the prefetched copies
    // are stale, so rebuild from a fresh batch.
    ARKFS_RETURN_IF_ERROR(BuildMetatable(*handle));
  } else {
    // Any in-memory journal bookkeeping left from a previous (deposed or
    // expired) tenure of ours is stale: the durable journal was replayed by
    // whoever led in between. RecoverDir resets it on the branch above.
    journal_->ResetDir(handle->ino);
    ARKFS_RETURN_IF_ERROR(BuildMetatable(*handle, &dir));
  }
  journal_->RegisterDir(handle->ino, grant.token);
  handle->fence = grant.token;
  handle->leader = true;
  handle->file_leases.clear();
  return Status::Ok();
}

Status Client::BuildMetatable(DirHandle& handle, Prt::DirObjects* preloaded) {
  Prt::DirObjects local;
  if (!preloaded) {
    local = prt_->LoadDirObjects(handle.ino, handle.shard_hint);
    preloaded = &local;
  }
  if (preloaded->shard_count != 0) handle.shard_hint = preloaded->shard_count;
  auto& dir_inode = preloaded->inode;
  if (!dir_inode.ok()) {
    if (dir_inode.code() == Errc::kNoEnt) {
      return ErrStatus(Errc::kNoEnt, "directory inode not found");
    }
    return dir_inode.status();
  }
  if (!dir_inode->IsDir()) return ErrStatus(Errc::kNotDir);
  auto metatable = std::make_unique<Metatable>(std::move(*dir_inode));
  ARKFS_RETURN_IF_ERROR(preloaded->dentries.status());
  for (auto& d : *preloaded->dentries) {
    // Child-file inodes are pulled lazily on first access.
    ARKFS_RETURN_IF_ERROR(metatable->Insert(d, std::nullopt));
  }
  handle.metatable = std::move(metatable);
  return Status::Ok();
}

Status Client::RelinquishDir(const Uuid& dir_ino) {
  DirHandlePtr handle = HandleFor(dir_ino);
  std::unique_lock lock(handle->mu);
  if (!handle->leader) return Status::Ok();
  const FenceToken token = handle->fence;
  Status flush = journal_->UnregisterDir(dir_ino);
  if (flush.code() == Errc::kStale) {
    // A successor fenced us while we still thought we led. Nothing we hold
    // may be written back — the successor owns the journal and will replay
    // it. Dropping our state IS the clean release.
    journal_->ResetDir(dir_ino);
    handle->leader = false;
    handle->lame_duck = false;
    handle->metatable.reset();
    handle->file_leases.clear();
    handle->fence = FenceToken{};
    lock.unlock();
    // Best effort: the manager ignores a release whose token is not the
    // live lease's (it is the successor's now).
    (void)lease_->Release(dir_ino, token);
    return Status::Ok();
  }
  ARKFS_RETURN_IF_ERROR(flush);
  // Persist the latest in-memory inode states that were never journaled
  // (the journal flush above covers journaled ones; this is belt-and-braces
  // for the dir inode itself whose version may have advanced in memory).
  if (handle->metatable) {
    ARKFS_RETURN_IF_ERROR(prt_->StoreInode(handle->metatable->dir_inode()));
  }
  handle->leader = false;
  handle->metatable.reset();
  handle->file_leases.clear();
  handle->fence = FenceToken{};
  lock.unlock();
  return lease_->Release(dir_ino, token);
}

void Client::DropLeaderHint(const Uuid& dir_ino) {
  DirHandlePtr handle = HandleFor(dir_ino);
  std::unique_lock lock(handle->mu);
  handle->hint_until = {};
}

void Client::HandleDeposed(const Uuid& dir_ino) {
  DirHandlePtr handle = HandleFor(dir_ino);
  std::unique_lock lock(handle->mu);
  if (!handle->leader) return;
  handle->leader = false;
  handle->lame_duck = false;
  handle->metatable.reset();
  handle->file_leases.clear();
  handle->fence = FenceToken{};
  journal_->ResetDir(dir_ino);
}

Status Client::ValidateLeaseLocked(DirHandle& handle) {
  // handle.mu held (exclusive or shared with upgrade responsibility on the
  // caller — we only mutate lease fields, which shared holders tolerate
  // because renewal happens under exclusive lock in EnsureDirAccess).
  if (!handle.leader) return ErrStatus(Errc::kAgain, "not leader");
  const TimePoint now = Now();
  if (now >= handle.lease_until) {
    return ErrStatus(Errc::kAgain, "lease expired");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// RPC server side
// ---------------------------------------------------------------------------

Result<Bytes> Client::HandleDirOp(ByteSpan payload) {
  ARKFS_ASSIGN_OR_RETURN(auto req, wire::DirOpRequest::Decode(payload));
  served_remote_ops_.Add();
  return ServeDirOp(req, /*forwarded=*/true).Encode();
}

Result<Bytes> Client::HandleFlushFile(ByteSpan payload) {
  ARKFS_ASSIGN_OR_RETURN(auto req, wire::FlushFileRequest::Decode(payload));
  // Leader revoked our cached copies of this file: write back and drop, and
  // force all our open handles to direct I/O from now on.
  ARKFS_RETURN_IF_ERROR(cache_->DropFile(req.ino, /*flush_dirty=*/true));
  std::lock_guard lock(fd_mu_);
  for (auto& [_, of] : open_files_) {
    if (of.ino == req.ino) {
      of.direct_io = true;
      of.cache_read = false;
      of.cache_write = false;
    }
  }
  return Bytes{};
}

void Client::RenewIfDue(const Uuid& dir_ino) {
  DirHandlePtr handle = HandleFor(dir_ino);
  std::shared_lock lock(handle->mu);
  const TimePoint now = Now();
  const bool renew = handle->leader && now < handle->lease_until &&
                     handle->lease_until - now <= handle->lease_duration / 4;
  lock.unlock();
  if (!renew) return;
  // The fabric runs a forwarded op on the requester's thread, under its
  // ambient tenant; the renewal is this leader's own lease traffic, so it
  // is admitted under this client's tenant, never charged to the
  // requester's bucket. A failed renewal turns lame duck, or the op itself
  // reports it.
  obs::TenantScope own_tenant(config_.tenant);
  (void)EnsureDirAccess(dir_ino);
}

wire::DirOpResponse Client::ServeDirOp(const wire::DirOpRequest& req,
                                       bool forwarded) {
  // Serve under the requester's trace context (carried in the wire frame):
  // the leader-side span and every journal/store span the op triggers land
  // in THIS client's ring, all under the requester's trace id. The local
  // fast path stamps its own ambient context, so re-rooting is a no-op
  // there; an untraced request (trace_id 0) installs an inactive scope and
  // all spans below no-op.
  obs::TraceScope traced(
      &tracer_,
      obs::TraceContext{req.trace_id, req.parent_span, req.tenant});
  obs::Span span("client.serve_dir_op");
  wire::DirOpResponse resp;
  DirHandlePtr handle = HandleFor(req.dir_ino);
  const UserCred cred = req.cred.ToCred();

  auto fill_error = [&resp](const Status& st) {
    resp.code = st.code();
    resp.detail = st.detail();
  };

  // kFlushDir is special: it is valid even when we are no longer leader
  // (that is exactly the handoff situation it exists for).
  if (req.op == wire::DirOp::kFlushDir) {
    std::unique_lock lock(handle->mu);
    journal_->NoteLeaseDrain();  // handoff: a forced-drain lease event
    Status st = journal_->FlushDir(req.dir_ino);
    if (st.code() == Errc::kStale) {
      // Already fenced off by an even newer leader; our unflushed state is
      // theirs to replay. Handoff still succeeds from the caller's view.
      st = Status::Ok();
    }
    if (st.ok() && handle->metatable && handle->fence == FenceToken{}) {
      // Only unfenced (legacy) tenures write the inode back directly; a
      // fenced tenure's state is fully covered by the flushed journal, and
      // a raw StoreInode here could race the successor's recovery.
      st = prt_->StoreInode(handle->metatable->dir_inode());
    }
    // We are being superseded; drop leadership state.
    handle->leader = false;
    handle->lame_duck = false;
    handle->metatable.reset();
    handle->file_leases.clear();
    handle->fence = FenceToken{};
    journal_->ResetDir(req.dir_ino);
    fill_error(st);
    return resp;
  }

  // Admission control on the serving leader: an over-rate tenant is turned
  // away before any lease or metatable work, with the bucket's retry-after
  // riding in the kAgain detail — RunDirOp's retry loop sleeps exactly that
  // long. kDelegateFetch is exempt: it is client-infrastructure traffic
  // whose whole point is to RELIEVE an overloaded leader, and throttling it
  // would push delegates back onto the forwarding path.
  if (config_.admission && req.op != wire::DirOp::kDelegateFetch) {
    if (Status st = config_.admission->Admit(req.tenant); !st.ok()) {
      fill_error(st);
      return resp;
    }
  }
  // Forwarded ops skip EnsureDirAccess, so a leader quiet locally would let
  // its lease lapse while serving others: renew on the same quarter-term
  // rule. Only an admitted op counts as serving — a throttled requester's
  // retries must not keep the lease alive on its behalf.
  if (forwarded) RenewIfDue(req.dir_ino);

  std::unique_lock lock(handle->mu);
  if (Status st = ValidateLeaseLocked(*handle); !st.ok()) {
    fill_error(st);
    return resp;
  }
  if (handle->lame_duck && wire::IsMutation(req.op)) {
    // Lame duck: lease renewal is failing, so fence every mutation. A
    // successor may already be taking over; anything we accepted now could
    // be silently lost from its rebuilt metatable.
    fill_error(ErrStatus(Errc::kStale, "leader is lame duck (renewal failing)"));
    return resp;
  }

  Status st;
  switch (req.op) {
    case wire::DirOp::kLookup:
      st = LeaderLookup(*handle, req.name, cred, &resp);
      break;
    case wire::DirOp::kCreate:
      st = LeaderCreate(*handle, req.name, req.mode, req.exclusive,
                        FileType::kRegular, "", cred, &resp);
      break;
    case wire::DirOp::kMkdir:
      st = LeaderMkdir(*handle, req.name, req.mode, cred, &resp);
      break;
    case wire::DirOp::kUnlink:
      st = LeaderUnlink(*handle, req.name, cred, &resp);
      break;
    case wire::DirOp::kRmdir:
      st = LeaderRmdir(*handle, req.name, cred);
      break;
    case wire::DirOp::kRenameLocal:
      st = LeaderRenameLocal(*handle, req.name, req.name2, cred);
      break;
    case wire::DirOp::kReadDir:
      st = LeaderReadDir(*handle, cred, &resp);
      break;
    case wire::DirOp::kGetAttrDir: {
      const Inode& inode = handle->metatable->dir_inode();
      resp.has_inode = true;
      resp.inode = inode;
      resp.dir_meta = {true, inode.mode, inode.uid, inode.gid, inode.acl};
      break;
    }
    case wire::DirOp::kGetAttrChild:
      st = LeaderGetAttrChild(*handle, req.name, req.child_ino, cred, &resp);
      break;
    case wire::DirOp::kSetAttrChild:
      st = LeaderSetAttrChild(*handle, req.name, req.attr, cred, &resp);
      break;
    case wire::DirOp::kSetAttrDir:
      st = LeaderSetAttrDir(*handle, req.attr, cred, &resp);
      break;
    case wire::DirOp::kSymlink:
      st = LeaderCreate(*handle, req.name, 0777, /*exclusive=*/true,
                        FileType::kSymlink, req.name2, cred, &resp);
      break;
    case wire::DirOp::kSetAclDir:
      st = LeaderSetAclDir(*handle, req.acl, cred);
      break;
    case wire::DirOp::kSetAclChild:
      st = LeaderSetAclChild(*handle, req.name, req.acl, cred);
      break;
    case wire::DirOp::kLeaseOpen:
      st = LeaderLeaseOpen(*handle, req.child_ino, req.client,
                           &resp.lease_granted, &resp);
      break;
    case wire::DirOp::kLeaseUpgrade:
      st = LeaderLeaseUpgrade(*handle, req.child_ino, req.client,
                              &resp.lease_granted);
      break;
    case wire::DirOp::kLeaseRelease:
      st = LeaderLeaseRelease(*handle, req.child_ino, req.client);
      break;
    case wire::DirOp::kCommitSize:
      st = LeaderCommitSize(*handle, req.child_ino, req.size, req.mtime_sec);
      break;
    case wire::DirOp::kIsEmptyDir:
      resp.empty_dir = handle->metatable->empty();
      break;
    case wire::DirOp::kDelegateFetch:
      st = LeaderDelegateFetch(*handle, &resp);
      break;
    case wire::DirOp::kFlushDir:
      break;  // handled above
  }
  if (st.code() == Errc::kStale && wire::IsMutation(req.op)) {
    // The op's journal commit was fenced mid-flight (sync mode commits
    // inside Append): a successor deposed us between the lease checks above
    // and the append. Nothing was acked, so drop leadership — the durable
    // journal is the successor's to replay, and our sequenced-but-unflushed
    // records die with the tenure (ResetDir counts them) — and report
    // kAgain so the caller redrives the op against the new leader.
    handle->leader = false;
    handle->lame_duck = false;
    handle->metatable.reset();
    handle->file_leases.clear();
    handle->fence = FenceToken{};
    journal_->ResetDir(req.dir_ino);
    st = ErrStatus(Errc::kAgain, "deposed at journal commit; retry");
  }
  fill_error(st);
  // Stamp replies to REMOTE requesters with the tenure + current journal
  // watermark. Delegates compare the stamp against their cached slice: the
  // watermark moves BEFORE a mutation is acked (journal Append), so a
  // delegate that observes any reply sent after a mutation can never keep
  // serving a slice that misses it. The local fast path skips the stamp —
  // a leader never delegates to itself, and the journal map lookup is pure
  // overhead there.
  if (req.client != config_.address) {
    resp.fence = handle->fence;
    resp.watermark = journal_->Watermark(req.dir_ino);
  }
  return resp;
}

ClientStats Client::stats() const {
  ClientStats s;
  s.local_meta_ops = local_meta_ops_.value();
  s.forwarded_ops = forwarded_ops_.value();
  s.served_remote_ops = served_remote_ops_.value();
  s.lease_acquires = lease_acquires_.value();
  s.lease_redirects = lease_redirects_.value();
  s.perm_cache_hits = perm_cache_hits_.value();
  s.recoveries = recoveries_.value();
  s.stat_local = stat_local_.value();
  s.stat_forwarded = stat_forwarded_.value();
  s.stat_delegated = stat_delegated_.value();
  s.deleg_hits = deleg_hits_.value();
  s.deleg_misses = deleg_misses_.value();
  s.deleg_refetches = deleg_refetches_.value();
  s.deleg_invalidations = deleg_invalidations_.value();
  return s;
}

Vfs::IntrospectReport Client::Introspect() {
  IntrospectReport report;
  obs::MetricsRegistry& registry =
      config_.metrics ? *config_.metrics : obs::MetricsRegistry::Default();
  report.metrics_text = registry.DumpText();
  report.spans = tracer_.Spans();
  report.delegations_text = DelegDumpText();
  if (scrub_reporter_) report.scrub_text = scrub_reporter_();
  if (tiering_reporter_) report.tiering_text = tiering_reporter_();
  report.journal_text = journal_->IntrospectText();
  return report;
}

}  // namespace arkfs
