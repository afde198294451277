#include "lease/lease_manager.h"

#include <algorithm>
#include <optional>

#include "common/log.h"
#include "common/retry_hint.h"

namespace arkfs::lease {

LeaseManager::LeaseManager(rpc::FabricPtr fabric, LeaseManagerConfig config)
    : LeaseManager(std::move(fabric), nullptr, std::move(config)) {}

LeaseManager::LeaseManager(rpc::FabricPtr fabric, ObjectStorePtr store,
                           LeaseManagerConfig config)
    : config_(std::move(config)),
      fabric_(std::move(fabric)),
      store_(std::move(store)) {
  grants_.Attach(config_.metrics, "lease.grants");
  extensions_.Attach(config_.metrics, "lease.extensions");
  redirects_.Attach(config_.metrics, "lease.redirects");
  waits_.Attach(config_.metrics, "lease.waits");
  releases_.Attach(config_.metrics, "lease.releases");
  recoveries_.Attach(config_.metrics, "lease.recoveries");
  takeovers_.Attach(config_.metrics, "lease.failover.takeovers");
  depositions_.Attach(config_.metrics, "lease.failover.depositions");
  delegations_.Attach(config_.metrics, "lease.delegations");
  quiet_ms_.Attach(config_.metrics, "lease.failover.quiet_ms");
}

LeaseManager::~LeaseManager() { Stop(); }

Status LeaseManager::RedirectIfStandby() const {
  std::lock_guard lock(mu_);
  if (active_) return Status::Ok();
  return ErrStatus(Errc::kAgain, active_hint_);
}

int LeaseManager::Rank() const {
  const auto it = std::find(config_.group.begin(), config_.group.end(),
                            config_.self_address);
  if (it == config_.group.end()) return 0;
  return static_cast<int>(it - config_.group.begin());
}

std::uint64_t LeaseManager::BaseFenceSeq() const {
  return static_cast<std::uint64_t>(Rank()) << 48;
}

// mu_ held.
void LeaseManager::ResolveRoleLocked() {
  if (!store_) {
    // Unreplicated legacy mode: always active, epoch static until Restart().
    active_ = true;
    active_hint_ = config_.self_address;
    return;
  }
  Result<Bytes> raw = store_->Get(kEpochRecordKey);
  if (raw.ok()) {
    Result<EpochRecord> rec = EpochRecord::Decode(*raw);
    if (!rec.ok()) {
      // A torn/corrupt epoch record must not let two replicas both decide
      // they are active. Come up as a standby; takeover rewrites the record.
      ARKFS_WLOG << "lease replica " << config_.self_address
                 << ": undecodable epoch record (" << rec.status().detail()
                 << "); starting as standby";
      active_ = false;
      active_hint_.clear();
      return;
    }
    if (rec->active == config_.self_address) {
      // The record still names this replica, but this is a fresh process (or
      // a Stop/Start rejoin) with no memory of the grants its previous life
      // issued: resuming at the recorded epoch with a reset grant counter
      // would re-mint those very tokens and double-grant a still-live lease.
      // Treat it exactly like Restart(): resume only under a NEW persisted
      // epoch and serve a quiet period of one lease term first.
      const std::uint64_t new_epoch = std::max(epoch_, rec->epoch) + 1;
      const EpochRecord bumped{new_epoch, config_.self_address};
      if (Status st = store_->Put(kEpochRecordKey, bumped.Encode()); !st.ok()) {
        // Cannot fence the previous life's grants; claiming activeness
        // anyway would be exactly the double-grant hazard. Stay standby and
        // let the takeover path (or a retry of Start) sort it out.
        ARKFS_WLOG << "lease replica " << config_.self_address
                   << ": named active after restart but cannot persist epoch "
                   << new_epoch << " (" << st.detail()
                   << "); starting as standby";
        active_ = false;
        active_hint_.clear();
        return;
      }
      leases_.clear();
      epoch_ = new_epoch;
      fence_seq_ = BaseFenceSeq();
      active_ = true;
      active_hint_ = config_.self_address;
      quiet_until_ = Now() + config_.lease_period;
      quiet_ms_.Set(static_cast<std::uint64_t>(config_.lease_period.count() /
                                               1'000'000));
      ARKFS_ILOG << "lease replica " << config_.self_address
                 << " resumed active after restart; epoch " << new_epoch
                 << ", quiet period "
                 << config_.lease_period.count() / 1e6 << "ms";
      return;
    }
    // Another replica is (or was last) active: join as a standby at the
    // record's epoch.
    epoch_ = std::max(epoch_, rec->epoch);
    fence_seq_ = BaseFenceSeq();
    active_ = false;
    active_hint_ = rec->active;
    return;
  }
  if (raw.status().code() != Errc::kNoEnt) {
    ARKFS_WLOG << "lease replica " << config_.self_address
               << ": epoch record unreadable (" << raw.status().detail()
               << "); starting as standby";
    active_ = false;
    active_hint_.clear();
    return;
  }
  // No record yet: the designated bootstrap replica writes {1, self}.
  if (config_.start_active) {
    const EpochRecord rec{epoch_, config_.self_address};
    if (Status st = store_->Put(kEpochRecordKey, rec.Encode()); !st.ok()) {
      ARKFS_WLOG << "lease replica " << config_.self_address
                 << ": cannot persist bootstrap epoch record: " << st.detail();
    }
    active_ = true;
    fence_seq_ = BaseFenceSeq();
    active_hint_ = config_.self_address;
  } else {
    active_ = false;
    // Until the bootstrap replica writes the record, rank 0 is the best
    // guess for redirects.
    active_hint_ = config_.group.empty() ? "" : config_.group.front();
  }
}

Status LeaseManager::Start() {
  endpoint_ = std::make_shared<rpc::Endpoint>();
  // Standby replicas answer every client-facing method with a status-level
  // kAgain whose detail hints the active replica's address; LeaseClient's
  // manager sweep consumes those hints and they never reach callers.
  endpoint_->RegisterMethod(kMethodAcquire, [this](ByteSpan req) -> Result<Bytes> {
    ARKFS_ASSIGN_OR_RETURN(auto request, AcquireRequest::Decode(req));
    ARKFS_RETURN_IF_ERROR(RedirectIfStandby());
    return Acquire(request).Encode();
  });
  endpoint_->RegisterMethod(kMethodRelease, [this](ByteSpan req) -> Result<Bytes> {
    ARKFS_ASSIGN_OR_RETURN(auto request, ReleaseRequest::Decode(req));
    ARKFS_RETURN_IF_ERROR(RedirectIfStandby());
    Release(request);
    return Bytes{};
  });
  endpoint_->RegisterMethod(kMethodRecovery, [this](ByteSpan req) -> Result<Bytes> {
    ARKFS_ASSIGN_OR_RETURN(auto request, RecoveryRequest::Decode(req));
    ARKFS_RETURN_IF_ERROR(Recovery(request));
    return Bytes{};
  });
  endpoint_->RegisterMethod(kMethodLookup, [this](ByteSpan req) -> Result<Bytes> {
    ARKFS_ASSIGN_OR_RETURN(auto request, LookupRequest::Decode(req));
    ARKFS_RETURN_IF_ERROR(RedirectIfStandby());
    return Lookup(request).Encode();
  });
  endpoint_->RegisterMethod(kMethodPing, [this](ByteSpan req) -> Result<Bytes> {
    ARKFS_ASSIGN_OR_RETURN(auto request, PingRequest::Decode(req));
    return Ping(request).Encode();
  });
  ARKFS_RETURN_IF_ERROR(fabric_->Bind(config_.self_address, endpoint_));
  {
    std::lock_guard lock(mu_);
    started_ = true;
    ResolveRoleLocked();
    heartbeat_stop_ = false;
  }
  if (store_ && config_.group.size() > 1) {
    heartbeat_thread_ = std::thread([this] { HeartbeatMain(); });
  }
  return Status::Ok();
}

void LeaseManager::Stop() {
  {
    std::lock_guard lock(mu_);
    if (!started_) return;
    fabric_->Unbind(config_.self_address);
    started_ = false;
    heartbeat_stop_ = true;
  }
  heartbeat_cv_.notify_all();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
}

void LeaseManager::Restart() {
  std::lock_guard lock(mu_);
  leases_.clear();
  if (store_ && active_) {
    // Re-read the record before persisting the bump: a deposed-but-unaware
    // replica (partitioned through the successor's takeover) must not
    // clobber the successor's claim and seize activeness outside the
    // takeover protocol. Only a record that still names this replica may be
    // advanced here; an unreadable record falls through and bumps anyway, so
    // a store blip cannot strand a single-replica group with no active.
    if (Result<Bytes> raw = store_->Get(kEpochRecordKey); raw.ok()) {
      if (Result<EpochRecord> rec = EpochRecord::Decode(*raw);
          rec.ok() && rec->active != config_.self_address) {
        active_ = false;
        epoch_ = std::max(epoch_, rec->epoch);
        fence_seq_ = BaseFenceSeq();
        active_hint_ = rec->active;
        ARKFS_ILOG << "lease manager restart: already deposed by "
                   << rec->active << " (epoch " << rec->epoch
                   << "); rejoining as standby";
        return;
      }
    }
  }
  ++epoch_;
  fence_seq_ = BaseFenceSeq();
  quiet_until_ = Now() + config_.lease_period;
  quiet_ms_.Set(
      static_cast<std::uint64_t>(config_.lease_period.count() / 1'000'000));
  if (store_ && active_) {
    const EpochRecord rec{epoch_, config_.self_address};
    if (Status st = store_->Put(kEpochRecordKey, rec.Encode()); !st.ok()) {
      ARKFS_WLOG << "lease manager restart: cannot persist epoch " << epoch_
                 << ": " << st.detail();
    }
  }
  ARKFS_ILOG << "lease manager restarted; epoch " << epoch_ << ", quiet period "
             << config_.lease_period.count() / 1e6 << "ms";
}

void LeaseManager::HeartbeatMain() {
  int misses = 0;
  const int rank = Rank();
  for (;;) {
    {
      std::unique_lock lock(mu_);
      heartbeat_cv_.wait_for(lock, config_.heartbeat_interval,
                             [this] { return heartbeat_stop_; });
      if (heartbeat_stop_) return;
      if (active_) {
        misses = 0;
        lock.unlock();
        // Audit the epoch record: a partitioned active never receives the
        // successor's announce ping, so it must notice its own deposition
        // from the record (the store is the one channel failover is
        // guaranteed to share).
        AuditEpochRecord();
        continue;
      }
    }
    // Standby: probe whoever we believe is active.
    std::string target;
    std::uint64_t epoch;
    {
      std::lock_guard lock(mu_);
      target = active_hint_;
      epoch = epoch_;
    }
    bool probed_ok = false;
    if (!target.empty() && target != config_.self_address) {
      const PingRequest ping{epoch, config_.self_address};
      Result<Bytes> raw = fabric_->CallFrom(config_.self_address, target,
                                            kMethodPing, ping.Encode());
      if (raw.ok()) {
        if (Result<PingResponse> resp = PingResponse::Decode(*raw); resp.ok()) {
          probed_ok = resp->active;
          std::lock_guard lock(mu_);
          if (resp->epoch > epoch_) {
            epoch_ = resp->epoch;
            fence_seq_ = BaseFenceSeq();
          }
          if (!resp->active && !resp->active_hint.empty() &&
              resp->active_hint != target) {
            active_hint_ = resp->active_hint;  // follow the hint chain
          }
        }
      }
    }
    if (probed_ok) {
      misses = 0;
      continue;
    }
    // Stagger takeover by rank so standbys don't race each other to the
    // epoch record: rank r waits r extra missed probes.
    if (++misses >= config_.failover_probes + rank) {
      misses = 0;
      TryTakeover();
    }
  }
}

void LeaseManager::AuditEpochRecord() {
  if (!store_) return;
  Result<Bytes> raw = store_->Get(kEpochRecordKey);
  if (!raw.ok()) return;
  Result<EpochRecord> rec = EpochRecord::Decode(*raw);
  if (!rec.ok()) return;
  std::lock_guard lock(mu_);
  if (!active_) return;
  if (rec->active == config_.self_address) {
    if (rec->epoch > epoch_) epoch_ = rec->epoch;
    return;
  }
  // The record names another replica — abdicate at ANY epoch, not just a
  // higher one. Epoch equality is not proof of ownership: two standbys
  // racing the non-atomic Get/Put/Get takeover can both confirm the same
  // new epoch (the loser's Put lands after the winner's confirm read), and
  // the only durable tiebreak is whose name the record carries now.
  ARKFS_ILOG << "lease replica " << config_.self_address
             << " observed the record naming " << rec->active << " at epoch "
             << rec->epoch << " (own epoch " << epoch_ << "); abdicating";
  depositions_.Add();
  leases_.clear();
  active_ = false;
  epoch_ = std::max(epoch_, rec->epoch);
  fence_seq_ = BaseFenceSeq();
  active_hint_ = rec->active;
}

void LeaseManager::TryTakeover() {
  if (!store_) return;
  std::uint64_t current_epoch;
  {
    std::lock_guard lock(mu_);
    if (active_ || !started_) return;
    current_epoch = epoch_;
  }
  // Serialize through the epoch record: re-read, and only take over if the
  // group has not already moved past our view (another standby won).
  Result<Bytes> raw = store_->Get(kEpochRecordKey);
  if (raw.ok()) {
    if (Result<EpochRecord> rec = EpochRecord::Decode(*raw); rec.ok()) {
      if (rec->epoch > current_epoch) {
        std::lock_guard lock(mu_);
        epoch_ = rec->epoch;
        fence_seq_ = BaseFenceSeq();
        active_hint_ = rec->active;
        return;  // someone else already took over; follow them
      }
      current_epoch = std::max(current_epoch, rec->epoch);
    }
  } else if (raw.status().code() != Errc::kNoEnt) {
    return;  // store unreachable; retry on the next probe cycle
  }
  const std::uint64_t new_epoch = current_epoch + 1;
  const EpochRecord claim{new_epoch, config_.self_address};
  if (!store_->Put(kEpochRecordKey, claim.Encode()).ok()) return;
  // Confirm the write won (two standbys may race the Put; last writer wins
  // and the loser must observe that).
  Result<Bytes> confirm = store_->Get(kEpochRecordKey);
  if (!confirm.ok()) return;
  Result<EpochRecord> rec = EpochRecord::Decode(*confirm);
  if (!rec.ok()) return;
  if (rec->active != config_.self_address || rec->epoch != new_epoch) {
    std::lock_guard lock(mu_);
    if (rec->epoch > epoch_) {
      epoch_ = rec->epoch;
      fence_seq_ = BaseFenceSeq();
    }
    active_hint_ = rec->active;
    return;  // lost the race
  }
  {
    std::lock_guard lock(mu_);
    leases_.clear();
    epoch_ = new_epoch;
    fence_seq_ = BaseFenceSeq();
    active_ = true;
    active_hint_ = config_.self_address;
    // One full lease term of quiet: any lease the dead active granted may
    // still be live, and this replica has no record of it.
    quiet_until_ = Now() + config_.lease_period;
    quiet_ms_.Set(static_cast<std::uint64_t>(config_.lease_period.count() /
                                             1'000'000));
  }
  takeovers_.Add();
  ARKFS_ILOG << "lease replica " << config_.self_address
             << " took over as active; epoch " << new_epoch;
  AnnounceEpoch(new_epoch);
}

void LeaseManager::AnnounceEpoch(std::uint64_t epoch) {
  const PingRequest ping{epoch, config_.self_address};
  const Bytes payload = ping.Encode();
  for (const std::string& peer : config_.group) {
    if (peer == config_.self_address) continue;
    // Best effort: a dead or partitioned peer learns the epoch when it
    // rejoins (epoch record) or from a later ping.
    (void)fabric_->CallFrom(config_.self_address, peer, kMethodPing, payload);
  }
}

PingResponse LeaseManager::Ping(const PingRequest& req) {
  std::lock_guard lock(mu_);
  if (req.epoch > epoch_) {
    // A higher epoch exists: if this replica believed it was active it has
    // been deposed — abdicate immediately rather than waiting to observe the
    // epoch record. Its outstanding grants are fenced at the journal layer.
    if (active_) {
      ARKFS_ILOG << "lease replica " << config_.self_address
                 << " deposed by epoch " << req.epoch << " (was " << epoch_
                 << ")";
      depositions_.Add();
      leases_.clear();
    }
    active_ = false;
    epoch_ = req.epoch;
    fence_seq_ = BaseFenceSeq();
    active_hint_ = req.from;
  }
  PingResponse resp;
  resp.epoch = epoch_;
  resp.active = active_;
  resp.active_hint = active_ ? config_.self_address : active_hint_;
  return resp;
}

AcquireResponse LeaseManager::Acquire(const AcquireRequest& req) {
  // Wire-configured deployments re-root the handler span under the trace
  // context carried in the frame; in-process callers keep their ambient
  // thread-local trace (the fabric dispatches on the caller's thread).
  std::optional<obs::TraceScope> traced;
  if (config_.tracer) {
    traced.emplace(config_.tracer,
                   obs::TraceContext{req.trace_id, req.parent_span});
  }
  obs::Span span("lease.manager.acquire");

  std::lock_guard lock(mu_);
  const TimePoint now = Now();
  AcquireResponse resp;

  if (!active_) {
    resp.outcome = AcquireOutcome::kNotActive;
    resp.leader = active_hint_;
    return resp;
  }

  // Admission control gates the active replica's lease traffic before any
  // lease state is touched — an over-rate tenant's acquire storm must not
  // even read the lease table. The rejection is in-band (kWait + the
  // bucket's retry-after), NOT a status-level kAgain: the client reserves
  // that for standby-redirect hints.
  if (config_.admission) {
    const Status admitted = config_.admission->Admit(req.tenant);
    if (!admitted.ok()) {
      waits_.Add();
      resp.outcome = AcquireOutcome::kWait;
      Nanos hint{};
      if (ParseRetryAfterHint(admitted.detail(), &hint)) {
        resp.retry_after_ns = hint.count();
      }
      return resp;
    }
  }

  if (now < quiet_until_) {
    waits_.Add();
    resp.outcome = AcquireOutcome::kWait;
    return resp;
  }

  DirLease& l = leases_[req.dir_ino];
  if (l.recovering) {
    // The recoverer itself renews through Recovery(kEnd), not Acquire.
    waits_.Add();
    resp.outcome = AcquireOutcome::kWait;
    return resp;
  }

  if (!Expired(l, now)) {
    if (l.leader == req.client) {
      // Extension by the current leader: same tenure, same fencing token.
      extensions_.Add();
      l.expires = now + config_.lease_period;
      // Renewals carry the leader's current journal watermark; remember it
      // (with its report time) so delegations hand out a bound no staler
      // than one lease term.
      if (req.watermark >= l.watermark) {
        l.watermark = req.watermark;
        l.watermark_at = now;
      }
      resp.outcome = AcquireOutcome::kGranted;
      resp.fresh = true;
      resp.lease_until_ns = l.expires.time_since_epoch().count();
      resp.token = l.token;
      resp.watermark = l.watermark;
      return resp;
    }
    redirects_.Add();
    resp.outcome = AcquireOutcome::kRedirect;
    resp.leader = l.leader;
    // The live lease's expiry: until then no one else can lead, so the
    // caller may route straight to `leader` without asking again.
    resp.lease_until_ns = l.expires.time_since_epoch().count();
    resp.watermark = l.watermark;
    if (req.want_delegation && l.token.valid()) {
      // Read delegation against the live lease: the delegate may serve
      // reads from a slice fetched under this token until the watermark
      // report it is based on turns one lease term old. The token pins the
      // tenure — leases_ is cleared on every epoch change, so a failover
      // invalidates every outstanding delegation by construction.
      delegations_.Add();
      resp.deleg = true;
      resp.token = l.token;
      const TimePoint based_on =
          l.watermark_at == TimePoint{} ? now : l.watermark_at;
      resp.deleg_until_ns =
          (based_on + config_.lease_period).time_since_epoch().count();
    }
    return resp;
  }

  // Lease is free (never issued, expired, or released). Every new tenure —
  // even a fresh re-grant to the same client — gets a new fencing token, so
  // anything still running under the old grant is deniable at the store.
  grants_.Add();
  resp.outcome = AcquireOutcome::kGranted;
  resp.fresh = (l.last_leader == req.client);
  if (!resp.fresh && !l.last_leader.empty()) {
    resp.prev_leader = l.last_leader;
    resp.prev_released = l.released;
  }
  l.released = false;
  l.leader = req.client;
  l.last_leader = req.client;
  l.expires = now + config_.lease_period;
  l.token = FenceToken{epoch_, ++fence_seq_};
  // New tenure, new watermark history: the journal layer resets its per-dir
  // watermark whenever tenure bookkeeping is dropped, so a stale count from
  // the previous tenure must not leak into this one's delegations.
  l.watermark = req.watermark;
  l.watermark_at = now;
  resp.lease_until_ns = l.expires.time_since_epoch().count();
  resp.token = l.token;
  resp.watermark = l.watermark;
  return resp;
}

void LeaseManager::Release(const ReleaseRequest& req) {
  std::optional<obs::TraceScope> traced;
  if (config_.tracer) {
    traced.emplace(config_.tracer,
                   obs::TraceContext{req.trace_id, req.parent_span});
  }
  obs::Span span("lease.manager.release");

  std::lock_guard lock(mu_);
  if (!active_) return;
  auto it = leases_.find(req.dir_ino);
  if (it == leases_.end()) return;
  DirLease& l = it->second;
  // A late Release from a deposed leader must not evict the successor: when
  // the request carries a token it must match the live grant exactly.
  // Token-less requests (legacy) fall back to the name match.
  if (req.token.valid() && req.token != l.token) return;
  if (l.leader == req.client) {
    releases_.Add();
    l.leader.clear();
    l.expires = TimePoint{};
    // Only a release that names its own tenure vouches for a clean handoff;
    // a legacy token-less release frees the lease but proves nothing.
    l.released = req.token.valid();
    // last_leader stays: a clean release means the store is fully
    // synchronized, and if the same client comes back it may reuse its
    // metatable only if nobody else led meanwhile — which last_leader tracks.
  }
}

Status LeaseManager::Recovery(const RecoveryRequest& req) {
  std::optional<obs::TraceScope> traced;
  if (config_.tracer) {
    traced.emplace(config_.tracer,
                   obs::TraceContext{req.trace_id, req.parent_span});
  }
  obs::Span span("lease.manager.recovery");

  if (req.phase == RecoveryPhase::kBegin) {
    {
      std::lock_guard lock(mu_);
      if (!active_) {
        return ErrStatus(Errc::kAgain, active_hint_);
      }
      DirLease& l = leases_[req.dir_ino];
      if (l.recovering && l.recoverer != req.client) {
        return ErrStatus(Errc::kBusy, "recovery already in progress");
      }
      if (!Expired(l, Now()) && l.leader != req.client) {
        return ErrStatus(Errc::kBusy, "directory has a live leader");
      }
      recoveries_.Add();
      l.recovering = true;
      l.recoverer = req.client;
      l.leader.clear();
      l.released = false;  // the recoverer's tenure has yet to end
    }
    // Wait out any read/write leases the dead leader issued to other
    // clients (paper: "waits at least the lease period"). Done outside the
    // lock: unrelated directories keep working during a recovery.
    SleepFor(config_.recovery_wait);
    return Status::Ok();
  }

  // kEnd: recovery finished; renew the lease on the recoverer.
  std::lock_guard lock(mu_);
  if (!active_) {
    return ErrStatus(Errc::kAgain, active_hint_);
  }
  DirLease& l = leases_[req.dir_ino];
  if (!l.recovering || l.recoverer != req.client) {
    return ErrStatus(Errc::kInval, "not the recovering client");
  }
  l.recovering = false;
  l.recoverer.clear();
  l.leader = req.client;
  l.last_leader = req.client;
  l.expires = Now() + config_.lease_period;
  // The recovery ran under the token granted at Acquire time; keep it.
  return Status::Ok();
}

LookupResponse LeaseManager::Lookup(const LookupRequest& req) {
  std::lock_guard lock(mu_);
  LookupResponse resp;
  if (!active_) return resp;
  auto it = leases_.find(req.dir_ino);
  if (it != leases_.end() && !Expired(it->second, Now()) &&
      !it->second.recovering) {
    resp.has_leader = true;
    resp.leader = it->second.leader;
  }
  return resp;
}

std::size_t LeaseManager::ActiveLeaseCount() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  const TimePoint now = Now();
  for (const auto& [_, l] : leases_) {
    if (!Expired(l, now)) ++n;
  }
  return n;
}

std::uint64_t LeaseManager::epoch() const {
  std::lock_guard lock(mu_);
  return epoch_;
}

bool LeaseManager::is_active() const {
  std::lock_guard lock(mu_);
  return started_ && active_;
}

}  // namespace arkfs::lease
