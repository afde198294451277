// The lease manager (paper §III-B, §III-E.2), replicated for HA.
//
// A lightweight coordinator that hands out per-directory leases
// first-come-first-served. It never touches file system metadata itself —
// it only remembers, per directory inode, who leads it and until when.
// Acquiring or extending a lease is one small RPC; everything heavy happens
// at the clients. The paper ran a single manager and deferred a manager
// cluster to future work; here the manager runs as a replica group:
//
//  * Replication model: N replicas on distinct fabric addresses; exactly one
//    is ACTIVE per fencing epoch, the rest are standbys that answer every
//    request with a redirect-to-active hint. There is no consensus protocol —
//    the group serializes failover through a small persisted epoch record in
//    the object store (kEpochRecordKey), and split brain is made harmless by
//    fencing at the journal layer (every grant carries a FenceToken; commits
//    from a deposed epoch are rejected kStale at the store).
//  * Failover: standbys heartbeat the active replica; after `failover_probes`
//    consecutive misses (staggered by replica rank so standbys don't race) a
//    standby takes over by re-reading the epoch record, writing
//    {epoch + 1, self}, and confirming its write won. The winner clears all
//    lease state and serves a quiet period of one lease term — a still-live
//    leader's lease can therefore never be double-granted — then announces
//    the new epoch to its peers so a deposed active abdicates immediately.
//
// Fault behaviours implemented:
//  * clean release: a Release carrying the live grant's fencing token ends
//    the tenure cleanly (the leader flushed and checkpointed first). The
//    next grant says so (`prev_released`), and the new leader loads the
//    directory without a flush handshake or a recovery wait, even though
//    the released node may have left the fabric (unmount);
//  * leader change with a live predecessor: the grant carries `prev_leader`
//    so the new leader can request a final flush before loading metadata;
//  * crashed leader (expiry takeover, or any tenure that did not end in a
//    token-matched release): journal recovery — BeginRecovery fences the
//    directory (other clients get kWait) and waits out the read/write-lease
//    period;
//  * manager restart: Restart() clears all state, bumps the fencing epoch
//    and enters a quiet period of one lease term during which every Acquire
//    gets kWait, so a still-live leader's lease cannot be double-granted;
//  * manager crash with standbys: epoch-fenced takeover as above.
#pragma once

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/fence.h"
#include "common/uuid.h"
#include "lease/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "objstore/object_store.h"
#include "qos/admission.h"
#include "rpc/fabric.h"

namespace arkfs::lease {

struct LeaseManagerConfig {
  Nanos lease_period{Seconds(5)};   // paper default: 5 seconds
  // How long BeginRecovery wait-fences a directory so outstanding
  // read/write leases issued by the dead leader drain. Defaults to the
  // lease period (paper: "waits at least the lease period"). Tests shrink it.
  Nanos recovery_wait{Seconds(5)};

  // --- HA group ---
  // This replica's fabric address. Single-replica deployments keep the
  // canonical kManagerAddress.
  std::string self_address{kManagerAddress};
  // Every replica's address (including self), same order on all replicas;
  // the index of self_address is the replica's rank (failover stagger).
  // Empty or size 1 == unreplicated.
  std::vector<std::string> group;
  // Bootstrap hint: when no epoch record exists yet, may this replica write
  // {1, self} and become active? (Cluster sets it on replica 0 only.)
  bool start_active = true;
  Nanos heartbeat_interval{Millis(500)};
  int failover_probes = 3;  // missed heartbeats before a takeover attempt

  // Where this manager's "lease.*" metric cells attach; null = process
  // default registry.
  obs::MetricsRegistry* metrics = nullptr;
  // Optional per-tenant admission control (must outlive the manager). When
  // set, every Acquire runs the requesting tenant through the token bucket
  // FIRST; a throttled tenant gets kWait with retry_after_ns — in-band, so
  // it cannot be confused with the standby-redirect kAgain convention.
  qos::AdmissionController* admission = nullptr;
  // Optional span sink. When set, request handlers record manager-side spans
  // under the trace context CARRIED IN THE WIRE FRAMES (trace_id/parent_span
  // next to the fence token) — the cross-host propagation path. When null,
  // handlers piggyback the caller's ambient thread-local trace, which the
  // in-process fabric preserves.
  obs::Tracer* tracer = nullptr;

  static LeaseManagerConfig ForTests() {
    LeaseManagerConfig c;
    c.lease_period = Millis(200);
    c.recovery_wait = Nanos(0);
    c.heartbeat_interval = Millis(10);
    return c;
  }
};

class LeaseManager {
 public:
  // Unreplicated manager (no persisted epoch record): epoch stays at 1 and
  // only bumps on Restart(). Kept for tests and minimal deployments.
  LeaseManager(rpc::FabricPtr fabric, LeaseManagerConfig config);
  // Replica-group manager: role and epoch come from the epoch record in
  // `store`; standbys heartbeat and take over per the config.
  LeaseManager(rpc::FabricPtr fabric, ObjectStorePtr store,
               LeaseManagerConfig config);
  ~LeaseManager();

  // Binds the manager's endpoint at config.self_address, resolves this
  // replica's role from the epoch record, and (in a group) starts the
  // heartbeat thread. Start after Stop rejoins the group: if the epoch moved
  // on while this replica was down it comes back as a standby. If the record
  // still names this replica it resumes active, but only under a freshly
  // persisted epoch and a quiet period (Restart() semantics): the process
  // has no memory of its previous life's grants, so resuming at the old
  // epoch with a reset grant counter would re-mint still-live tokens.
  Status Start();
  void Stop();

  // Simulates a crash + restart of the active replica in place: all lease
  // state is lost, the fencing epoch is bumped (persisted when this replica
  // is store-backed) and a quiet period of one lease term begins
  // (paper §III-E.2).
  void Restart();

  // --- direct (in-process) API; the RPC handlers call these ---
  AcquireResponse Acquire(const AcquireRequest& req);
  void Release(const ReleaseRequest& req);
  Status Recovery(const RecoveryRequest& req);
  LookupResponse Lookup(const LookupRequest& req);
  PingResponse Ping(const PingRequest& req);

  // Introspection for tests.
  std::size_t ActiveLeaseCount() const;
  std::uint64_t epoch() const;
  bool is_active() const;
  const std::string& self_address() const { return config_.self_address; }
  const LeaseManagerConfig& config() const { return config_; }

 private:
  struct DirLease {
    std::string leader;
    TimePoint expires{};
    std::string last_leader;  // survives expiry; drives the `fresh` hint
    FenceToken token;         // fencing token of the live grant
    // The tenure `token` names ended in a token-matched Release. Reported
    // to (and cleared by) the next grant as `prev_released`.
    bool released = false;
    bool recovering = false;
    std::string recoverer;
    // Journal watermark the leader reported on its most recent renewal, and
    // when it reported it. Piggybacked on every read delegation; a delegate
    // whose cached slice seq falls behind refetches. Dies with leases_ on
    // every epoch change, so delegations never outlive the tenure.
    std::uint64_t watermark = 0;
    TimePoint watermark_at{};
  };

  bool Expired(const DirLease& l, TimePoint now) const {
    return l.leader.empty() || l.expires <= now;
  }

  // kAgain + active-address hint when this replica is a standby (the RPC
  // handlers' answer; LeaseClient's sweep consumes it).
  Status RedirectIfStandby() const;
  // Role/epoch bootstrap from the epoch record (store-backed replicas).
  // mu_ held.
  void ResolveRoleLocked();
  // Standby heartbeat loop; promotes via TryTakeover on missed probes.
  void HeartbeatMain();
  // Active-side deposition check: re-reads the epoch record and abdicates
  // the moment it stops naming this replica — even at an equal epoch, since
  // two standbys racing the non-atomic Get/Put/Get takeover can briefly both
  // confirm the same epoch and the record's named active is the tiebreak.
  // (Also covers the partitioned-active case where the successor's announce
  // ping never arrives.)
  void AuditEpochRecord();
  void TryTakeover();
  // Announce the (new) epoch to every peer so a deposed active abdicates.
  void AnnounceEpoch(std::uint64_t epoch);
  int Rank() const;  // index of self in group (0 if absent/unreplicated)
  // Starting value of the per-epoch grant sequence: rank << 48, so two
  // replicas transiently claiming the same epoch (same-epoch split brain is
  // resolvable but not instantaneously preventable without a conditional
  // store write) still mint disjoint, totally ordered FenceTokens and the
  // journal fence check can always tell their grants apart.
  std::uint64_t BaseFenceSeq() const;

  const LeaseManagerConfig config_;
  rpc::FabricPtr fabric_;
  ObjectStorePtr store_;  // null = unreplicated (no epoch record)
  std::shared_ptr<rpc::Endpoint> endpoint_;

  mutable std::mutex mu_;
  std::map<Uuid, DirLease> leases_;
  TimePoint quiet_until_{};  // post-restart / post-takeover quiet period
  bool started_ = false;
  bool active_ = true;
  std::uint64_t epoch_ = 1;
  std::uint64_t fence_seq_ = 0;  // per-epoch grant sequence
  std::string active_hint_;      // standby's best guess at the active address

  // Heartbeat thread (group deployments only).
  std::thread heartbeat_thread_;
  std::condition_variable heartbeat_cv_;
  bool heartbeat_stop_ = false;

  // "lease.*" metric cells (attached to config_.metrics in the ctor).
  obs::Counter grants_;       // new tenures (fresh fencing token minted)
  obs::Counter extensions_;   // same-tenure renewals by the current leader
  obs::Counter redirects_;    // Acquire answered kRedirect (live other leader)
  obs::Counter waits_;        // Acquire answered kWait (recovery/quiet period)
  obs::Counter releases_;     // releases that actually cleared a live grant
  obs::Counter recoveries_;   // BeginRecovery fences accepted
  obs::Counter takeovers_;    // standby->active promotions won
  obs::Counter depositions_;  // active->standby abdications (ping or record)
  obs::Counter delegations_;  // read delegations granted alongside redirects
  obs::Gauge quiet_ms_;       // width of the most recent post-failover quiet
                              // period, milliseconds
};

}  // namespace arkfs::lease
