// arkfs::Client — the ArkFS file-system client (paper §III).
//
// Each client is a full participant in metadata management:
//
//  * It acquires per-directory leases from the lease manager and, as
//    *directory leader*, serves every metadata operation on that directory
//    from an in-memory metatable — no metadata server exists anywhere.
//  * Mutations are journaled to the directory's own journal object and
//    checkpointed back to inode/dentry objects in the background.
//  * Operations on directories led by other clients are forwarded to those
//    leaders over RPC (the paper's client-to-client gRPC path).
//  * File data flows through a write-back object cache with read-ahead,
//    coordinated across clients by read/write file leases that the
//    directory leader issues.
//  * An optional permission cache (pcache mode) lets the client resolve
//    paths locally, relieving near-root directory leaders (paper §III-C);
//    it relaxes ACL-change visibility to lease-period granularity.
//
// A Client is driven either directly through the Vfs interface (library
// use) or through FuseSim, which models FUSE's per-component LOOKUP
// behaviour for the benchmarks.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>

#include "cache/object_cache.h"
#include "core/vfs.h"
#include "core/wire.h"
#include "journal/journal.h"
#include "lease/lease_client.h"
#include "meta/metatable.h"
#include "meta/path.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "objstore/object_store.h"
#include "prt/translator.h"
#include "qos/admission.h"
#include "qos/quota.h"
#include "rpc/fabric.h"

namespace arkfs {

struct ClientConfig {
  std::string address;             // this client's fabric address
  bool permission_cache = true;    // pcache mode (paper §III-C)
  Nanos perm_cache_ttl{Seconds(5)};  // = lease period by default
  // Read delegations: when a directory is led by someone else, ask the lease
  // manager for a delegation alongside the redirect, pull a versioned
  // metatable slice from the leader once, and serve stat/lookup/readdir
  // locally until the leader's journal watermark moves past the slice (or
  // the tenure's fence token changes, or one lease term elapses). Staleness
  // is bounded by one lease term — the same window the lease protocol
  // already tolerates for a crashed leader's last acked ops.
  bool read_delegations = true;
  // Refetch pacing. Each slice fetch holds the leader's dir lock and copies
  // the whole slice, so refetching against an actively mutating directory
  // would slow the very writes invalidating the slices. A stale slice is
  // refetched no sooner than this after the previous fetch; the window
  // doubles (up to 16x) every time a fetch surfaces mutations the delegate
  // had not yet observed, and resets once a fetch confirms the directory
  // went quiet.
  Nanos deleg_refetch_backoff{Millis(25)};
  // Quiet override: a stale slice may be refetched immediately — ignoring
  // the backoff — once the watermark reported by forwarded replies has held
  // still this long. This is what makes a read burst right after a write
  // burst recover in milliseconds instead of a full backoff window.
  Nanos deleg_quiet_before_refetch{Millis(5)};
  std::uint64_t chunk_size = 0;    // PRT data chunk size (0 = store max)
  // Async object-I/O layer config (workers, in-flight cap, store retry
  // policy). Chaos tests enable retries here to ride out transient faults.
  AsyncIoConfig async;
  CacheConfig cache;
  journal::JournalConfig journal;
  lease::LeaseClient::Options lease_options;
  // Forwarding retry policy (leader crash / lease churn).
  int op_retries = 50;
  Nanos op_retry_backoff{Millis(20)};

  // Where this client's metric cells attach (propagated into the journal
  // and async-I/O configs when those leave theirs null); null = process
  // default registry.
  obs::MetricsRegistry* metrics = nullptr;

  // --- multi-tenant QoS ---
  // Tenant this client's applications run as (0 = default/untenanted).
  // Stamped into the ambient trace context at every Vfs entry point, so it
  // rides to lease acquires, forwarded ops and background store I/O.
  std::uint32_t tenant = 0;
  // Shared QoS objects, injected by the cluster (null = feature off; must
  // outlive the client). `admission` gates ops this client serves as a
  // directory leader; `quota` charges namespace usage on the mutation path.
  qos::AdmissionController* admission = nullptr;
  qos::QuotaManager* quota = nullptr;
  // Capacity of the per-client span ring buffer (Vfs::Introspect /
  // tools/arktrace read it back).
  std::size_t trace_capacity = obs::Tracer::kDefaultCapacity;

  static ClientConfig ForTests(std::string address) {
    ClientConfig c;
    c.address = std::move(address);
    c.cache = CacheConfig::ForTests();
    c.journal = journal::JournalConfig::ForTests();
    c.perm_cache_ttl = Millis(200);
    // Tests run 200 ms lease terms; a renewal stall must resolve (to lame
    // duck or failover) well inside one term, not ride the 2 s default
    // manager-retry deadline.
    c.lease_options.rpc_retry.max_attempts = 4;
    c.lease_options.rpc_retry.initial_backoff = Millis(1);
    c.lease_options.rpc_retry.max_backoff = Millis(5);
    c.lease_options.rpc_retry.deadline = Millis(150);
    return c;
  }
};

// Point-in-time copy of one client's "client.*" metric cells (the cells
// themselves also report into the MetricsRegistry under these names).
struct ClientStats {
  std::uint64_t local_meta_ops = 0;     // served from own metatables
  std::uint64_t forwarded_ops = 0;      // sent to remote leaders
  std::uint64_t served_remote_ops = 0;  // served on behalf of other clients
  std::uint64_t lease_acquires = 0;
  std::uint64_t lease_redirects = 0;
  std::uint64_t perm_cache_hits = 0;
  std::uint64_t recoveries = 0;
  // Stat-family ops (lookup / getattr) split by serving path.
  std::uint64_t stat_local = 0;      // this client led the directory
  std::uint64_t stat_forwarded = 0;  // sent to the remote leader
  std::uint64_t stat_delegated = 0;  // served from a delegated slice
  // Read-delegation cache traffic.
  std::uint64_t deleg_hits = 0;           // ops served from a cached slice
  std::uint64_t deleg_misses = 0;         // delegable ops that fell through
  std::uint64_t deleg_refetches = 0;      // slice pulls from the leader
  std::uint64_t deleg_invalidations = 0;  // slices dropped (watermark/token)
};

class Client : public Vfs {
 public:
  // Initializes an empty file system on the store: writes the root inode
  // and dentry block. Idempotent only if `force`.
  static Status Format(const ObjectStorePtr& store, bool force = false);

  static Result<std::shared_ptr<Client>> Create(ObjectStorePtr store,
                                                rpc::FabricPtr fabric,
                                                ClientConfig config);
  ~Client() override;

  // Flushes all state, releases leases, unbinds from the fabric.
  Status Shutdown();

  // Simulates a hard crash: the client vanishes from the network without
  // flushing anything. Journal objects keep whatever was committed; running
  // transactions and dirty cache entries are lost. For crash tests.
  void CrashHard();

  // --- Vfs interface ---
  Result<Fd> Open(const std::string& path, const OpenOptions& options,
                  const UserCred& cred) override;
  Status Close(Fd fd) override;
  Result<Bytes> Read(Fd fd, std::uint64_t offset,
                     std::uint64_t length) override;
  Result<std::uint64_t> Write(Fd fd, std::uint64_t offset,
                              ByteSpan data) override;
  Status Fsync(Fd fd) override;
  Result<StatResult> Stat(const std::string& path,
                          const UserCred& cred) override;
  Status Mkdir(const std::string& path, std::uint32_t mode,
               const UserCred& cred) override;
  Status Rmdir(const std::string& path, const UserCred& cred) override;
  Status Unlink(const std::string& path, const UserCred& cred) override;
  Status Rename(const std::string& from, const std::string& to,
                const UserCred& cred) override;
  Result<std::vector<Dentry>> ReadDir(const std::string& path,
                                      const UserCred& cred) override;
  Status SetAttr(const std::string& path, const SetAttrRequest& req,
                 const UserCred& cred) override;
  Status Symlink(const std::string& target, const std::string& path,
                 const UserCred& cred) override;
  Result<std::string> ReadLink(const std::string& path,
                               const UserCred& cred) override;
  Status SetAcl(const std::string& path, const Acl& acl,
                const UserCred& cred) override;
  Result<Acl> GetAcl(const std::string& path, const UserCred& cred) override;
  Status SyncAll() override;
  Status DropCaches() override;

  // Lightweight existence/permission probe used by the FUSE model's
  // per-component LOOKUPs. Served from the permission cache when enabled.
  Status Probe(const std::string& path, const UserCred& cred);

  ClientStats stats() const;
  const ClientConfig& config() const { return config_; }
  const std::string& address() const { return config_.address; }
  CacheStats cache_stats() const { return cache_->stats(); }
  // This client's journal metric cells (crash tests distinguish a deposed
  // leader's fence rejections from its successor's).
  const journal::JournalMetrics& journal_metrics() const {
    return journal_->metrics();
  }
  // The per-client span ring (also surfaced through Vfs::Introspect).
  obs::Tracer& tracer() { return tracer_; }

  // Supplies IntrospectReport.scrub_text (set by the cluster when an EC
  // scrubber exists; a plain client reports an empty section).
  void SetScrubReporter(std::function<std::string()> reporter) {
    scrub_reporter_ = std::move(reporter);
  }

  // Supplies IntrospectReport.tiering_text (set by the cluster under
  // DataPlacement::kTiered; a plain client reports an empty section).
  void SetTieringReporter(std::function<std::string()> reporter) {
    tiering_reporter_ = std::move(reporter);
  }

  IntrospectReport Introspect() override;

 private:
  friend class ClientOpsTestPeer;

  // --- per-directory leader state ---
  struct FileLeaseInfo {
    std::set<std::string> readers;  // client addresses holding read leases
    std::string writer;             // exclusive write-lease holder
    bool direct_io = false;         // caching revoked; everyone goes direct
  };

  struct DirHandle {
    Uuid ino;
    std::shared_mutex mu;
    std::unique_ptr<Metatable> metatable;  // present iff leader
    bool leader = false;
    // Lame duck: still leader with an unexpired lease, but renewal is
    // failing (manager unreachable). Reads keep being served; mutations are
    // fenced with kStale so nothing new lands that a successor — who may
    // already be getting elected — could miss. Cleared on successful
    // renewal, on handoff (kFlushDir), and when the lease finally expires.
    bool lame_duck = false;
    TimePoint lease_until{};
    Nanos lease_duration{0};
    // Fencing token of the current leadership tenure (lease-HA). Stamped
    // into journal commits; a successor advancing the persisted fence makes
    // our commits fail kStale, which HandleDeposed turns into a clean
    // leadership drop.
    FenceToken fence;
    // Dentry shard count observed at the last leadership (1 until known).
    // Seeds the speculative bootstrap batch so re-acquiring the lease loads
    // inode + shards + journal probe in one store round trip.
    std::uint32_t shard_hint = 1;
    std::unordered_map<Uuid, FileLeaseInfo> file_leases;
    // Non-leader route cache: the leader the last redirect named, used
    // without asking the manager until `hint_until` (that leader's lease
    // expiry, or the delegation's if earlier). RunDirOp drops it on any
    // forwarded reply that says the route is stale.
    std::string leader_hint;
    TimePoint hint_until{};
  };
  using DirHandlePtr = std::shared_ptr<DirHandle>;

  // Result of resolving who serves a directory.
  struct DirRef {
    DirHandlePtr local;   // set if this client leads the directory
    std::string remote;   // else: the leader's address
    bool hinted = false;  // `remote` came from the leader hint
  };

  // --- read delegations (client_deleg.cc) ---
  // Immutable point-in-time copy of a remote leader's metatable, stamped
  // with the tenure + watermark it was read under. Shared by reference so
  // concurrent delegated ops serve from it without holding deleg_mu_.
  struct DelegSlice {
    Inode dir_inode;
    std::vector<Dentry> entries;  // sorted (Metatable::ListEntries order)
    std::unordered_map<Uuid, Inode> child_inodes;
    FenceToken fence;          // leader tenure the slice was read under
    std::uint64_t watermark = 0;  // leader's journal watermark at read time
  };
  using DelegSlicePtr = std::shared_ptr<const DelegSlice>;

  // Per-directory delegation state. `token`/`watermark`/`until` come from
  // the lease manager's grant (refreshed on every redirect); the slice is
  // pulled lazily from the leader and dropped the moment its watermark falls
  // behind or the tenure changes.
  struct DirDelegation {
    FenceToken token;             // live lease's fencing token at grant time
    std::uint64_t watermark = 0;  // newest leader watermark observed
    TimePoint until{};            // hard expiry: one lease term past the
                                  // watermark report the grant rests on
    TimePoint last_fetch{};           // refetch-pacing clock
    // Quiet detector: the dir counts as quiet only when two forwarded
    // replies at least deleg_quiet_before_refetch apart reported the SAME
    // watermark — a single stale reading is not evidence the churn ended.
    std::uint64_t last_seen_wm = 0;   // watermark on the last forwarded reply
    TimePoint first_seen_at{};        // first observation of that watermark
    TimePoint last_obs_at{};          // latest observation of that watermark
    Nanos backoff{};                  // adaptive refetch window (0 = base)
    DelegSlicePtr slice;
  };

  // Ops a delegate may serve from a cached slice (read-only, no directory
  // mutation, answerable from dentries + inodes alone).
  static bool IsDelegable(wire::DirOp op);
  // Stat-family ops (the fig5 STAT phase): path-component lookups and
  // getattrs. Drives the client.stat.{local,forwarded,delegated} split.
  static bool IsStatFamily(wire::DirOp op);

  // Serves `req` from the delegation cache; pulls a fresh slice from
  // `leader` when the cached one is missing or behind. Returns false when
  // the op must be forwarded instead (no/expired delegation, name not in the
  // slice, fetch failed).
  bool DelegatedServe(const Uuid& dir_ino, const std::string& leader,
                      const wire::DirOpRequest& req, wire::DirOpResponse* out);
  // Records a delegation granted alongside a lease redirect.
  void DelegAdopt(const Uuid& dir_ino,
                  const lease::LeaseClient::Delegation& deleg);
  // Folds the {fence, watermark} stamp piggybacked on a leader-served reply
  // into the delegation cache: a moved watermark strands the slice (next
  // delegated op refetches), a changed token voids the delegation. This is
  // what makes a delegate that just forwarded a mutation read its own write.
  void DelegObserve(const Uuid& dir_ino, const FenceToken& fence,
                    std::uint64_t watermark);
  // Pulls a slice from the leader and installs it if the delegation is still
  // the same tenure. Returns the slice to serve from, or null.
  DelegSlicePtr DelegFetchSlice(const Uuid& dir_ino,
                                const std::string& leader);
  void DelegDropAll();
  std::string DelegDumpText();  // Introspect / arkfs_cli introspect

  // --- permission/dentry cache (pcache mode) ---
  struct CachedDirMeta {
    std::uint32_t mode = 0;
    std::uint32_t uid = 0;
    std::uint32_t gid = 0;
    Acl acl;
    TimePoint expires{};
  };
  struct CachedDentry {
    Dentry dentry;
    TimePoint expires{};
  };

  struct OpenFile {
    Uuid ino;
    Uuid parent;
    OpenOptions options;
    UserCred cred;
    std::uint64_t size = 0;
    std::uint64_t chunk_size = 0;
    bool size_dirty = false;
    bool direct_io = false;   // write-back caching revoked
    bool cache_read = false;  // read lease held
    bool cache_write = false; // write lease held
  };

  Client(ObjectStorePtr store, rpc::FabricPtr fabric, ClientConfig config);
  Status Start();

  // --- directory access / lease flows (client.cc) ---
  // `need_lease`: the caller must lead the directory, so a cached leader
  // hint does not answer for the manager.
  Result<DirRef> EnsureDirAccess(const Uuid& dir_ino, bool need_lease = false);
  void DropLeaderHint(const Uuid& dir_ino);
  Status BecomeLeader(const DirHandlePtr& handle,
                      const lease::LeaseClient::Grant& grant);
  // Builds the metatable; with `preloaded` (one LoadDirObjects batch) no
  // extra store round trips are paid.
  Status BuildMetatable(DirHandle& handle,
                        Prt::DirObjects* preloaded = nullptr);
  Status RelinquishDir(const Uuid& dir_ino);  // flush + drop leadership
  // A journal commit came back kStale: a successor fenced us off. Drop all
  // leadership state for the directory without writing anything — the
  // durable journal now belongs to the successor, which replays it.
  void HandleDeposed(const Uuid& dir_ino);
  // Validates/renews the lease for a local op; kAgain if leadership lost.
  Status ValidateLeaseLocked(DirHandle& handle);
  DirHandlePtr HandleFor(const Uuid& dir_ino);

  // --- RPC server side (client.cc) ---
  Result<Bytes> HandleDirOp(ByteSpan payload);
  Result<Bytes> HandleFlushFile(ByteSpan payload);
  // `forwarded`: the op came over the fabric from another client, so no
  // EnsureDirAccess ran for it here; serving it renews a lease that is due.
  wire::DirOpResponse ServeDirOp(const wire::DirOpRequest& req,
                                 bool forwarded = false);
  // Renews a lease this client holds and has not yet seen expire once less
  // than a quarter of its term remains (EnsureDirAccess's rule).
  void RenewIfDue(const Uuid& dir_ino);

  // --- leader-local operation bodies (client_ops.cc); handle.mu held ---
  Status LeaderLookup(DirHandle& dir, const std::string& name,
                      const UserCred& cred, wire::DirOpResponse* out);
  Status LeaderCreate(DirHandle& dir, const std::string& name,
                      std::uint32_t mode, bool exclusive, FileType type,
                      const std::string& symlink_target, const UserCred& cred,
                      wire::DirOpResponse* out);
  Status LeaderMkdir(DirHandle& dir, const std::string& name,
                     std::uint32_t mode, const UserCred& cred,
                     wire::DirOpResponse* out);
  Status LeaderUnlink(DirHandle& dir, const std::string& name,
                      const UserCred& cred, wire::DirOpResponse* out);
  Status LeaderRmdir(DirHandle& dir, const std::string& name,
                     const UserCred& cred);
  Status LeaderRenameLocal(DirHandle& dir, const std::string& from,
                           const std::string& to, const UserCred& cred);
  Status LeaderReadDir(DirHandle& dir, const UserCred& cred,
                       wire::DirOpResponse* out);
  // Snapshot the metatable for a read delegate (client_deleg.cc). No cred
  // check: like kIsEmptyDir this is client-infrastructure traffic; the
  // delegate enforces per-user permission checks against the slice's dir
  // inode on every op it serves, exactly as the leader would have.
  Status LeaderDelegateFetch(DirHandle& dir, wire::DirOpResponse* out);
  Status LeaderGetAttrChild(DirHandle& dir, const std::string& name,
                            const Uuid& child_ino, const UserCred& cred,
                            wire::DirOpResponse* out);
  Status LeaderSetAttrChild(DirHandle& dir, const std::string& name,
                            const SetAttrRequest& req, const UserCred& cred,
                            wire::DirOpResponse* out);
  Status LeaderSetAttrDir(DirHandle& dir, const SetAttrRequest& req,
                          const UserCred& cred, wire::DirOpResponse* out);
  Status LeaderSetAclChild(DirHandle& dir, const std::string& name,
                           const Acl& acl, const UserCred& cred);
  Status LeaderSetAclDir(DirHandle& dir, const Acl& acl, const UserCred& cred);
  Status LeaderLeaseOpen(DirHandle& dir, const Uuid& ino,
                         const std::string& client, bool* granted,
                         wire::DirOpResponse* out);
  Status LeaderLeaseUpgrade(DirHandle& dir, const Uuid& ino,
                            const std::string& client, bool* granted);
  Status LeaderLeaseRelease(DirHandle& dir, const Uuid& ino,
                            const std::string& client);
  Status LeaderCommitSize(DirHandle& dir, const Uuid& ino, std::uint64_t size,
                          std::int64_t mtime_sec);

  // Ensures the child-file inode for `ino` is loaded into the metatable
  // (lazy loading; §III-C "pull the metadata from object storage").
  Result<Inode*> LoadChildInodeLocked(DirHandle& dir, const Uuid& ino);

  // --- forwarding machinery (client_ops.cc) ---
  // Runs `op` against dir_ino's leader: locally if this client leads it,
  // else as a remote DirOpRequest. Retries through lease churn.
  Result<wire::DirOpResponse> RunDirOp(const Uuid& dir_ino,
                                       wire::DirOpRequest req);

  // --- path resolution (client_ops.cc) ---
  // Resolves a directory path to its inode, enforcing exec permission on
  // every component (and following symlinks).
  Result<Uuid> ResolveDir(const std::string& path, const UserCred& cred);
  // Resolves parent of `path` and returns (parent ino, leaf name).
  struct ResolvedParent {
    Uuid parent;
    std::string name;
  };
  Result<ResolvedParent> ResolveParent(const std::string& path,
                                       const UserCred& cred);
  // One component step: lookup `name` in `dir`, with traversal perm check.
  Result<Dentry> LookupStep(const Uuid& dir, const std::string& name,
                            const UserCred& cred);

  void CachePermEntry(const Uuid& dir, const wire::DirMetaOut& meta);
  void CacheDentryEntry(const Uuid& dir, const Dentry& dentry);
  bool PcacheLookup(const Uuid& dir, const std::string& name,
                    const UserCred& cred, Dentry* out, Status* perm);
  void PcacheInvalidate(const Uuid& dir, const std::string& name);

  // Broadcast "flush your cache for ino" to lease holders. dir.mu held.
  void BroadcastFlush(DirHandle& dir, const Uuid& ino,
                      const std::string& except);

  // Fsync body shared by Fsync/Close.
  Status FlushOpenFile(OpenFile& of);

  const ClientConfig config_;
  ObjectStorePtr store_;
  rpc::FabricPtr fabric_;
  std::shared_ptr<Prt> prt_;
  std::unique_ptr<lease::LeaseClient> lease_;
  std::shared_ptr<journal::JournalManager> journal_;
  std::shared_ptr<ObjectCache> cache_;
  std::shared_ptr<rpc::Endpoint> endpoint_;

  std::mutex dirs_mu_;
  std::unordered_map<Uuid, DirHandlePtr> dirs_;

  std::mutex pcache_mu_;
  std::unordered_map<Uuid, CachedDirMeta> perm_cache_;
  std::map<std::pair<Uuid, std::string>, CachedDentry> dentry_cache_;

  std::mutex deleg_mu_;
  std::unordered_map<Uuid, DirDelegation> delegations_;

  std::mutex fd_mu_;
  std::map<Fd, OpenFile> open_files_;
  Fd next_fd_ = 3;

  std::atomic<bool> shut_down_{false};

  // "client.*" metric cells (attached to config_.metrics in the ctor).
  obs::Counter local_meta_ops_;
  obs::Counter forwarded_ops_;
  obs::Counter served_remote_ops_;
  obs::Counter lease_acquires_;
  obs::Counter lease_redirects_;
  obs::Counter perm_cache_hits_;
  obs::Counter recoveries_;
  obs::Counter stat_local_;
  obs::Counter stat_forwarded_;
  obs::Counter stat_delegated_;
  obs::Counter deleg_hits_;
  obs::Counter deleg_misses_;
  obs::Counter deleg_refetches_;
  obs::Counter deleg_invalidations_;

  // Span ring: every Vfs entry point roots a trace here; spans recorded by
  // deeper layers (lease RPCs, journal commits, object-store ops) land in
  // the rooting client's ring via the thread-local active trace.
  obs::Tracer tracer_;
  std::function<std::string()> scrub_reporter_;
  std::function<std::string()> tiering_reporter_;
};

}  // namespace arkfs
