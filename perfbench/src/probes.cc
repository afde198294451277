#include "probes.h"

namespace perfbench {

using arkfs::Fd;
using arkfs::UserCred;
namespace obs = arkfs::obs;

namespace {

std::atomic<obs::Tracer*> g_tracer{nullptr};

// Vfs operations, in the order of the span-name tables below.
enum Op {
  kOpen, kClose, kRead, kWrite, kFsync, kStat, kMkdir, kRmdir, kUnlink,
  kRename, kReadDir, kSetAttr, kSymlink, kReadLink, kSetAcl, kGetAcl,
  kSyncAll, kDropCaches, kOps
};

constexpr const char* kFuseNames[kOps] = {
    "fuse.open",     "fuse.close",   "fuse.read",     "fuse.write",
    "fuse.fsync",    "fuse.stat",    "fuse.mkdir",    "fuse.rmdir",
    "fuse.unlink",   "fuse.rename",  "fuse.readdir",  "fuse.setattr",
    "fuse.symlink",  "fuse.readlink", "fuse.setacl",  "fuse.getacl",
    "fuse.syncall",  "fuse.drop_caches"};
constexpr const char* kCoreNames[kOps] = {
    "core.open",     "core.close",   "core.read",     "core.write",
    "core.fsync",    "core.stat",    "core.mkdir",    "core.rmdir",
    "core.unlink",   "core.rename",  "core.readdir",  "core.setattr",
    "core.symlink",  "core.readlink", "core.setacl",  "core.getacl",
    "core.syncall",  "core.drop_caches"};

double MicrosSince(arkfs::TimePoint start) {
  return std::chrono::duration<double, std::micro>(arkfs::Now() - start)
      .count();
}

}  // namespace

void SetBenchTracer(obs::Tracer* tracer) { g_tracer.store(tracer); }
obs::Tracer* BenchTracer() { return g_tracer.load(); }

OpScope::OpScope(const char* name) {
  obs::Tracer* tracer = BenchTracer();
  if (tracer == nullptr || obs::CaptureTrace().tracer == tracer) return;
  scope_.emplace(tracer, obs::TraceContext{obs::Tracer::NewId(), 0,
                                           obs::CurrentTenant()});
  span_.emplace(name);
}

// --- ProbeVfs ---------------------------------------------------------------

ProbeVfs::ProbeVfs(arkfs::VfsPtr inner, Role role, LatencyLog* creates,
                   LatencyLog* stats,
                   std::function<bool(const std::string&)> time_create)
    : inner_(std::move(inner)),
      role_(role),
      creates_(creates),
      stats_(stats),
      time_create_(std::move(time_create)) {}

const char* ProbeVfs::SpanName(int op) const {
  return role_ == Role::kOuter ? kFuseNames[op] : kCoreNames[op];
}

template <typename Fn>
auto ProbeVfs::Call(int op, Fn&& fn) {
  // The outer probe roots an op trace when the load generator has not
  // opened one; otherwise both probes nest a span (obs::Span is a no-op
  // without an active trace).
  const char* name = SpanName(op);
  std::optional<OpScope> scope;
  if (role_ == Role::kOuter) scope.emplace(name);
  std::optional<obs::Span> span;
  if (!scope || !scope->rooted()) span.emplace(name);
  return fn();
}

Result<Fd> ProbeVfs::Open(const std::string& path,
                          const arkfs::OpenOptions& options,
                          const UserCred& cred) {
  const arkfs::TimePoint start = arkfs::Now();
  auto fd = Call(kOpen, [&] { return inner_->Open(path, options, cred); });
  if (fd.ok() && creates_ != nullptr && options.create &&
      (!time_create_ || time_create_(path))) {
    std::lock_guard lock(open_mu_);
    create_started_[*fd] = start;
  }
  return fd;
}

Status ProbeVfs::Close(Fd fd) {
  Status st = Call(kClose, [&] { return inner_->Close(fd); });
  if (creates_ != nullptr) {
    std::optional<arkfs::TimePoint> start;
    {
      std::lock_guard lock(open_mu_);
      auto it = create_started_.find(fd);
      if (it != create_started_.end()) {
        start = it->second;
        create_started_.erase(it);
      }
    }
    if (start && st.ok()) creates_->Add(MicrosSince(*start));
  }
  return st;
}

Result<Bytes> ProbeVfs::Read(Fd fd, std::uint64_t offset,
                             std::uint64_t length) {
  return Call(kRead, [&] { return inner_->Read(fd, offset, length); });
}

Result<std::uint64_t> ProbeVfs::Write(Fd fd, std::uint64_t offset,
                                      ByteSpan data) {
  return Call(kWrite, [&] { return inner_->Write(fd, offset, data); });
}

Status ProbeVfs::Fsync(Fd fd) {
  return Call(kFsync, [&] { return inner_->Fsync(fd); });
}

Result<arkfs::StatResult> ProbeVfs::Stat(const std::string& path,
                                         const UserCred& cred) {
  const arkfs::TimePoint start = arkfs::Now();
  auto st = Call(kStat, [&] { return inner_->Stat(path, cred); });
  if (stats_ != nullptr && st.ok()) stats_->Add(MicrosSince(start));
  return st;
}

Status ProbeVfs::Mkdir(const std::string& path, std::uint32_t mode,
                       const UserCred& cred) {
  return Call(kMkdir, [&] { return inner_->Mkdir(path, mode, cred); });
}

Status ProbeVfs::Rmdir(const std::string& path, const UserCred& cred) {
  return Call(kRmdir, [&] { return inner_->Rmdir(path, cred); });
}

Status ProbeVfs::Unlink(const std::string& path, const UserCred& cred) {
  return Call(kUnlink, [&] { return inner_->Unlink(path, cred); });
}

Status ProbeVfs::Rename(const std::string& from, const std::string& to,
                        const UserCred& cred) {
  return Call(kRename, [&] { return inner_->Rename(from, to, cred); });
}

Result<std::vector<arkfs::Dentry>> ProbeVfs::ReadDir(const std::string& path,
                                                     const UserCred& cred) {
  return Call(kReadDir, [&] { return inner_->ReadDir(path, cred); });
}

Status ProbeVfs::SetAttr(const std::string& path,
                         const arkfs::SetAttrRequest& req,
                         const UserCred& cred) {
  return Call(kSetAttr, [&] { return inner_->SetAttr(path, req, cred); });
}

Status ProbeVfs::Symlink(const std::string& target, const std::string& path,
                         const UserCred& cred) {
  return Call(kSymlink, [&] { return inner_->Symlink(target, path, cred); });
}

Result<std::string> ProbeVfs::ReadLink(const std::string& path,
                                       const UserCred& cred) {
  return Call(kReadLink, [&] { return inner_->ReadLink(path, cred); });
}

Status ProbeVfs::SetAcl(const std::string& path, const arkfs::Acl& acl,
                        const UserCred& cred) {
  return Call(kSetAcl, [&] { return inner_->SetAcl(path, acl, cred); });
}

Result<arkfs::Acl> ProbeVfs::GetAcl(const std::string& path,
                                    const UserCred& cred) {
  return Call(kGetAcl, [&] { return inner_->GetAcl(path, cred); });
}

Status ProbeVfs::SyncAll() {
  return Call(kSyncAll, [&] { return inner_->SyncAll(); });
}

Status ProbeVfs::DropCaches() {
  return Call(kDropCaches, [&] { return inner_->DropCaches(); });
}

// --- ProbeStore -------------------------------------------------------------

const char* ProbeStore::KindName(int kind) {
  static constexpr const char* kNames[kKinds] = {
      "get", "getrange", "put", "putrange", "delete", "head", "list"};
  return kNames[kind];
}

template <typename Fn>
auto ProbeStore::Timed(Kind kind, Fn&& fn) {
  static constexpr const char* kSpanNames[kKinds] = {
      "store.get",    "store.getrange", "store.put", "store.putrange",
      "store.delete", "store.head",     "store.list"};
  obs::Tracer* tracer = BenchTracer();
  obs::SpanRecord rec;
  if (tracer != nullptr) {
    // The causing op's id survives every hand-off, including the serving
    // client re-rooting a forwarded op in its own ring; no context means
    // background work (checkpoints, migration workers).
    const obs::TraceContext ctx = obs::CurrentContext();
    if (ctx.active()) {
      rec.trace_id = ctx.trace_id;
      rec.parent_span = ctx.parent_span;
    }
    rec.span_id = obs::Tracer::NewId();
    rec.name = kSpanNames[kind];
    rec.start_ns = arkfs::NowNanos();
  }
  auto result = fn();
  if (tracer != nullptr) {
    rec.end_ns = arkfs::NowNanos();
    tracer->Record(std::move(rec));
  }
  ops_[kind].fetch_add(1, std::memory_order_relaxed);
  if (!result.ok()) errors_[kind].fetch_add(1, std::memory_order_relaxed);
  return result;
}

void ProbeStore::NoteWrite(const std::string& key, std::size_t bytes) {
  bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
  if (key.find("..ecs") != std::string::npos) {
    ec_shard_bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
  }
}

Result<Bytes> ProbeStore::Get(const std::string& key) {
  auto data = Timed(kGet, [&] { return base()->Get(key); });
  if (data.ok()) bytes_read_.fetch_add(data->size(), std::memory_order_relaxed);
  return data;
}

Result<Bytes> ProbeStore::GetRange(const std::string& key,
                                   std::uint64_t offset,
                                   std::uint64_t length) {
  auto data =
      Timed(kGetRange, [&] { return base()->GetRange(key, offset, length); });
  if (data.ok()) bytes_read_.fetch_add(data->size(), std::memory_order_relaxed);
  return data;
}

Status ProbeStore::Put(const std::string& key, ByteSpan data) {
  Status st = Timed(kPut, [&] { return base()->Put(key, data); });
  if (st.ok()) NoteWrite(key, data.size());
  return st;
}

Status ProbeStore::PutRange(const std::string& key, std::uint64_t offset,
                            ByteSpan data) {
  Status st =
      Timed(kPutRange, [&] { return base()->PutRange(key, offset, data); });
  if (st.ok()) NoteWrite(key, data.size());
  return st;
}

Status ProbeStore::Delete(const std::string& key) {
  return Timed(kDelete, [&] { return base()->Delete(key); });
}

Result<arkfs::ObjectMeta> ProbeStore::Head(const std::string& key) {
  return Timed(kHead, [&] { return base()->Head(key); });
}

Result<std::vector<std::string>> ProbeStore::List(const std::string& prefix) {
  return Timed(kList, [&] { return base()->List(prefix); });
}

ProbeStore::Totals ProbeStore::totals() const {
  Totals t;
  for (int k = 0; k < kKinds; ++k) {
    t.ops[k] = ops_[k].load(std::memory_order_relaxed);
    t.errors[k] = errors_[k].load(std::memory_order_relaxed);
  }
  t.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  t.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  t.ec_shard_bytes_written =
      ec_shard_bytes_written_.load(std::memory_order_relaxed);
  return t;
}

}  // namespace perfbench
