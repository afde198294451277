// Measurement points the benchmark inserts around ArkFS from outside:
//
//  * ProbeVfs wraps a Vfs. The outer instance sits above FuseSim (what an
//    application sees): it roots one trace per workload op, and always
//    records the end-to-end create and stat latencies. The inner instance
//    sits between FuseSim and the client, so the FUSE model's own time is
//    the outer span minus the inner one.
//  * ProbeStore is a StoreDecorator directly over the ClusterObjectStore.
//    It counts every store op and byte, and while tracing records one span
//    per op, stamped with the trace id of the op that caused it (the
//    program already carries that id across its async-I/O and journal
//    hand-offs) or 0 for background work.
//
// Spans go to one benchmark-owned tracer, installed with SetBenchTracer
// only for the traced part of a run; without it every probe only counts.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "core/vfs.h"
#include "objstore/store_decorator.h"

namespace perfbench {

using arkfs::Bytes;
using arkfs::ByteSpan;
using arkfs::Status;
template <typename T>
using Result = arkfs::Result<T>;

// The tracer spans are recorded into; null turns span recording off.
void SetBenchTracer(arkfs::obs::Tracer* tracer);
arkfs::obs::Tracer* BenchTracer();

// Thread-safe list of latency samples in microseconds.
class LatencyLog {
 public:
  void Add(double us) {
    std::lock_guard lock(mu_);
    samples_.push_back(us);
  }
  std::vector<double> Take() {
    std::lock_guard lock(mu_);
    return std::exchange(samples_, {});
  }

 private:
  std::mutex mu_;
  std::vector<double> samples_;
};

// Roots a workload-op trace on the calling thread (when tracing) so every
// Vfs call inside the scope shares one op id, e.g. open+write+close of one
// mdtest create. No-op when tracing is off or an op is already open.
class OpScope {
 public:
  explicit OpScope(const char* name);
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  bool rooted() const { return span_.has_value(); }

 private:
  std::optional<arkfs::obs::TraceScope> scope_;
  std::optional<arkfs::obs::Span> span_;
};

class ProbeVfs : public arkfs::Vfs {
 public:
  enum class Role { kOuter, kInner };
  // Outer probes record into `creates` (Open with create -> Close on the
  // same fd, for paths `time_create` accepts) and `stats`; inner probes
  // take null logs.
  ProbeVfs(arkfs::VfsPtr inner, Role role, LatencyLog* creates = nullptr,
           LatencyLog* stats = nullptr,
           std::function<bool(const std::string&)> time_create = nullptr);

  Result<arkfs::Fd> Open(const std::string& path,
                         const arkfs::OpenOptions& options,
                         const arkfs::UserCred& cred) override;
  Status Close(arkfs::Fd fd) override;
  Result<Bytes> Read(arkfs::Fd fd, std::uint64_t offset,
                     std::uint64_t length) override;
  Result<std::uint64_t> Write(arkfs::Fd fd, std::uint64_t offset,
                              ByteSpan data) override;
  Status Fsync(arkfs::Fd fd) override;
  Result<arkfs::StatResult> Stat(const std::string& path,
                                 const arkfs::UserCred& cred) override;
  Status Mkdir(const std::string& path, std::uint32_t mode,
               const arkfs::UserCred& cred) override;
  Status Rmdir(const std::string& path, const arkfs::UserCred& cred) override;
  Status Unlink(const std::string& path, const arkfs::UserCred& cred) override;
  Status Rename(const std::string& from, const std::string& to,
                const arkfs::UserCred& cred) override;
  Result<std::vector<arkfs::Dentry>> ReadDir(
      const std::string& path, const arkfs::UserCred& cred) override;
  Status SetAttr(const std::string& path, const arkfs::SetAttrRequest& req,
                 const arkfs::UserCred& cred) override;
  Status Symlink(const std::string& target, const std::string& path,
                 const arkfs::UserCred& cred) override;
  Result<std::string> ReadLink(const std::string& path,
                               const arkfs::UserCred& cred) override;
  Status SetAcl(const std::string& path, const arkfs::Acl& acl,
                const arkfs::UserCred& cred) override;
  Result<arkfs::Acl> GetAcl(const std::string& path,
                            const arkfs::UserCred& cred) override;
  Status SyncAll() override;
  Status DropCaches() override;

 private:
  // Span name for `op` at this probe's boundary ("fuse.<op>" or "core.<op>").
  const char* SpanName(int op) const;
  template <typename Fn>
  auto Call(int op, Fn&& fn);

  arkfs::VfsPtr inner_;
  const Role role_;
  LatencyLog* creates_;
  LatencyLog* stats_;
  std::function<bool(const std::string&)> time_create_;
  std::mutex open_mu_;
  std::unordered_map<arkfs::Fd, arkfs::TimePoint> create_started_;
};

class ProbeStore : public arkfs::StoreDecorator {
 public:
  enum Kind { kGet, kGetRange, kPut, kPutRange, kDelete, kHead, kList, kKinds };
  static const char* KindName(int kind);  // "get", "getrange", ...

  struct Totals {
    std::array<std::uint64_t, kKinds> ops{};
    std::array<std::uint64_t, kKinds> errors{};
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t ec_shard_bytes_written = 0;  // keys holding EC shards
  };

  explicit ProbeStore(arkfs::ObjectStorePtr base)
      : StoreDecorator(std::move(base)) {}

  Result<Bytes> Get(const std::string& key) override;
  Result<Bytes> GetRange(const std::string& key, std::uint64_t offset,
                         std::uint64_t length) override;
  Status Put(const std::string& key, ByteSpan data) override;
  Status PutRange(const std::string& key, std::uint64_t offset,
                  ByteSpan data) override;
  Status Delete(const std::string& key) override;
  Result<arkfs::ObjectMeta> Head(const std::string& key) override;
  Result<std::vector<std::string>> List(const std::string& prefix) override;

  Totals totals() const;

 private:
  template <typename Fn>
  auto Timed(Kind kind, Fn&& fn);
  void NoteWrite(const std::string& key, std::size_t bytes);

  std::array<std::atomic<std::uint64_t>, kKinds> ops_{};
  std::array<std::atomic<std::uint64_t>, kKinds> errors_{};
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::uint64_t> ec_shard_bytes_written_{0};
};

}  // namespace perfbench
