// Client-side stub for the lease protocol.
//
// Thin typed wrapper over the RPC fabric. Retry policy lives here so every
// caller behaves the same:
//  * kWait answers (directory recovering / manager quiet period) get a
//    bounded exponential-ish backoff up to `wait_budget`, then kBusy.
//  * Transport failures (manager crashed, partitioned, dropped packet) and
//    standby redirects are handled inside CallManager: one sweep over the
//    configured manager-address list following redirect hints, wrapped in
//    the shared RetryPolicy engine (decorrelated jitter, attempt cap,
//    deadline) — one dropped packet no longer fails a mount, and failover
//    to a standby replica is transparent.
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/fence.h"
#include "lease/wire.h"
#include "objstore/retry.h"
#include "rpc/fabric.h"

namespace arkfs::lease {

class LeaseClient {
 public:
  struct Options {
    // How long to keep retrying a kWait answer before giving up.
    Nanos wait_budget{Seconds(30)};
    Nanos initial_backoff{Millis(10)};
    // Every lease-manager replica address. Empty = the canonical single
    // manager at kManagerAddress.
    std::vector<std::string> managers;
    // Transport-level retry for manager RPCs (per logical call, spanning
    // address sweeps). The deadline bounds how long a manager outage can
    // stall one lease operation.
    RetryPolicy rpc_retry = DefaultRpcRetry();

    static RetryPolicy DefaultRpcRetry() {
      RetryPolicy p;
      p.max_attempts = 6;
      p.initial_backoff = Millis(2);
      p.max_backoff = Millis(100);
      p.deadline = Seconds(2);
      return p;
    }
  };

  LeaseClient(rpc::FabricPtr fabric, std::string self_address,
              Options options)
      : fabric_(std::move(fabric)),
        self_(std::move(self_address)),
        options_(std::move(options)) {
    if (options_.managers.empty()) options_.managers = {kManagerAddress};
  }

  LeaseClient(rpc::FabricPtr fabric, std::string self_address)
      : LeaseClient(std::move(fabric), std::move(self_address), Options()) {}

  struct Grant {
    bool fresh = false;
    TimePoint until{};
    std::string prev_leader;  // non-empty: flush handshake target
    // prev_leader's tenure ended in a token-matched Release: its state is
    // already in the store, so there is nobody to flush and no crash.
    bool prev_released = false;
    FenceToken token;         // fencing token for journal commits
    // Manager's view of the directory's journal watermark (what delegates
    // are being told). Leaders renew with their current watermark, so on a
    // renewal this echoes the reported value back.
    std::uint64_t watermark = 0;
  };

  // Per-call extras carried in the v2 AcquireRequest extension.
  struct AcquireOptions {
    // Non-leader asking for a read delegation alongside the redirect.
    bool want_delegation = false;
    // Leader renewals: the directory's current journal watermark, so the
    // manager can stamp it into delegations it hands out.
    std::uint64_t watermark = 0;
  };

  // A read delegation granted alongside a redirect: permission to serve
  // stat/lookup/readdir from a cached metatable slice no older than
  // `watermark`, valid only while the leader's tenure keeps `token` and only
  // until `until` (one lease term past the watermark report it rests on).
  // Filled on every redirect, granted or not: `leader_until` is the live
  // lease's expiry, until which the redirect's leader may be cached as the
  // route (epoch = a pre-hint manager; do not cache).
  struct Delegation {
    bool granted = false;
    FenceToken token;  // the LIVE lease's fencing token (tenure identity)
    std::uint64_t watermark = 0;
    TimePoint until{};
    TimePoint leader_until{};
  };

  // Acquire (or extend) the lease on dir_ino.
  //   ok            -> caller is leader; see Grant
  //   kAgain+detail -> redirect; detail() is the current leader's address
  //                    (when deleg != null, *deleg carries the leader's
  //                    lease expiry and may carry a delegation)
  //   kTimedOut     -> no manager reachable within the rpc_retry budget
  //   kBusy         -> wait budget exhausted (recovery/quiet period)
  Result<Grant> Acquire(const Uuid& dir_ino) {
    return Acquire(dir_ino, AcquireOptions{}, nullptr);
  }
  Result<Grant> Acquire(const Uuid& dir_ino, const AcquireOptions& opts,
                        Delegation* deleg);

  // `token` should be the grant's fencing token; the manager ignores a
  // release whose token no longer matches the live lease (late release from
  // a deposed leader). A zero token falls back to the name match.
  Status Release(const Uuid& dir_ino, const FenceToken& token = {});
  Status BeginRecovery(const Uuid& dir_ino);
  Status EndRecovery(const Uuid& dir_ino);

  // Current leader if any (does not take the lease).
  Result<std::optional<std::string>> LookupLeader(const Uuid& dir_ino);

  const std::string& self_address() const { return self_; }

 private:
  // One logical manager RPC: sweeps the address list starting at the last
  // known-good replica, follows standby redirect hints, and retries the
  // whole sweep under options_.rpc_retry.
  Result<Bytes> CallManager(const std::string& method, const Bytes& payload);
  Result<Bytes> SweepManagers(const std::string& method, const Bytes& payload);

  rpc::FabricPtr fabric_;
  std::string self_;
  Options options_;
  // Index into options_.managers of the replica that last answered; sweeps
  // start there so steady state costs one RPC.
  std::atomic<std::size_t> preferred_{0};
  std::atomic<std::uint64_t> call_salt_{0};
};

// Status detail carries the leader address on redirect.
inline bool IsRedirect(const Status& st) {
  return st.code() == Errc::kAgain && !st.detail().empty();
}

}  // namespace arkfs::lease
