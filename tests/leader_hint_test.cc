// Leader hints: a non-leader caches the leader a lease redirect named and
// routes forwarded ops straight there until that leader's lease could lapse,
// asking the lease manager again only when the hint expires or a forwarded
// reply says the route is stale (DESIGN.md §4.4, Leader hints).
#include <gtest/gtest.h>

#include <string>

#include "core/cluster.h"
#include "lease/wire.h"
#include "objstore/memory_store.h"

namespace arkfs {
namespace {

ArkFsClusterOptions HintOptions(Nanos lease_period) {
  ArkFsClusterOptions options = ArkFsClusterOptions::ForTests();
  options.lease.lease_period = lease_period;
  // Stats forward too, so every op below is a forwarded op.
  options.client_template.read_delegations = false;
  return options;
}

class LeaderHintTest : public ::testing::Test {
 protected:
  void Start(const ArkFsClusterOptions& options, qos::TenantId b_tenant = 0) {
    cluster_ = ArkFsCluster::Create(std::make_shared<MemoryObjectStore>(),
                                    options)
                   .value();
    a_ = cluster_->AddClient("a").value();
    b_ = cluster_->AddClient("b", b_tenant).value();
    // B leads "/" and /src; A leads /d. B's ops in /d are forwarded to A
    // and its path walks stay local, so /d is the only directory B routes.
    ASSERT_TRUE(b_->Mkdir("/src", 0755, root_).ok());
    ASSERT_TRUE(b_->WriteFileAt("/src/x", AsBytes("moved"), root_).ok());
    ASSERT_TRUE(a_->Mkdir("/d", 0755, root_).ok());
    ASSERT_TRUE(a_->WriteFileAt("/d/a0", AsBytes("a"), root_).ok());
  }

  std::unique_ptr<ArkFsCluster> cluster_;
  std::shared_ptr<Client> a_, b_;
  const UserCred root_ = UserCred::Root();
};

TEST_F(LeaderHintTest, SteadyStateForwardsAskTheManagerOnce) {
  Start(HintOptions(Seconds(5)));
  const ClientStats before = b_->stats();
  const std::uint64_t served_before = a_->stats().served_remote_ops;
  constexpr int kFiles = 20;
  for (int i = 0; i < kFiles; ++i) {
    const std::string path = "/d/b" + std::to_string(i);
    ASSERT_TRUE(b_->WriteFileAt(path, AsBytes("b"), root_).ok()) << path;
    ASSERT_TRUE(b_->Stat(path, root_).ok()) << path;
  }
  const ClientStats after = b_->stats();
  // One redirect names A; every later op routes by the hint.
  EXPECT_EQ(after.lease_redirects, before.lease_redirects + 1);
  EXPECT_GE(after.forwarded_ops - before.forwarded_ops, 2u * kFiles);
  EXPECT_GE(a_->stats().served_remote_ops - served_before, 2u * kFiles);
}

TEST_F(LeaderHintTest, StaleHintAfterCleanHandoffReroutesWithoutBackoff) {
  ArkFsClusterOptions options = HintOptions(Seconds(5));
  // Any backoff sleep would show as a 10 s stall.
  options.client_template.op_retry_backoff = Seconds(10);
  Start(options);
  ASSERT_TRUE(b_->WriteFileAt("/d/warm", AsBytes("b"), root_).ok());  // hint A

  // A unmounts cleanly; C takes /d over while B's hint still names A.
  ASSERT_TRUE(a_->Shutdown().ok());
  auto c = cluster_->AddClient("c").value();
  ASSERT_TRUE(c->WriteFileAt("/d/c0", AsBytes("c"), root_).ok());

  const std::uint64_t redirects_before = b_->stats().lease_redirects;
  const TimePoint start = Now();
  for (int i = 0; i < 10; ++i) {
    const std::string path = "/d/b" + std::to_string(i);
    ASSERT_TRUE(b_->WriteFileAt(path, AsBytes("b"), root_).ok()) << path;
    ASSERT_TRUE(b_->Stat(path, root_).ok()) << path;
  }
  EXPECT_LT(Now() - start, Seconds(5));
  // The first op found A gone and re-resolved once, to C.
  EXPECT_EQ(b_->stats().lease_redirects, redirects_before + 1);
  EXPECT_GT(c->stats().served_remote_ops, 0u);
  auto data = c->ReadWholeFile("/d/b9", root_);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ToString(*data), "b");
}

TEST_F(LeaderHintTest, CrashedLeaderFabricErrorDropsHint) {
  ArkFsClusterOptions options = HintOptions(Millis(200));
  options.client_template.op_retries = 1;  // one route per op
  Start(options);
  ASSERT_TRUE(b_->Stat("/d/a0", root_).ok());  // hint A
  a_->CrashHard();

  // The hinted route fails without a manager call and drops the hint...
  const std::uint64_t redirects = b_->stats().lease_redirects;
  EXPECT_FALSE(b_->Stat("/d/a0", root_).ok());
  EXPECT_EQ(b_->stats().lease_redirects, redirects);
  // ...so the next op asks the manager, which still names A until its
  // lease expires.
  EXPECT_FALSE(b_->Stat("/d/a0", root_).ok());
  EXPECT_EQ(b_->stats().lease_redirects, redirects + 1);

  // After expiry B takes /d over and recovers it.
  SleepFor(cluster_->lease_manager().config().lease_period + Millis(100));
  auto st = b_->Stat("/d/a0", root_);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_EQ(st->size, 1u);
  EXPECT_GT(b_->stats().recoveries, 0u);
}

TEST_F(LeaderHintTest, HintExpiresWithIdleLeadersLease) {
  Start(HintOptions(Millis(200)));
  ASSERT_TRUE(b_->WriteFileAt("/d/warm", AsBytes("b"), root_).ok());  // hint A

  // A stays idle, so its lease, and B's hint with it, runs out.
  SleepFor(cluster_->lease_manager().config().lease_period + Millis(100));
  const ClientStats before = b_->stats();
  ASSERT_TRUE(b_->WriteFileAt("/d/after", AsBytes("b"), root_).ok());
  const ClientStats after = b_->stats();
  // B asked the manager and got /d rather than forwarding to A.
  EXPECT_GT(after.lease_acquires, before.lease_acquires);
  EXPECT_EQ(after.lease_redirects, before.lease_redirects);
  EXPECT_EQ(after.forwarded_ops, before.forwarded_ops);
  EXPECT_GT(after.local_meta_ops, before.local_meta_ops);
}

// A throttled reply drops the hint as well: the retry asks the manager.
TEST_F(LeaderHintTest, ThrottledReplyDropsHint) {
  ArkFsClusterOptions options = HintOptions(Seconds(5));
  options.admission.enabled = true;
  options.admission.tenants[7] = qos::TenantRate{20, 20};
  // A throttled forwarded op may still fail: each of its retries pays the
  // manager and the leader one token each, while the bucket refills one
  // at a time (ROADMAP item 3). Two attempts keep such an op short.
  options.client_template.op_retries = 2;
  Start(options, /*b_tenant=*/7);
  ASSERT_TRUE(b_->Stat("/d/a0", root_).ok());  // hint A

  // Stats faster than tenant 7's 20/s: A turns some away with kAgain.
  const std::uint64_t redirects = b_->stats().lease_redirects;
  for (int i = 0; i < 30; ++i) (void)b_->Stat("/d/a0", root_);
  EXPECT_GT(b_->stats().lease_redirects, redirects);
}

// A cross-directory rename needs both leases, not a route: it must ask the
// manager even while a hint names the departed leader of the destination.
TEST_F(LeaderHintTest, CrossDirRenameBypassesStaleHint) {
  Start(HintOptions(Seconds(5)));
  ASSERT_TRUE(b_->WriteFileAt("/d/warm", AsBytes("b"), root_).ok());  // hint A
  ASSERT_TRUE(a_->Shutdown().ok());

  // Waiting on the 5 s hint would exhaust the rename's retries (kBusy).
  ASSERT_TRUE(b_->Rename("/src/x", "/d/x", root_).ok());
  auto data = b_->ReadWholeFile("/d/x", root_);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ToString(*data), "moved");
  EXPECT_EQ(b_->Stat("/src/x", root_).status().code(), Errc::kNoEnt);
}

// A manager that predates leader hints sends lease_until_ns = 0 on a
// redirect: nothing may be cached, so every op asks the manager.
TEST(LeaderHintCompatTest, PreHintManagerRedirectIsNotCached) {
  auto cluster = ArkFsCluster::Create(std::make_shared<MemoryObjectStore>(),
                                      HintOptions(Seconds(5)))
                     .value();
  const UserCred root = UserCred::Root();
  auto a = cluster->AddClient("a").value();
  ASSERT_TRUE(a->Mkdir("/d", 0755, root).ok());
  ASSERT_TRUE(a->WriteFileAt("/d/a0", AsBytes("a"), root).ok());

  // A proxy in front of the real manager strips the redirect expiry.
  rpc::Fabric* fabric = cluster->fabric().get();
  auto proxy = std::make_shared<rpc::Endpoint>();
  for (const char* method : {lease::kMethodAcquire, lease::kMethodRelease,
                             lease::kMethodRecovery, lease::kMethodLookup}) {
    const std::string name = method;
    proxy->RegisterMethod(name, [fabric, name](ByteSpan req) -> Result<Bytes> {
      ARKFS_ASSIGN_OR_RETURN(
          Bytes raw, fabric->Call(lease::kManagerAddress, name, req));
      if (name != lease::kMethodAcquire) return raw;
      ARKFS_ASSIGN_OR_RETURN(auto resp, lease::AcquireResponse::Decode(raw));
      if (resp.outcome == lease::AcquireOutcome::kRedirect) {
        resp.lease_until_ns = 0;
      }
      return resp.Encode();
    });
  }
  ASSERT_TRUE(fabric->Bind("pre-hint-manager", proxy).ok());
  ClientConfig config = ClientConfig::ForTests("b");
  config.read_delegations = false;
  config.lease_options.managers = {"pre-hint-manager"};
  auto b = Client::Create(cluster->store(), cluster->fabric(), config).value();

  constexpr int kStats = 5;
  const std::uint64_t before = b->stats().lease_redirects;
  for (int i = 0; i < kStats; ++i) ASSERT_TRUE(b->Stat("/d/a0", root).ok());
  // At least one redirect per op for /d ("/" is A's too).
  EXPECT_GE(b->stats().lease_redirects - before,
            static_cast<std::uint64_t>(kStats));
  ASSERT_TRUE(b->Shutdown().ok());
}

}  // namespace
}  // namespace arkfs
