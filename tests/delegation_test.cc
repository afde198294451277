// Read-delegation tests: a non-leader serving stat/lookup/readdir for a hot
// directory from a locally cached metatable slice, with watermark-driven
// refetch and fence-token invalidation (DESIGN.md §4.5).
#include <gtest/gtest.h>

#include <string>

#include "core/cluster.h"
#include "objstore/memory_store.h"

namespace arkfs {
namespace {

class DelegationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_shared<MemoryObjectStore>();
    cluster_ =
        ArkFsCluster::Create(store_, ArkFsClusterOptions::ForTests()).value();
    c1_ = cluster_->AddClient("c1").value();
    c2_ = cluster_->AddClient("c2").value();
  }

  // c1 becomes leader of /hot with `files` small files in it.
  void SeedHotDir(int files) {
    ASSERT_TRUE(c1_->Mkdir("/hot", 0755, root_).ok());
    for (int i = 0; i < files; ++i) {
      ASSERT_TRUE(
          c1_->WriteFileAt("/hot/f" + std::to_string(i), AsBytes("aa"), root_)
              .ok());
    }
  }

  ObjectStorePtr store_;
  std::unique_ptr<ArkFsCluster> cluster_;
  std::shared_ptr<Client> c1_, c2_;
  UserCred root_ = UserCred::Root();
};

TEST_F(DelegationTest, HotDirStatsServeLocallyWithoutForwarding) {
  constexpr int kFiles = 20;
  SeedHotDir(kFiles);

  // Warm pass: the first delegable op adopts the delegation from the lease
  // redirect and pulls the slice from c1.
  const auto redirects_before = c2_->stats().lease_redirects;
  for (int i = 0; i < kFiles; ++i) {
    auto st = c2_->Stat("/hot/f" + std::to_string(i), root_);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st->size, 2u);
  }
  ASSERT_GT(c2_->stats().stat_delegated, 0u);
  ASSERT_GT(c2_->stats().deleg_refetches, 0u);
  // One manager redirect per directory ("/" and /hot); the leader hint
  // routes every later op.
  const auto redirects_warm = c2_->stats().lease_redirects;
  EXPECT_EQ(redirects_warm, redirects_before + 2);

  // Steady state: every stat and readdir is served from the cached slice —
  // zero DirOp forwards to the leader, and zero lease manager calls.
  const auto fwd_before = c2_->stats().forwarded_ops;
  const auto deleg_before = c2_->stats().stat_delegated;
  const auto leader_served_before = c1_->stats().served_remote_ops;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < kFiles; ++i) {
      auto st = c2_->Stat("/hot/f" + std::to_string(i), root_);
      ASSERT_TRUE(st.ok());
      EXPECT_EQ(st->size, 2u);
    }
    auto entries = c2_->ReadDir("/hot", root_);
    ASSERT_TRUE(entries.ok());
    EXPECT_EQ(entries->size(), static_cast<std::size_t>(kFiles));
  }
  EXPECT_EQ(c2_->stats().forwarded_ops, fwd_before);
  EXPECT_GE(c2_->stats().stat_delegated, deleg_before + 10 * kFiles);
  // The leader did not see any of those reads: zero fabric round trips.
  EXPECT_EQ(c1_->stats().served_remote_ops, leader_served_before);
  EXPECT_EQ(c2_->stats().lease_redirects, redirects_warm);
}

TEST_F(DelegationTest, NewNamesVisibleImmediatelyDespiteDelegation) {
  SeedHotDir(4);
  ASSERT_TRUE(c2_->Stat("/hot/f0", root_).ok());  // slice cached

  // A name the slice has never heard of must resolve right away: negative
  // lookups are never served from the slice, they forward and get the
  // leader's authoritative answer.
  ASSERT_TRUE(c1_->WriteFileAt("/hot/brand_new", AsBytes("xyz"), root_).ok());
  auto st = c2_->Stat("/hot/brand_new", root_);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 3u);
}

TEST_F(DelegationTest, WatermarkAdvanceRefetchesSlice) {
  SeedHotDir(4);
  ASSERT_TRUE(c2_->Stat("/hot/f0", root_).ok());
  ASSERT_GT(c2_->stats().stat_delegated, 0u);

  // c1 mutates f0; c2 then performs its own forwarded mutation, whose reply
  // is stamped with the advanced watermark — read-your-own-writes: from this
  // point c2 knows its slice is behind.
  ASSERT_TRUE(
      c1_->WriteFileAt("/hot/f0", AsBytes("longer-v2"), root_).ok());
  ASSERT_TRUE(c2_->WriteFileAt("/hot/mine", AsBytes("m"), root_).ok());

  // While the slice is behind and the dir looks like it may still be
  // churning, reads forward — and forwarding is authoritative, so the new
  // size is visible immediately. This forwarded reply is also the second
  // observation of the now-stable watermark.
  SleepFor(Millis(10));
  auto first = c2_->Stat("/hot/f0", root_);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->size, 9u);

  // Two same-watermark observations >= the quiet window (5 ms) apart told
  // c2 the write burst ended: the next delegated op refetches immediately,
  // ignoring the churn backoff, and serving returns to the local slice.
  const auto refetches_before = c2_->stats().deleg_refetches;
  const auto delegated_before = c2_->stats().stat_delegated;
  auto st = c2_->Stat("/hot/f0", root_);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 9u);  // the refetched slice carries the new inode
  EXPECT_GT(c2_->stats().deleg_refetches, refetches_before);
  EXPECT_GT(c2_->stats().stat_delegated, delegated_before);
}

TEST_F(DelegationTest, LeadershipChangeInvalidatesDelegation) {
  SeedHotDir(4);
  ASSERT_TRUE(c2_->Stat("/hot/f0", root_).ok());
  ASSERT_GT(c2_->stats().stat_delegated, 0u);
  const auto invalidations_before = c2_->stats().deleg_invalidations;

  // Let c1's lease lapse and have a third client take over /hot: the new
  // tenure has a different fence token, so c2's delegation (granted under
  // c1's token) is void the moment c2 re-acquires.
  auto c3 = cluster_->AddClient("c3").value();
  SleepFor(cluster_->lease_manager().config().lease_period + Millis(100));
  ASSERT_TRUE(c3->WriteFileAt("/hot/late", AsBytes("zz"), root_).ok());

  auto st = c2_->Stat("/hot/f0", root_);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 2u);
  EXPECT_GT(c2_->stats().deleg_invalidations, invalidations_before);

  // And the fresh delegation under c3's tenure serves the post-handoff
  // truth, including the file created after the takeover.
  auto entries = c2_->ReadDir("/hot", root_);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 5u);
  const auto delegated_before = c2_->stats().stat_delegated;
  ASSERT_TRUE(c2_->Stat("/hot/late", root_).ok());
  EXPECT_GT(c2_->stats().stat_delegated, delegated_before);
}

TEST(DelegationPermissionTest, ChecksEnforcedOnDelegatedServe) {
  // Permission cache off: every access decision must come from the leader
  // or, on a delegate, from the slice's directory inode — the path under
  // test here.
  auto store = std::make_shared<MemoryObjectStore>();
  auto opts = ArkFsClusterOptions::ForTests();
  opts.client_template.permission_cache = false;
  auto cluster = ArkFsCluster::Create(store, opts).value();
  auto c1_ = cluster->AddClient("c1").value();
  auto c2_ = cluster->AddClient("c2").value();
  const UserCred root_ = UserCred::Root();

  ASSERT_TRUE(c1_->Mkdir("/hot", 0755, root_).ok());
  ASSERT_TRUE(c1_->WriteFileAt("/hot/f0", AsBytes("aa"), root_).ok());
  ASSERT_TRUE(c1_->WriteFileAt("/hot/f1", AsBytes("aa"), root_).ok());
  // Lock the directory down to owner-only after c2 cached a slice; the
  // refetched slice carries the new mode and the delegate must enforce it
  // for a non-owner exactly as the leader would.
  ASSERT_TRUE(c2_->Stat("/hot/f0", root_).ok());
  ASSERT_TRUE(c1_->Chmod("/hot", 0700, root_).ok());
  // A forwarded op inside /hot lets c2 observe the advanced watermark; a
  // second forwarded read past the quiet window confirms the churn ended,
  // so the delegated op after it refetches the slice — which now carries
  // the 0700 mode.
  ASSERT_TRUE(c2_->WriteFileAt("/hot/observed", AsBytes("s"), root_).ok());
  SleepFor(Millis(10));
  ASSERT_TRUE(c2_->Stat("/hot/f1", root_).ok());
  UserCred alice;
  alice.uid = 1001;
  alice.gid = 1001;
  const auto delegated_before = c2_->stats().stat_delegated;
  auto st = c2_->Stat("/hot/f0", alice);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), Errc::kAccess);
  // The denial came from the delegate's own access check, not the leader.
  EXPECT_GT(c2_->stats().stat_delegated, delegated_before);
}

TEST_F(DelegationTest, IntrospectExposesDelegationCacheState) {
  SeedHotDir(3);
  ASSERT_TRUE(c2_->Stat("/hot/f0", root_).ok());

  const auto report = c2_->Introspect();
  EXPECT_NE(report.delegations_text.find("delegations held:"),
            std::string::npos);
  EXPECT_NE(report.delegations_text.find("dir "), std::string::npos);
  EXPECT_NE(report.delegations_text.find("deleg hits="), std::string::npos);
  EXPECT_NE(report.delegations_text.find("stat local="), std::string::npos);

  // A client holding no delegations reports an empty cache but still the
  // counter lines.
  const auto leader_report = c1_->Introspect();
  EXPECT_NE(leader_report.delegations_text.find("delegations held: 0"),
            std::string::npos);
}

}  // namespace
}  // namespace arkfs
