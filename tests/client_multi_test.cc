// Multi-client tests: forwarding to directory leaders, lease handoff,
// shared-file read/write leases, permission caching.
#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "objstore/memory_store.h"

namespace arkfs {
namespace {

class MultiClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_shared<MemoryObjectStore>();
    cluster_ =
        ArkFsCluster::Create(store_, ArkFsClusterOptions::ForTests()).value();
    c1_ = cluster_->AddClient("c1").value();
    c2_ = cluster_->AddClient("c2").value();
  }

  ObjectStorePtr store_;
  std::unique_ptr<ArkFsCluster> cluster_;
  std::shared_ptr<Client> c1_, c2_;
  UserCred root_ = UserCred::Root();
};

TEST_F(MultiClientTest, SecondClientSeesFirstClientsFiles) {
  ASSERT_TRUE(c1_->WriteFileAt("/shared.txt", AsBytes("from-c1"), root_).ok());
  // c2 must see it immediately (the leader serves from its metatable even
  // though nothing is checkpointed yet).
  auto data = c2_->ReadWholeFile("/shared.txt", root_);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ToString(*data), "from-c1");
  EXPECT_GT(c2_->stats().forwarded_ops, 0u);
  EXPECT_GT(c1_->stats().served_remote_ops, 0u);
}

TEST_F(MultiClientTest, CreateForwardedToLeader) {
  // c1 becomes leader of root; c2's create is served by c1.
  ASSERT_TRUE(c1_->Mkdir("/by_c1", 0755, root_).ok());
  ASSERT_TRUE(c2_->WriteFileAt("/by_c2.txt", AsBytes("x"), root_).ok());
  EXPECT_TRUE(c1_->Stat("/by_c2.txt", root_).ok());
  auto entries = c1_->ReadDir("/", root_);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
}

TEST_F(MultiClientTest, NonOverlappingDirectoriesNoForwarding) {
  // The paper's controlled environment: each client works in its own dir.
  ASSERT_TRUE(c1_->Mkdir("/dir1", 0755, root_).ok());
  ASSERT_TRUE(c2_->Mkdir("/dir2", 0755, root_).ok());
  const auto fwd1_before = c1_->stats().forwarded_ops;
  const auto fwd2_before = c2_->stats().forwarded_ops;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        c1_->WriteFileAt("/dir1/f" + std::to_string(i), AsBytes("1"), root_).ok());
    ASSERT_TRUE(
        c2_->WriteFileAt("/dir2/f" + std::to_string(i), AsBytes("2"), root_).ok());
  }
  // c1 leads /dir1 and c2 leads /dir2: per-file operations are local. Only
  // path resolution in / may forward (and the permission cache kills most
  // of that).
  const auto fwd1 = c1_->stats().forwarded_ops - fwd1_before;
  const auto fwd2 = c2_->stats().forwarded_ops - fwd2_before;
  EXPECT_LT(fwd1 + fwd2, 100u);
  EXPECT_GT(c1_->stats().local_meta_ops, 40u);
  EXPECT_GT(c2_->stats().local_meta_ops, 40u);
}

TEST_F(MultiClientTest, LeaseHandoffAfterExpiry) {
  ASSERT_TRUE(c1_->Mkdir("/handoff", 0755, root_).ok());
  ASSERT_TRUE(c1_->WriteFileAt("/handoff/f1", AsBytes("a"), root_).ok());
  // Wait out c1's lease so c2 can take leadership of /handoff.
  SleepFor(cluster_->lease_manager().config().lease_period + Millis(100));
  ASSERT_TRUE(c2_->WriteFileAt("/handoff/f2", AsBytes("b"), root_).ok());
  auto entries = c2_->ReadDir("/handoff", root_);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);  // the handoff preserved f1
  EXPECT_EQ(ToString(*c2_->ReadWholeFile("/handoff/f1", root_)), "a");
}

// A leader that is quiet locally must keep its lease alive while it serves
// forwarded ops. Without renewal on the serving path, its own view of the
// term runs out first and it turns every forward away with kAgain "lease
// expired" until the manager's copy of the lease lapses as well.
TEST(LeaderLeaseRenewalTest, IdleLeaderRenewsWhileServingForwards) {
  ArkFsClusterOptions options = ArkFsClusterOptions::ForTests();
  options.client_template.op_retries = 1;  // any kAgain fails the op
  options.client_template.read_delegations = false;  // stats forward too
  auto cluster =
      ArkFsCluster::Create(std::make_shared<MemoryObjectStore>(), options)
          .value();
  auto a = cluster->AddClient("a").value();
  auto b = cluster->AddClient("b").value();
  const UserCred root = UserCred::Root();
  const Nanos term = options.lease.lease_period;

  // A leads /d and stays busy past its renewal point, so the manager's copy
  // of the lease runs ahead of the term A started with. Then A goes idle.
  ASSERT_TRUE(a->Mkdir("/d", 0755, root).ok());
  const TimePoint busy_until = Now() + term * 9 / 10;
  for (int i = 0; Now() < busy_until; ++i) {
    ASSERT_TRUE(
        a->WriteFileAt("/d/a" + std::to_string(i), AsBytes("a"), root).ok());
    SleepFor(Millis(5));
  }

  const std::uint64_t served_before = a->stats().served_remote_ops;
  const std::uint64_t forwarded_before = b->stats().forwarded_ops;
  const TimePoint end = Now() + 3 * term;
  int ops = 0;
  for (int i = 0; Now() < end; ++i) {
    const std::string path = "/d/b" + std::to_string(i);
    ASSERT_TRUE(b->WriteFileAt(path, AsBytes("b"), root).ok()) << path;
    ASSERT_TRUE(b->Stat(path, root).ok()) << path;
    ops += 2;
    SleepFor(Millis(2));
  }
  EXPECT_GT(ops, 20);
  EXPECT_GT(a->stats().served_remote_ops, served_before);
  // A led /d throughout: every create and stat B issued there was forwarded.
  EXPECT_GE(b->stats().forwarded_ops - forwarded_before,
            static_cast<std::uint64_t>(ops));
}

// A clean unmount flushes and then releases every lease with its own token,
// so the node that mounts next must not read its now unreachable predecessor
// as crashed: no recovery, and so no recovery_wait per directory level.
TEST(CleanHandoffTest, CleanUnmountHandoffSkipsRecovery) {
  ArkFsClusterOptions options = ArkFsClusterOptions::ForTests();
  options.lease.recovery_wait = Seconds(2);
  auto cluster =
      ArkFsCluster::Create(std::make_shared<MemoryObjectStore>(), options)
          .value();
  const UserCred root = UserCred::Root();

  auto a = cluster->AddClient("a").value();
  ASSERT_TRUE(a->MkdirAll("/a/b/c", 0755, root).ok());
  std::map<std::string, std::string> files;
  for (const std::string dir : {"/a", "/a/b", "/a/b/c"}) {
    for (int i = 0; i < 4; ++i) {
      const std::string path = dir + "/f" + std::to_string(i);
      files[path] = std::string(100 + 37 * i, 'x') + path;
      ASSERT_TRUE(a->WriteFileAt(path, AsBytes(files[path]), root).ok());
    }
  }
  ASSERT_TRUE(a->SyncAll().ok());
  ASSERT_TRUE(a->Shutdown().ok());

  auto b = cluster->AddClient("b").value();
  const TimePoint start = Now();
  std::map<std::string, std::string> seen;
  std::vector<std::string> pending{"/"};
  while (!pending.empty()) {
    const std::string dir = pending.back();
    pending.pop_back();
    auto entries = b->ReadDir(dir, root);
    ASSERT_TRUE(entries.ok()) << dir << ": " << entries.status().ToString();
    for (const Dentry& d : *entries) {
      const std::string path = (dir == "/" ? "" : dir) + "/" + d.name;
      if (d.type == FileType::kDirectory) {
        pending.push_back(path);
        continue;
      }
      auto data = b->ReadWholeFile(path, root);
      ASSERT_TRUE(data.ok()) << path << ": " << data.status().ToString();
      seen[path] = ToString(*data);
    }
  }
  EXPECT_LT(Now() - start, Seconds(1));
  EXPECT_EQ(b->stats().recoveries, 0u);
  EXPECT_EQ(seen, files);
}

// The companion case: a leader that vanishes without releasing, with an
// acked op still in its unflushed window, is recovered exactly as before.
TEST(CleanHandoffTest, CrashedPredecessorStillRecovers) {
  auto cluster = ArkFsCluster::Create(std::make_shared<MemoryObjectStore>(),
                                      ArkFsClusterOptions::ForTests())
                     .value();
  const UserCred root = UserCred::Root();
  auto a = cluster->AddClient("a").value();
  ASSERT_TRUE(a->MkdirAll("/a/b", 0755, root).ok());
  ASSERT_TRUE(a->WriteFileAt("/a/b/kept", AsBytes("durable"), root).ok());
  ASSERT_TRUE(a->SyncAll().ok());
  ASSERT_TRUE(a->Mkdir("/a/b/late", 0755, root).ok());  // acked, unflushed
  a->CrashHard();

  SleepFor(cluster->lease_manager().config().lease_period + Millis(100));
  auto b = cluster->AddClient("b").value();
  ASSERT_TRUE(b->ReadDir("/a/b", root).ok());
  auto kept = b->ReadWholeFile("/a/b/kept", root);
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_EQ(ToString(*kept), "durable");
  EXPECT_GT(b->stats().recoveries, 0u);
}

TEST_F(MultiClientTest, ConcurrentCreatesInSameDirectory) {
  ASSERT_TRUE(c1_->Mkdir("/contended", 0755, root_).ok());
  auto worker = [&](const std::shared_ptr<Client>& c, int base) {
    for (int i = 0; i < 25; ++i) {
      ASSERT_TRUE(c->WriteFileAt(
                       "/contended/f" + std::to_string(base + i),
                       AsBytes("v"), root_)
                      .ok());
    }
  };
  std::thread t1(worker, c1_, 0);
  std::thread t2(worker, c2_, 1000);
  t1.join();
  t2.join();
  auto entries = c1_->ReadDir("/contended", root_);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 50u);
}

TEST_F(MultiClientTest, ConcurrentCreatesInDistinctDirectories) {
  ASSERT_TRUE(c1_->Mkdir("/p1", 0755, root_).ok());
  ASSERT_TRUE(c2_->Mkdir("/p2", 0755, root_).ok());
  std::thread t1([&] {
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          c1_->WriteFileAt("/p1/f" + std::to_string(i), AsBytes("1"), root_).ok());
    }
  });
  std::thread t2([&] {
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          c2_->WriteFileAt("/p2/f" + std::to_string(i), AsBytes("2"), root_).ok());
    }
  });
  t1.join();
  t2.join();
  EXPECT_EQ(c1_->ReadDir("/p1", root_)->size(), 40u);
  EXPECT_EQ(c1_->ReadDir("/p2", root_)->size(), 40u);
}

TEST_F(MultiClientTest, WriterFlushMakesDataVisibleToSecondReader) {
  // c1 writes with a write lease (cached); c2 opening for read triggers the
  // leader's coordination so it never reads stale data.
  OpenOptions create;
  create.write = true;
  create.create = true;
  auto w = c1_->Open("/wfile", create, root_);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(c1_->Write(*w, 0, AsBytes("cached-write")).ok());
  ASSERT_TRUE(c1_->Fsync(*w).ok());

  auto data = c2_->ReadWholeFile("/wfile", root_);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ToString(*data), "cached-write");
  ASSERT_TRUE(c1_->Close(*w).ok());
}

TEST_F(MultiClientTest, ConcurrentWriterAndReaderForceDirectIo) {
  OpenOptions create;
  create.write = true;
  create.create = true;
  auto w = c1_->Open("/shared_rw", create, root_);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(c1_->Write(*w, 0, AsBytes("v1")).ok());  // upgrades to write lease

  // c2 opens for read while c1 holds the write lease: the leader broadcasts
  // a flush and everyone goes direct.
  OpenOptions read;
  auto r = c2_->Open("/shared_rw", read, root_);
  ASSERT_TRUE(r.ok());
  auto seen = c2_->Read(*r, 0, 10);
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(ToString(*seen), "v1");  // flushed by the broadcast

  // Subsequent writes are direct and visible after size commit.
  ASSERT_TRUE(c1_->Write(*w, 2, AsBytes("+direct")).ok());
  ASSERT_TRUE(c1_->Fsync(*w).ok());
  auto grown = c2_->ReadWholeFile("/shared_rw", root_);
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(ToString(*grown), "v1+direct");
  ASSERT_TRUE(c1_->Close(*w).ok());
  ASSERT_TRUE(c2_->Close(*r).ok());
}

TEST_F(MultiClientTest, PermissionChangeVisibleAfterPcacheTtl) {
  // pcache mode relaxes ACL visibility to the lease period (paper §III-C).
  UserCred alice{1000, 1000, {}};
  ASSERT_TRUE(c1_->Mkdir("/relaxed", 0755, root_).ok());
  ASSERT_TRUE(c2_->Stat("/relaxed", root_).ok());  // c2 caches perms
  ASSERT_TRUE(c1_->WriteFileAt("/relaxed/f", AsBytes("x"), root_).ok());
  ASSERT_TRUE(c2_->Stat("/relaxed/f", root_).ok());

  // Tighten the directory; c2 may still pass traversal checks from cache
  // until the TTL lapses, but must see the denial afterwards.
  ASSERT_TRUE(c1_->Chmod("/relaxed", 0700, root_).ok());
  SleepFor(c2_->config().perm_cache_ttl + Millis(50));
  EXPECT_EQ(c2_->Stat("/relaxed/f", alice).code(), Errc::kAccess);
}

TEST_F(MultiClientTest, ThirdClientJoinsLate) {
  ASSERT_TRUE(c1_->MkdirAll("/a/b", 0755, root_).ok());
  ASSERT_TRUE(c2_->WriteFileAt("/a/b/f", AsBytes("zzz"), root_).ok());
  auto c3 = cluster_->AddClient("c3").value();
  EXPECT_EQ(ToString(*c3->ReadWholeFile("/a/b/f", root_)), "zzz");
  ASSERT_TRUE(c3->Unlink("/a/b/f", root_).ok());
  EXPECT_EQ(c1_->Stat("/a/b/f", root_).code(), Errc::kNoEnt);
}

TEST_F(MultiClientTest, RemoteRenameWithinLeaderDirectory) {
  ASSERT_TRUE(c1_->Mkdir("/rn", 0755, root_).ok());
  ASSERT_TRUE(c1_->WriteFileAt("/rn/x", AsBytes("X"), root_).ok());
  // c2 renames within a directory led by c1 -> forwarded kRenameLocal.
  ASSERT_TRUE(c2_->Rename("/rn/x", "/rn/y", root_).ok());
  EXPECT_EQ(c1_->Stat("/rn/x", root_).code(), Errc::kNoEnt);
  EXPECT_EQ(ToString(*c1_->ReadWholeFile("/rn/y", root_)), "X");
}

}  // namespace
}  // namespace arkfs
