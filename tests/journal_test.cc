// Tests for journal records, framing, the journal manager, 2PC and recovery.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "journal/journal.h"
#include "journal/record.h"
#include "objstore/chaos_store.h"
#include "objstore/memory_store.h"
#include "objstore/wrappers.h"

namespace arkfs::journal {
namespace {

Inode TestInode(std::uint64_t n, Uuid parent = kRootIno) {
  Inode i = MakeInode(DeterministicUuid(100, n), FileType::kRegular, 0644, 1,
                      1, parent);
  i.size = n * 10;
  return i;
}

TEST(RecordTest, AllTypesRoundTrip) {
  std::vector<Record> records;
  records.push_back(Record::InodeUpsert(TestInode(1)));
  records.push_back(Record::InodeRemove(DeterministicUuid(1, 2), 4096, 1024));
  records.push_back(
      Record::DentryAdd({"name.txt", DeterministicUuid(1, 3), FileType::kRegular}));
  records.push_back(Record::DentryRemove("gone.txt"));
  records.push_back(Record::DirRemove(DeterministicUuid(1, 4)));
  records.push_back(
      Record::Prepare(DeterministicUuid(1, 5), DeterministicUuid(1, 6)));
  records.push_back(Record::Decision(DeterministicUuid(1, 5), true));

  Encoder enc;
  for (const auto& r : records) r.EncodeTo(enc);
  Decoder dec(enc.buffer());
  for (const auto& expected : records) {
    auto got = Record::DecodeFrom(dec);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->type, expected.type);
  }
  EXPECT_TRUE(dec.done());
}

TEST(RecordTest, TransactionFramingRoundTrip) {
  Transaction txn;
  txn.seq = 42;
  txn.records.push_back(Record::DentryRemove("x"));
  txn.records.push_back(Record::InodeUpsert(TestInode(7)));

  const Bytes framed = EncodeTransaction(txn);
  auto parsed = ParseJournal(framed);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].seq, 42u);
  EXPECT_EQ(parsed[0].records.size(), 2u);
}

TEST(RecordTest, TornTailIsDiscarded) {
  Transaction a;
  a.seq = 1;
  a.records.push_back(Record::DentryRemove("a"));
  Transaction b;
  b.seq = 2;
  b.records.push_back(Record::DentryRemove("b"));

  Bytes journal = EncodeTransaction(a);
  Bytes second = EncodeTransaction(b);
  // Simulate a crash mid-append: only half of txn b made it.
  journal.insert(journal.end(), second.begin(),
                 second.begin() + second.size() / 2);
  auto parsed = ParseJournal(journal);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].seq, 1u);
}

TEST(RecordTest, CorruptPayloadIsDiscarded) {
  Transaction a;
  a.seq = 1;
  a.records.push_back(Record::DentryRemove("victim"));
  Bytes journal = EncodeTransaction(a);
  journal[journal.size() / 2] ^= 0xFF;  // flip a payload bit
  EXPECT_TRUE(ParseJournal(journal).empty());
}

TEST(RecordTest, EmptyJournalParsesEmpty) {
  EXPECT_TRUE(ParseJournal({}).empty());
  Bytes garbage{1, 2, 3, 4, 5};
  EXPECT_TRUE(ParseJournal(garbage).empty());
}

// A v1 frame exactly as the pre-fencing encoder wrote it: "AKJT" magic,
// seq + len + payload, CRC over seq/len/payload — no fence token fields.
Bytes EncodeLegacyV1Transaction(const Transaction& txn) {
  Encoder payload(256);
  payload.PutVarint(txn.records.size());
  for (const auto& r : txn.records) r.EncodeTo(payload);

  Encoder framed(payload.size() + 24);
  framed.PutU32(kTxnMagicV1);
  framed.PutU64(txn.seq);
  framed.PutU32(static_cast<std::uint32_t>(payload.size()));
  framed.PutRaw(payload.buffer());
  Encoder crc_input(payload.size() + 16);
  crc_input.PutU64(txn.seq);
  crc_input.PutU32(static_cast<std::uint32_t>(payload.size()));
  crc_input.PutRaw(payload.buffer());
  framed.PutU32(Crc32c(crc_input.buffer()));
  return std::move(framed).Take();
}

TEST(RecordTest, LegacyV1FramesParseAsUnfenced) {
  // A journal written before the fence token grew the frame header must
  // replay losslessly — acked pre-upgrade transactions are not torn tails.
  Transaction txn;
  txn.seq = 7;
  txn.records.push_back(Record::DentryRemove("pre-upgrade"));
  txn.records.push_back(Record::InodeUpsert(TestInode(3)));

  auto parsed = ParseJournal(EncodeLegacyV1Transaction(txn));
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].seq, 7u);
  EXPECT_EQ(parsed[0].records.size(), 2u);
  // Epoch 0 = legacy/unfenced, same convention as missing fence objects.
  EXPECT_FALSE(parsed[0].fence.valid());
}

TEST(RecordTest, MixedV1ThenV2JournalParses) {
  // An upgraded node appends fenced v2 frames after the legacy tail.
  Transaction old_txn;
  old_txn.seq = 1;
  old_txn.records.push_back(Record::DentryRemove("old"));
  Transaction new_txn;
  new_txn.seq = 2;
  new_txn.fence = FenceToken{3, 9};
  new_txn.records.push_back(Record::DentryRemove("new"));

  Bytes journal = EncodeLegacyV1Transaction(old_txn);
  const Bytes fenced = EncodeTransaction(new_txn);
  journal.insert(journal.end(), fenced.begin(), fenced.end());

  auto parsed = ParseJournal(journal);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].seq, 1u);
  EXPECT_FALSE(parsed[0].fence.valid());
  EXPECT_EQ(parsed[1].seq, 2u);
  EXPECT_EQ(parsed[1].fence, (FenceToken{3, 9}));
}

TEST(RecordTest, TornLegacyV1TailIsDiscarded) {
  Transaction a;
  a.seq = 1;
  a.records.push_back(Record::DentryRemove("kept"));
  Transaction b;
  b.seq = 2;
  b.records.push_back(Record::DentryRemove("torn"));

  Bytes journal = EncodeLegacyV1Transaction(a);
  const Bytes second = EncodeLegacyV1Transaction(b);
  journal.insert(journal.end(), second.begin(),
                 second.begin() + second.size() / 2);
  auto parsed = ParseJournal(journal);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].seq, 1u);
}

class JournalManagerTest : public ::testing::Test {
 protected:
  JournalManagerTest()
      : store_(std::make_shared<MemoryObjectStore>()),
        prt_(std::make_shared<Prt>(store_)),
        manager_(std::make_unique<JournalManager>(prt_,
                                                  JournalConfig::ForTests())) {
    dir_ = DeterministicUuid(7, 7);
    Inode dir_inode =
        MakeInode(dir_, FileType::kDirectory, 0755, 0, 0, kRootIno);
    EXPECT_TRUE(prt_->StoreInode(dir_inode).ok());
    manager_->RegisterDir(dir_);
  }

  ObjectStorePtr store_;
  std::shared_ptr<Prt> prt_;
  std::unique_ptr<JournalManager> manager_;
  Uuid dir_;
};

TEST_F(JournalManagerTest, FlushCheckpointsToAuthoritativeObjects) {
  Inode child = TestInode(1, dir_);
  (void)manager_->Append(dir_, {Record::InodeUpsert(child),
                          Record::DentryAdd({"a", child.ino,
                                             FileType::kRegular})});
  ASSERT_TRUE(manager_->FlushDir(dir_).ok());

  auto inode = prt_->LoadInode(child.ino);
  ASSERT_TRUE(inode.ok());
  EXPECT_EQ(inode->size, child.size);
  auto block = prt_->LoadDentries(dir_);
  ASSERT_TRUE(block.ok());
  ASSERT_EQ(block->size(), 1u);
  EXPECT_EQ((*block)[0].name, "a");
  // Checkpoint invalidated the journal.
  EXPECT_FALSE(manager_->HasSurvivingJournal(dir_));
  EXPECT_EQ(manager_->metrics().transactions_checkpointed.value(), 1u);
}

TEST_F(JournalManagerTest, BackgroundCommitEventuallyHappens) {
  (void)manager_->Append(dir_, {Record::DentryAdd(
                             {"bg", DeterministicUuid(9, 9),
                              FileType::kRegular})});
  // Commit interval in ForTests() is 20 ms; wait for the background pass.
  for (int i = 0; i < 100 && manager_->metrics().transactions_committed.value() == 0;
       ++i) {
    SleepFor(Millis(10));
  }
  EXPECT_GE(manager_->metrics().transactions_committed.value(), 1u);
}

TEST_F(JournalManagerTest, CommitWithoutCheckpointLeavesJournal) {
  (void)manager_->Append(dir_, {Record::DentryAdd(
                             {"pending", DeterministicUuid(3, 3),
                              FileType::kRegular})});
  ASSERT_TRUE(manager_->CommitDir(dir_).ok());
  EXPECT_TRUE(manager_->HasSurvivingJournal(dir_));
}

TEST_F(JournalManagerTest, RecoveryReplaysCommittedTransactions) {
  Inode child = TestInode(2, dir_);
  (void)manager_->Append(dir_, {Record::InodeUpsert(child),
                          Record::DentryAdd({"crashy", child.ino,
                                             FileType::kRegular})});
  ASSERT_TRUE(manager_->CommitDir(dir_).ok());
  // Simulate crash: new manager (new client) over the same store.
  auto fresh = std::make_unique<JournalManager>(prt_, JournalConfig::ForTests());
  ASSERT_TRUE(fresh->HasSurvivingJournal(dir_));
  auto report = fresh->RecoverDir(dir_);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->transactions_replayed, 1u);
  EXPECT_EQ(report->transactions_aborted, 0u);

  auto inode = prt_->LoadInode(child.ino);
  ASSERT_TRUE(inode.ok());
  auto block = prt_->LoadDentries(dir_);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ((*block)[0].name, "crashy");
  EXPECT_FALSE(fresh->HasSurvivingJournal(dir_));
}

TEST_F(JournalManagerTest, RecoveryOfUnjournaledDirIsNoop) {
  auto report = manager_->RecoverDir(DeterministicUuid(55, 55));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->transactions_replayed, 0u);
}

TEST_F(JournalManagerTest, InodeRemoveDropsDataChunks) {
  Inode child = TestInode(3, dir_);
  const std::uint64_t chunk = prt_->chunk_size();
  ASSERT_TRUE(prt_->WriteData(child.ino, 0, Bytes(chunk * 2, 1)).ok());
  ASSERT_TRUE(prt_->StoreInode(child).ok());

  (void)manager_->Append(dir_, {Record::InodeRemove(child.ino, chunk * 2, chunk)});
  ASSERT_TRUE(manager_->FlushDir(dir_).ok());
  EXPECT_EQ(prt_->LoadInode(child.ino).code(), Errc::kNoEnt);
  EXPECT_EQ(store_->Head(DataKey(child.ino, 0)).code(), Errc::kNoEnt);
  EXPECT_EQ(store_->Head(DataKey(child.ino, 1)).code(), Errc::kNoEnt);
}

TEST_F(JournalManagerTest, UnregisterFlushesAndDeletesJournal) {
  (void)manager_->Append(dir_, {Record::DentryAdd(
                             {"final", DeterministicUuid(4, 4),
                              FileType::kRegular})});
  ASSERT_TRUE(manager_->UnregisterDir(dir_).ok());
  EXPECT_EQ(store_->Head(JournalKey(dir_)).code(), Errc::kNoEnt);
  auto block = prt_->LoadDentries(dir_);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block->size(), 1u);
}

// --- two-phase commit across directories ---

class CrossDirTest : public JournalManagerTest {
 protected:
  CrossDirTest() {
    dst_ = DeterministicUuid(8, 8);
    Inode dst_inode =
        MakeInode(dst_, FileType::kDirectory, 0755, 0, 0, kRootIno);
    EXPECT_TRUE(prt_->StoreInode(dst_inode).ok());
    manager_->RegisterDir(dst_);
    moved_ = TestInode(10, dir_);
    EXPECT_TRUE(prt_->StoreInode(moved_).ok());
    // Source starts with the dentry present.
    EXPECT_TRUE(prt_->StoreDentryBlock(
                    dir_, {{"moved", moved_.ino, FileType::kRegular}})
                    .ok());
  }

  std::vector<Record> SrcRecords() {
    return {Record::DentryRemove("moved")};
  }
  std::vector<Record> DstRecords() {
    Inode updated = moved_;
    updated.parent = dst_;
    return {Record::DentryAdd({"arrived", moved_.ino, FileType::kRegular}),
            Record::InodeUpsert(updated)};
  }

  Uuid dst_;
  Inode moved_;
};

TEST_F(CrossDirTest, CommittedRenameApplies) {
  ASSERT_TRUE(
      manager_->CommitCrossDir(dir_, SrcRecords(), dst_, DstRecords()).ok());
  ASSERT_TRUE(manager_->FlushDir(dir_).ok());
  ASSERT_TRUE(manager_->FlushDir(dst_).ok());

  EXPECT_TRUE(prt_->LoadDentries(dir_)->empty());
  auto dst_block = prt_->LoadDentries(dst_);
  ASSERT_EQ(dst_block->size(), 1u);
  EXPECT_EQ((*dst_block)[0].name, "arrived");
  EXPECT_EQ(prt_->LoadInode(moved_.ino)->parent, dst_);
}

TEST_F(CrossDirTest, RecoveryCommitsWhenBothDecisionsPresent) {
  ASSERT_TRUE(
      manager_->CommitCrossDir(dir_, SrcRecords(), dst_, DstRecords()).ok());
  // Crash before any checkpoint: replay both journals with a fresh manager.
  auto fresh = std::make_unique<JournalManager>(prt_, JournalConfig::ForTests());
  ASSERT_TRUE(fresh->RecoverDir(dir_).ok());
  ASSERT_TRUE(fresh->RecoverDir(dst_).ok());
  EXPECT_TRUE(prt_->LoadDentries(dir_)->empty());
  EXPECT_EQ(prt_->LoadDentries(dst_)->size(), 1u);
}

TEST_F(CrossDirTest, DanglingPrepareWithoutAnyDecisionAborts) {
  // Hand-craft the crash window: prepares are durable in both journals but
  // no decision was written anywhere (crash between phase 1 and phase 2).
  const Uuid txid = DeterministicUuid(77, 1);
  Transaction src_prep;
  src_prep.seq = 1;
  src_prep.records.push_back(Record::Prepare(txid, dst_));
  for (auto& r : SrcRecords()) src_prep.records.push_back(r);
  Transaction dst_prep;
  dst_prep.seq = 1;
  dst_prep.records.push_back(Record::Prepare(txid, dir_));
  for (auto& r : DstRecords()) dst_prep.records.push_back(r);
  ASSERT_TRUE(prt_->StoreJournal(dir_, EncodeTransaction(src_prep)).ok());
  ASSERT_TRUE(prt_->StoreJournal(dst_, EncodeTransaction(dst_prep)).ok());

  auto fresh = std::make_unique<JournalManager>(prt_, JournalConfig::ForTests());
  auto src_report = fresh->RecoverDir(dir_);
  ASSERT_TRUE(src_report.ok());
  EXPECT_EQ(src_report->transactions_aborted, 1u);
  auto dst_report = fresh->RecoverDir(dst_);
  ASSERT_TRUE(dst_report.ok());
  EXPECT_EQ(dst_report->transactions_aborted, 1u);

  // Presumed abort: the file stays in the source directory.
  EXPECT_EQ(prt_->LoadDentries(dir_)->size(), 1u);
  EXPECT_TRUE(prt_->LoadDentries(dst_)->empty());
}

TEST_F(CrossDirTest, PrepareWithPeerDecisionCommits) {
  // Crash after the decision reached only the destination journal; the
  // source recovery must consult the peer and commit.
  const Uuid txid = DeterministicUuid(77, 2);
  Transaction src_prep;
  src_prep.seq = 1;
  src_prep.records.push_back(Record::Prepare(txid, dst_));
  for (auto& r : SrcRecords()) src_prep.records.push_back(r);

  Transaction dst_prep;
  dst_prep.seq = 1;
  dst_prep.records.push_back(Record::Prepare(txid, dir_));
  for (auto& r : DstRecords()) dst_prep.records.push_back(r);
  Transaction dst_decision;
  dst_decision.seq = 2;
  dst_decision.records.push_back(Record::Decision(txid, true));

  ASSERT_TRUE(prt_->StoreJournal(dir_, EncodeTransaction(src_prep)).ok());
  Bytes dst_journal = EncodeTransaction(dst_prep);
  const Bytes decision_frame = EncodeTransaction(dst_decision);
  dst_journal.insert(dst_journal.end(), decision_frame.begin(),
                     decision_frame.end());
  ASSERT_TRUE(prt_->StoreJournal(dst_, dst_journal).ok());

  auto fresh = std::make_unique<JournalManager>(prt_, JournalConfig::ForTests());
  // Recover the source FIRST (it must look at the peer journal).
  auto src_report = fresh->RecoverDir(dir_);
  ASSERT_TRUE(src_report.ok());
  EXPECT_EQ(src_report->transactions_aborted, 0u);
  EXPECT_EQ(src_report->transactions_replayed, 1u);
  ASSERT_TRUE(fresh->RecoverDir(dst_).ok());

  EXPECT_TRUE(prt_->LoadDentries(dir_)->empty());
  EXPECT_EQ(prt_->LoadDentries(dst_)->size(), 1u);
}

TEST_F(CrossDirTest, SameDirRejected) {
  EXPECT_EQ(manager_->CommitCrossDir(dir_, {}, dir_, {}).code(), Errc::kInval);
}

// --- sharded dentry layout: policy, migration, dirty-shard checkpointing ---

TEST(ShardPolicyTest, ShardCountForGrowsByPowersOfTwo) {
  DentryShardPolicy p;  // target 4096 entries/shard, cap 64
  EXPECT_EQ(ShardCountFor(p, 0), 1u);
  EXPECT_EQ(ShardCountFor(p, 4096), 1u);
  EXPECT_EQ(ShardCountFor(p, 4097), 2u);
  EXPECT_EQ(ShardCountFor(p, 100000), 32u);
  EXPECT_EQ(ShardCountFor(p, 10000000), 64u);  // policy cap

  DentryShardPolicy odd;
  odd.max_shards = 48;  // non-pow2 cap rounds down
  EXPECT_EQ(ShardCountFor(odd, 10000000), 32u);

  DentryShardPolicy pinned;
  pinned.override_count = 5;  // override rounds up to a power of two
  EXPECT_EQ(ShardCountFor(pinned, 0), 8u);
  pinned.override_count = 16;
  EXPECT_EQ(ShardCountFor(pinned, 1), 16u);
}

class ShardedDentryTest : public ::testing::Test {
 protected:
  ShardedDentryTest()
      : base_(std::make_shared<MemoryObjectStore>()),
        counting_(std::make_shared<CountingStore>(base_)),
        prt_(std::make_shared<Prt>(counting_)) {}

  std::unique_ptr<JournalManager> MakeManager(DentryShardPolicy policy) {
    JournalConfig cfg = JournalConfig::ForTests();
    cfg.shard_policy = policy;
    return std::make_unique<JournalManager>(prt_, cfg);
  }

  Uuid NewDir(std::uint64_t n) {
    Uuid dir = DeterministicUuid(70, n);
    Inode di = MakeInode(dir, FileType::kDirectory, 0755, 0, 0, kRootIno);
    EXPECT_TRUE(prt_->StoreInode(di).ok());
    return dir;
  }

  static Record AddEntry(const std::string& name, std::uint64_t n) {
    return Record::DentryAdd(
        {name, DeterministicUuid(71, n), FileType::kRegular});
  }

  std::shared_ptr<MemoryObjectStore> base_;
  std::shared_ptr<CountingStore> counting_;
  std::shared_ptr<Prt> prt_;
};

TEST_F(ShardedDentryTest, LegacyBlockMigratesOnFirstCheckpoint) {
  const Uuid dir = NewDir(1);
  std::vector<Dentry> legacy;
  for (std::uint64_t i = 0; i < 10; ++i) {
    legacy.push_back({"old" + std::to_string(i), DeterministicUuid(72, i),
                      FileType::kRegular});
  }
  ASSERT_TRUE(prt_->StoreDentryBlock(dir, legacy).ok());

  DentryShardPolicy p;
  p.override_count = 4;
  auto mgr = MakeManager(p);
  mgr->RegisterDir(dir);
  (void)mgr->Append(dir, {AddEntry("fresh", 1)});
  ASSERT_TRUE(mgr->FlushDir(dir).ok());

  auto m = prt_->LoadDentryManifest(dir);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->shard_count, 4u);
  EXPECT_EQ(m->entry_count, 11u);
  // The legacy block is gone; nothing resurrects it.
  EXPECT_EQ(prt_->store().Head(DentryKey(dir)).code(), Errc::kNoEnt);
  auto all = prt_->LoadDentries(dir);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 11u);
  EXPECT_EQ(mgr->metrics().dentry_migrations.value(), 1u);
  EXPECT_EQ(mgr->metrics().dentry_shards_written.value(), 4u);  // all of gen B=4
}

TEST_F(ShardedDentryTest, CheckpointWritesOnlyDirtyShards) {
  const Uuid dir = NewDir(2);
  DentryShardPolicy p;
  p.override_count = 16;
  auto mgr = MakeManager(p);
  mgr->RegisterDir(dir);
  std::vector<Record> seed;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seed.push_back(AddEntry("f" + std::to_string(i), i));
  }
  (void)mgr->Append(dir, std::move(seed));
  ASSERT_TRUE(mgr->FlushDir(dir).ok());

  const std::uint64_t loaded_before = mgr->metrics().dentry_shards_loaded.value();
  const std::uint64_t written_before =
      mgr->metrics().dentry_shards_written.value();
  counting_->Reset();
  (void)mgr->Append(dir, {AddEntry("straggler", 5000)});
  ASSERT_TRUE(mgr->FlushDir(dir).ok());

  // A one-entry burst dirties exactly one of the 16 shards: one shard read,
  // one shard write — not a 1000-entry block rewrite.
  EXPECT_EQ(mgr->metrics().dentry_shards_loaded.value() - loaded_before, 1u);
  EXPECT_EQ(mgr->metrics().dentry_shards_written.value() - written_before, 1u);
  // Store traffic for the whole flush: journal append + one shard put +
  // manifest count update + journal trim.
  const auto c = counting_->Snapshot();
  EXPECT_LE(c.puts, 4u);
  auto m = prt_->LoadDentryManifest(dir);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->entry_count, 1001u);
}

TEST_F(ShardedDentryTest, ShardCountGrowsWithDirectory) {
  const Uuid dir = NewDir(3);
  DentryShardPolicy p;
  p.target_entries = 8;
  p.max_shards = 8;
  auto mgr = MakeManager(p);
  mgr->RegisterDir(dir);

  std::vector<Record> first;
  for (std::uint64_t i = 0; i < 4; ++i) {
    first.push_back(AddEntry("a" + std::to_string(i), i));
  }
  (void)mgr->Append(dir, std::move(first));
  ASSERT_TRUE(mgr->FlushDir(dir).ok());
  ASSERT_TRUE(prt_->LoadDentryManifest(dir).ok());
  EXPECT_EQ(prt_->LoadDentryManifest(dir)->shard_count, 1u);

  std::vector<Record> more;
  for (std::uint64_t i = 0; i < 30; ++i) {
    more.push_back(AddEntry("b" + std::to_string(i), 100 + i));
  }
  (void)mgr->Append(dir, std::move(more));
  ASSERT_TRUE(mgr->FlushDir(dir).ok());

  auto m = prt_->LoadDentryManifest(dir);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->shard_count, 8u);  // 34 entries at 8/shard -> 8-way
  EXPECT_EQ(m->entry_count, 34u);
  EXPECT_EQ(mgr->metrics().dentry_reshards.value(), 1u);
  // The old generation's objects (both slots) were dropped after the flip.
  EXPECT_EQ(prt_->store().Head(DentryShardKey(dir, 1, 0, 0)).code(),
            Errc::kNoEnt);
  EXPECT_EQ(prt_->store().Head(DentryShardKey(dir, 1, 0, 1)).code(),
            Errc::kNoEnt);
  auto all = prt_->LoadDentries(dir);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 34u);
}

TEST_F(ShardedDentryTest, CommitAndCheckpointLatenciesRecorded) {
  const Uuid dir = NewDir(4);
  auto mgr = MakeManager({});
  mgr->RegisterDir(dir);
  (void)mgr->Append(dir, {AddEntry("timed", 1)});
  ASSERT_TRUE(mgr->FlushDir(dir).ok());
  EXPECT_GE(mgr->latencies().For("commit").count(), 1u);
  EXPECT_GE(mgr->latencies().For("checkpoint").count(), 1u);
  EXPECT_NE(mgr->latencies().Table().find("checkpoint"), std::string::npos);
}

TEST_F(ShardedDentryTest, LegacyCrashRecoveryMigrates) {
  // A predecessor crashed after committing to the journal but before any
  // checkpoint, with the directory still on the legacy layout. The new
  // leader must replay from the legacy block AND migrate, losing nothing.
  const Uuid dir = NewDir(5);
  ASSERT_TRUE(prt_->StoreDentryBlock(
                  dir, {{"settled", DeterministicUuid(74, 1),
                         FileType::kRegular}})
                  .ok());
  DentryShardPolicy p;
  p.override_count = 4;
  auto crashed = MakeManager(p);
  crashed->RegisterDir(dir);
  (void)crashed->Append(dir, {AddEntry("acked", 2)});
  ASSERT_TRUE(crashed->CommitDir(dir).ok());  // durable, not checkpointed

  auto fresh = MakeManager(p);
  ASSERT_TRUE(fresh->HasSurvivingJournal(dir));
  auto report = fresh->RecoverDir(dir);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->transactions_replayed, 1u);
  EXPECT_EQ(fresh->metrics().dentry_migrations.value(), 1u);

  auto m = prt_->LoadDentryManifest(dir);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->shard_count, 4u);
  auto all = prt_->LoadDentries(dir);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 2u);
  EXPECT_FALSE(fresh->HasSurvivingJournal(dir));
}

TEST_F(ShardedDentryTest, TornMigrationRecovers) {
  // Chaos tears EVERY whole-object put: the migration's shard writes fail
  // and leave garbage prefixes, but the ordered manifest put never runs, so
  // the legacy layout stays authoritative and replay converges.
  const Uuid dir = NewDir(6);
  std::vector<Dentry> legacy;
  for (std::uint64_t i = 0; i < 8; ++i) {
    legacy.push_back({"keep" + std::to_string(i), DeterministicUuid(75, i),
                      FileType::kRegular});
  }
  ASSERT_TRUE(prt_->StoreDentryBlock(dir, legacy).ok());

  DentryShardPolicy p;
  p.override_count = 4;
  ChaosConfig torn;
  torn.seed = 42;
  torn.torn_put_rate = 1.0;
  auto chaos = std::make_shared<ChaosStore>(base_, torn);
  {
    auto chaos_prt = std::make_shared<Prt>(chaos);
    JournalConfig cfg = JournalConfig::ForTests();
    cfg.shard_policy = p;
    JournalManager victim(chaos_prt, cfg);
    victim.RegisterDir(dir);
    (void)victim.Append(dir, {AddEntry("acked", 1)});
    // The journal append goes through PutRange and commits fine...
    ASSERT_TRUE(victim.CommitDir(dir).ok());
    // ...but the checkpoint's whole-object shard puts all tear.
    EXPECT_FALSE(victim.FlushDir(dir).ok());
    EXPECT_GT(chaos->counters().torn_puts, 0u);
  }
  // Crash window: garbage at the new generation's shard keys, no manifest,
  // legacy block + journal intact.
  EXPECT_EQ(prt_->LoadDentryManifest(dir).code(), Errc::kNoEnt);
  ASSERT_TRUE(prt_->store().Head(DentryKey(dir)).ok());

  auto fresh = MakeManager(p);
  ASSERT_TRUE(fresh->HasSurvivingJournal(dir));
  ASSERT_TRUE(fresh->RecoverDir(dir).ok());
  auto all = prt_->LoadDentries(dir);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 9u);  // 8 settled + 1 acked, zero lost
  EXPECT_EQ(prt_->LoadDentryManifest(dir)->shard_count, 4u);
}

TEST_F(ShardedDentryTest, TornShardCheckpointRecovers) {
  // Same fault on an already-sharded directory: a dirty-shard checkpoint
  // tears mid-MultiPut, leaving undecodable shard objects behind a valid
  // manifest. Recovery must step over the garbage (the journal still holds
  // every acked op) and rebuild the shards.
  const Uuid dir = NewDir(7);
  ASSERT_TRUE(prt_->StoreDentryManifest(dir, {4, 0}).ok());
  DentryShardPolicy p;
  p.override_count = 4;
  auto chaos = std::make_shared<ChaosStore>(
      base_, [] {
        ChaosConfig c;
        c.seed = 7;
        c.torn_put_rate = 1.0;
        return c;
      }());
  {
    auto chaos_prt = std::make_shared<Prt>(chaos);
    JournalConfig cfg = JournalConfig::ForTests();
    cfg.shard_policy = p;
    JournalManager victim(chaos_prt, cfg);
    victim.RegisterDir(dir);
    std::vector<Record> recs;
    for (std::uint64_t i = 0; i < 20; ++i) {
      recs.push_back(AddEntry("acked" + std::to_string(i), i));
    }
    (void)victim.Append(dir, std::move(recs));
    ASSERT_TRUE(victim.CommitDir(dir).ok());
    EXPECT_FALSE(victim.FlushDir(dir).ok());
    EXPECT_GT(chaos->counters().torn_puts, 0u);
  }
  // The manifest was untouched (its put is ordered after the shard batch).
  ASSERT_TRUE(prt_->LoadDentryManifest(dir).ok());

  auto fresh = MakeManager(p);
  ASSERT_TRUE(fresh->HasSurvivingJournal(dir));
  auto report = fresh->RecoverDir(dir);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->transactions_replayed, 1u);
  auto all = prt_->LoadDentries(dir);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 20u);  // every acked op survived the torn writes
  EXPECT_EQ(prt_->LoadDentryManifest(dir)->entry_count, 20u);
  EXPECT_FALSE(fresh->HasSurvivingJournal(dir));
}

TEST_F(ShardedDentryTest, TornCheckpointNeverDamagesSettledEntries) {
  // The copy-on-write regression: entries settled by an earlier checkpoint
  // (and therefore TRIMMED from the journal) live only in the shard objects.
  // A later checkpoint of the same shards must not be able to destroy them —
  // the torn put lands in the inactive slot, the manifest never flips, and
  // both the crash window and recovery still read every settled entry.
  const Uuid dir = NewDir(30);
  DentryShardPolicy p;
  p.override_count = 4;
  {
    auto mgr = MakeManager(p);
    mgr->RegisterDir(dir);
    std::vector<Record> recs;
    for (std::uint64_t i = 0; i < 20; ++i) {
      recs.push_back(AddEntry("settled" + std::to_string(i), i));
    }
    (void)mgr->Append(dir, std::move(recs));
    ASSERT_TRUE(mgr->FlushDir(dir).ok());  // settled: journal trimmed empty
  }
  ASSERT_FALSE(MakeManager(p)->HasSurvivingJournal(dir));

  ChaosConfig torn;
  torn.seed = 11;
  torn.torn_put_rate = 1.0;
  auto chaos = std::make_shared<ChaosStore>(base_, torn);
  {
    auto chaos_prt = std::make_shared<Prt>(chaos);
    JournalConfig cfg = JournalConfig::ForTests();
    cfg.shard_policy = p;
    JournalManager victim(chaos_prt, cfg);
    victim.RegisterDir(dir);
    (void)victim.Append(dir, {AddEntry("late", 1000)});
    ASSERT_TRUE(victim.CommitDir(dir).ok());
    EXPECT_FALSE(victim.FlushDir(dir).ok());  // shard put tore
    EXPECT_GT(chaos->counters().torn_puts, 0u);
  }
  // Crash window: every settled entry is still readable through the
  // unflipped manifest (pre-fix, the in-place rewrite left garbage that
  // recovery silently read as an EMPTY shard — losing settled entries).
  auto window = prt_->LoadDentries(dir);
  ASSERT_TRUE(window.ok());
  EXPECT_EQ(window->size(), 20u);

  auto fresh = MakeManager(p);
  ASSERT_TRUE(fresh->HasSurvivingJournal(dir));
  ASSERT_TRUE(fresh->RecoverDir(dir).ok());
  auto all = prt_->LoadDentries(dir);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 21u);  // 20 settled + 1 journaled, zero lost
  EXPECT_EQ(prt_->LoadDentryManifest(dir)->entry_count, 21u);
}

TEST_F(ShardedDentryTest, TornManifestAdoptionVerifiesGenerations) {
  // A torn manifest flip leaves an undecodable layout authority. Recovery
  // must adopt a FULLY MATERIALIZED generation — not blindly the largest
  // one present, which can be a torn orphan from a failed reshard — and
  // must rebuild a valid manifest with a recomputed entry count.
  const Uuid dir = NewDir(31);
  DentryShardPolicy p;
  p.override_count = 4;
  {
    auto mgr = MakeManager(p);
    mgr->RegisterDir(dir);
    std::vector<Record> recs;
    for (std::uint64_t i = 0; i < 10; ++i) {
      recs.push_back(AddEntry("base" + std::to_string(i), i));
    }
    (void)mgr->Append(dir, std::move(recs));
    ASSERT_TRUE(mgr->FlushDir(dir).ok());
    (void)mgr->Append(dir, {AddEntry("extra", 500)});
    ASSERT_TRUE(mgr->CommitDir(dir).ok());  // journaled, not checkpointed
  }
  // Simulate the torn flip plus a torn ORPHAN generation twice as wide
  // (every gen-8 shard object present but undecodable).
  ASSERT_TRUE(prt_->store().Put(DentryManifestKey(dir), Bytes{0xDE, 0xAD}).ok());
  for (std::uint32_t s = 0; s < 8; ++s) {
    ASSERT_TRUE(
        prt_->store().Put(DentryShardKey(dir, 8, s, 0), Bytes{0xBA, 0xD1}).ok());
  }

  auto fresh = MakeManager(p);
  auto report = fresh->RecoverDir(dir);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->transactions_replayed, 1u);
  auto m = prt_->LoadDentryManifest(dir);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->shard_count, 4u);    // adopted the complete generation
  EXPECT_EQ(m->entry_count, 11u);   // recomputed, not reset to zero
  auto all = prt_->LoadDentries(dir);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 11u);
  // The torn orphan generation was swept during recovery.
  for (std::uint32_t s = 0; s < 8; ++s) {
    EXPECT_EQ(prt_->store().Head(DentryShardKey(dir, 8, s, 0)).code(),
              Errc::kNoEnt);
  }
}

TEST_F(ShardedDentryTest, FailedCheckpointRetriesAndSweepsOrphans) {
  // A checkpoint whose apply fails must keep its batch: the retry re-applies
  // the same journal prefix (keeping the trim byte-aligned) and sweeps any
  // orphan generation objects the failed attempt may have left behind.
  const Uuid dir = NewDir(32);
  DentryShardPolicy p;
  p.override_count = 4;

  auto armed = std::make_shared<std::atomic<bool>>(false);
  auto faulty = std::make_shared<FaultInjectionStore>(
      counting_, [armed](std::string_view op, const std::string& key) {
        // Whole-object puts to dentry shard objects only (43-char 'e' keys).
        return armed->load() && op == "put" && key.size() == 43 &&
                       key[0] == 'e'
                   ? Errc::kIo
                   : Errc::kOk;
      });
  auto faulty_prt = std::make_shared<Prt>(faulty);
  JournalConfig cfg = JournalConfig::ForTests();
  cfg.shard_policy = p;
  JournalManager mgr(faulty_prt, cfg);
  mgr.RegisterDir(dir);
  std::vector<Record> recs;
  for (std::uint64_t i = 0; i < 12; ++i) {
    recs.push_back(AddEntry("kept" + std::to_string(i), i));
  }
  (void)mgr.Append(dir, std::move(recs));
  ASSERT_TRUE(mgr.CommitDir(dir).ok());

  // A stale orphan generation from some earlier failed reshard; decodable
  // but obsolete — exactly the artifact adoption can't distinguish, so the
  // retry must delete it before the journal trim settles anything.
  ASSERT_TRUE(prt_->StoreDentryShard(dir, 2, 0,
                                     {{"stale", DeterministicUuid(76, 1),
                                       FileType::kRegular}})
                  .ok());
  ASSERT_TRUE(
      prt_->StoreDentryShard(dir, 2, 1, {}, /*slot=*/0, /*epoch=*/1).ok());

  armed->store(true);
  EXPECT_FALSE(mgr.FlushDir(dir).ok());
  armed->store(false);
  ASSERT_TRUE(mgr.FlushDir(dir).ok());  // retry applies the restored batch

  auto all = prt_->LoadDentries(dir);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 12u);
  EXPECT_EQ(prt_->LoadDentryManifest(dir)->entry_count, 12u);
  EXPECT_FALSE(mgr.HasSurvivingJournal(dir));  // trim stayed aligned
  EXPECT_EQ(prt_->store().Head(DentryShardKey(dir, 2, 0, 0)).code(),
            Errc::kNoEnt);
  EXPECT_EQ(prt_->store().Head(DentryShardKey(dir, 2, 1, 0)).code(),
            Errc::kNoEnt);
}

TEST_F(ShardedDentryTest, FlushAllIsFirstErrorWinsButAttemptsEveryDir) {
  // One directory's journal object rejects writes; FlushAll must surface
  // that error AND still checkpoint every healthy directory.
  const Uuid bad = NewDir(8);
  std::vector<Uuid> good;
  for (std::uint64_t i = 0; i < 3; ++i) good.push_back(NewDir(9 + i));

  const std::string bad_journal = JournalKey(bad);
  auto faulty = std::make_shared<FaultInjectionStore>(
      counting_, [bad_journal](std::string_view op, const std::string& key) {
        return key == bad_journal && op.substr(0, 3) == "put" ? Errc::kIo
                                                              : Errc::kOk;
      });
  auto faulty_prt = std::make_shared<Prt>(faulty);
  JournalManager mgr(faulty_prt, JournalConfig::ForTests());
  mgr.RegisterDir(bad);
  for (const auto& d : good) mgr.RegisterDir(d);
  (void)mgr.Append(bad, {AddEntry("lost-commit", 1)});
  for (std::uint64_t i = 0; i < good.size(); ++i) {
    (void)mgr.Append(good[i], {AddEntry("kept" + std::to_string(i), 10 + i)});
  }

  EXPECT_FALSE(mgr.FlushAll().ok());
  for (const auto& d : good) {
    auto entries = prt_->LoadDentries(d);
    ASSERT_TRUE(entries.ok());
    EXPECT_EQ(entries->size(), 1u);  // healthy dirs still checkpointed
  }
  // The bad dir's op never became durable, so nothing was applied.
  EXPECT_TRUE(prt_->LoadDentries(bad)->empty());
}

TEST_F(ShardedDentryTest, CommitAllCommitsEveryDirectory) {
  auto mgr = MakeManager({});
  std::vector<Uuid> dirs;
  for (std::uint64_t i = 0; i < 4; ++i) dirs.push_back(NewDir(20 + i));
  for (const auto& d : dirs) {
    mgr->RegisterDir(d);
    (void)mgr->Append(d, {AddEntry("pending", 30)});
  }
  ASSERT_TRUE(mgr->CommitAll().ok());
  for (const auto& d : dirs) {
    EXPECT_TRUE(mgr->HasSurvivingJournal(d));  // durable, not checkpointed
    EXPECT_TRUE(prt_->LoadDentries(d)->empty());
  }
}

TEST(JournalS3Test, AppendWorksOnWholeObjectStore) {
  // Whole-object backends append via read-modify-write.
  auto store = std::make_shared<MemoryObjectStore>(kDefaultMaxObjectSize,
                                                   /*partial=*/false);
  auto prt = std::make_shared<Prt>(store);
  JournalManager manager(prt, JournalConfig::ForTests());
  const Uuid dir = DeterministicUuid(91, 1);
  manager.RegisterDir(dir);
  (void)manager.Append(dir, {Record::DentryAdd(
                          {"one", DeterministicUuid(91, 2), FileType::kRegular})});
  ASSERT_TRUE(manager.CommitDir(dir).ok());
  (void)manager.Append(dir, {Record::DentryAdd(
                          {"two", DeterministicUuid(91, 3), FileType::kRegular})});
  ASSERT_TRUE(manager.CommitDir(dir).ok());
  auto raw = prt->LoadJournal(dir);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(ParseJournal(*raw).size(), 2u);
}

// --- durability modes (group-commit pipeline, DESIGN.md §4.7) ---

class DurabilityModeTest : public ::testing::Test {
 protected:
  DurabilityModeTest()
      : store_(std::make_shared<MemoryObjectStore>()),
        armed_(std::make_shared<std::atomic<bool>>(false)),
        faulty_(std::make_shared<FaultInjectionStore>(
            store_,
            [armed = armed_](std::string_view op, const std::string& key) {
              // Armed: every journal-object write fails (keys start 'j').
              return armed->load() && op.substr(0, 3) == "put" &&
                             !key.empty() && key[0] == 'j'
                         ? Errc::kIo
                         : Errc::kOk;
            })),
        prt_(std::make_shared<Prt>(faulty_)) {}

  std::unique_ptr<JournalManager> MakeManager(DurabilityMode mode) {
    JournalConfig cfg = JournalConfig::ForTests();
    // Keep async-mode flushes out of the picture (tests finish in well
    // under a second): durability here must come from the mode under test.
    cfg.commit_interval = Seconds(5);
    cfg.durability = mode;
    return std::make_unique<JournalManager>(prt_, cfg);
  }

  Uuid NewDir(std::uint64_t n) {
    const Uuid dir = DeterministicUuid(120, n);
    Inode dir_inode =
        MakeInode(dir, FileType::kDirectory, 0755, 0, 0, kRootIno);
    EXPECT_TRUE(prt_->StoreInode(dir_inode).ok());
    return dir;
  }

  static Record Entry(const std::string& name, std::uint64_t n) {
    return Record::DentryAdd(
        {name, DeterministicUuid(121, n), FileType::kRegular});
  }

  ObjectStorePtr store_;
  std::shared_ptr<std::atomic<bool>> armed_;
  std::shared_ptr<FaultInjectionStore> faulty_;
  std::shared_ptr<Prt> prt_;
};

TEST(DurabilityModeNames, ParseAndNameRoundTrip) {
  for (auto mode : {DurabilityMode::kSync, DurabilityMode::kGroup,
                    DurabilityMode::kAsync}) {
    auto parsed = ParseDurabilityMode(DurabilityModeName(mode));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_EQ(ParseDurabilityMode("fast-and-loose").code(), Errc::kInval);
}

TEST_F(DurabilityModeTest, SyncModeIsDurableBeforeAck) {
  auto mgr = MakeManager(DurabilityMode::kSync);
  const Uuid dir = NewDir(1);
  mgr->RegisterDir(dir);
  ASSERT_TRUE(mgr->Append(dir, {Entry("durable", 1)}).ok());
  // No CommitDir/FlushDir call: the ack itself implied durability. Durable
  // means journaled — or already checkpointed into the dentry objects, if
  // the checkpoint thread won the race right after the commit.
  auto applied = prt_->LoadDentries(dir);
  EXPECT_TRUE(mgr->HasSurvivingJournal(dir) ||
              (applied.ok() && applied->size() == 1u));
  EXPECT_EQ(mgr->WindowDepth().records, 0u);
}

TEST_F(DurabilityModeTest, SyncModeSurfacesCommitFailureToTheAppender) {
  auto mgr = MakeManager(DurabilityMode::kSync);
  const Uuid dir = NewDir(2);
  mgr->RegisterDir(dir);
  armed_->store(true);
  EXPECT_FALSE(mgr->Append(dir, {Entry("rejected", 1)}).ok());
  // The records stay sequenced (commit unwind) so a later drain redrives
  // them — the failed op was never acked, but nothing leaks either.
  EXPECT_EQ(mgr->WindowDepth().records, 1u);
  armed_->store(false);
  ASSERT_TRUE(mgr->CommitDir(dir).ok());
  EXPECT_TRUE(mgr->HasSurvivingJournal(dir));
  EXPECT_EQ(mgr->WindowDepth().records, 0u);
}

TEST_F(DurabilityModeTest, GroupModeAcksOnSequenceAndFlusherDrains) {
  auto mgr = MakeManager(DurabilityMode::kGroup);
  const Uuid dir = NewDir(3);
  mgr->RegisterDir(dir);
  ASSERT_TRUE(mgr->Append(dir, {Entry("grouped", 1)}).ok());
  // No explicit commit anywhere: the dedicated flusher must drain it.
  for (int i = 0; i < 500 && mgr->WindowDepth().records > 0; ++i) {
    SleepFor(Millis(2));
  }
  EXPECT_EQ(mgr->WindowDepth().records, 0u);
  // Durable means journaled — or already checkpointed into the dentry
  // shards, if the checkpoint thread won the race after the flush.
  auto applied = prt_->LoadDentries(dir);
  EXPECT_TRUE(mgr->HasSurvivingJournal(dir) ||
              (applied.ok() && applied->size() == 1u));
  EXPECT_GE(mgr->metrics().group_flushes.value(), 1u);
}

TEST_F(DurabilityModeTest, GroupBackpressureBoundsTheDirtyWindow) {
  JournalConfig cfg = JournalConfig::ForTests();
  cfg.commit_interval = Seconds(5);
  cfg.durability = DurabilityMode::kGroup;
  cfg.group_window.max_records = 4;
  cfg.group_window.max_age = Seconds(60);      // only the record bound here
  cfg.group_window.max_stall = Millis(10);     // keep the test fast
  JournalManager mgr(prt_, cfg);
  const Uuid dir = NewDir(4);
  mgr.RegisterDir(dir);

  armed_->store(true);  // flusher cannot drain: the window can only grow
  for (std::uint64_t i = 0; i < 8; ++i) {
    // Still acks (bounded stall, not a hang) even with the store down.
    ASSERT_TRUE(
        mgr.Append(dir, {Entry("p" + std::to_string(i), i)}).ok());
  }
  EXPECT_EQ(mgr.WindowDepth().records, 8u);
  EXPECT_GE(mgr.metrics().group_stalls.value(), 1u);

  armed_->store(false);  // store heals: the flusher redrives everything
  for (int i = 0; i < 500 && mgr.WindowDepth().records > 0; ++i) {
    SleepFor(Millis(2));
  }
  EXPECT_EQ(mgr.WindowDepth().records, 0u);
  EXPECT_TRUE(mgr.HasSurvivingJournal(dir));
}

TEST_F(DurabilityModeTest, ConcurrentAppendAndDrainNeverLeaksWindowDepth) {
  // Regression: Append once published NoteSequenced AFTER releasing st->mu,
  // so a concurrent drain could claim the just-inserted records and run its
  // min-clamped NoteDrained first — the late NoteSequenced then leaked
  // window depth permanently (and with it the age bound, turning every
  // later group-mode append into a full-stall). Hammer appends against a
  // racing drainer (plus the flusher) and require the window to account
  // back to exactly zero.
  auto mgr = MakeManager(DurabilityMode::kGroup);
  const Uuid dir = NewDir(9);
  mgr->RegisterDir(dir);
  std::atomic<bool> stop{false};
  std::thread drainer([&] {
    while (!stop.load()) {
      EXPECT_TRUE(mgr->CommitDir(dir).ok());
    }
  });
  std::vector<std::thread> appenders;
  for (int t = 0; t < 4; ++t) {
    appenders.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < 300; ++i) {
        EXPECT_TRUE(
            mgr->Append(dir, {Entry("r" + std::to_string(t) + "." +
                                        std::to_string(i),
                                    t * 1000 + i)})
                .ok());
      }
    });
  }
  for (auto& a : appenders) a.join();
  stop.store(true);
  drainer.join();
  ASSERT_TRUE(mgr->CommitDir(dir).ok());
  const GroupWindow::Depth d = mgr->WindowDepth();
  EXPECT_EQ(d.records, 0u);
  EXPECT_EQ(d.bytes, 0u);
}

TEST_F(DurabilityModeTest, UnregisterCountsLeaseDrainOnlyWhenPending) {
  // Async mode with a long commit interval: the flusher does not fire
  // during the test, so whether records are pending at Unregister time is
  // fully deterministic.
  auto mgr = MakeManager(DurabilityMode::kAsync);
  const Uuid idle = NewDir(10);
  mgr->RegisterDir(idle);
  ASSERT_TRUE(mgr->UnregisterDir(idle).ok());
  // Nothing was pending: a clean release is not a drain.
  EXPECT_EQ(mgr->metrics().group_drains.value(), 0u);
  EXPECT_EQ(mgr->metrics().group_lease_drains.value(), 0u);

  const Uuid busy = NewDir(11);
  mgr->RegisterDir(busy);
  ASSERT_TRUE(mgr->Append(busy, {Entry("pending", 1)}).ok());
  ASSERT_TRUE(mgr->UnregisterDir(busy).ok());
  EXPECT_EQ(mgr->metrics().group_drains.value(), 1u);
  EXPECT_EQ(mgr->metrics().group_lease_drains.value(), 1u);
}

TEST_F(DurabilityModeTest, ResetDropsSequencedUnflushedAndCountsThem) {
  auto mgr = MakeManager(DurabilityMode::kAsync);
  const Uuid dir = NewDir(5);
  mgr->RegisterDir(dir);
  ASSERT_TRUE(mgr->Append(dir, {Entry("doomed1", 1), Entry("doomed2", 2)}).ok());
  EXPECT_EQ(mgr->WindowDepth().records, 2u);
  mgr->ResetDir(dir);  // deposed: the loss window is realized here
  EXPECT_EQ(mgr->WindowDepth().records, 0u);
  EXPECT_EQ(mgr->metrics().group_dropped_records.value(), 2u);
  EXPECT_FALSE(mgr->HasSurvivingJournal(dir));
}

TEST_F(DurabilityModeTest, CommitAllCountsPerDirectoryFlushErrors) {
  // Two directories' journal objects reject writes, one stays healthy:
  // journal.flush.errors must count each failing directory (not just the
  // first) and must not move on the healthy one or after healing.
  const std::vector<Uuid> bad = {NewDir(6), NewDir(7)};
  const Uuid good = NewDir(8);
  const std::vector<std::string> bad_keys = {JournalKey(bad[0]),
                                             JournalKey(bad[1])};
  auto armed = std::make_shared<std::atomic<bool>>(false);
  auto faulty = std::make_shared<FaultInjectionStore>(
      store_, [armed, bad_keys](std::string_view op, const std::string& key) {
        return armed->load() && op.substr(0, 3) == "put" &&
                       (key == bad_keys[0] || key == bad_keys[1])
                   ? Errc::kIo
                   : Errc::kOk;
      });
  auto faulty_prt = std::make_shared<Prt>(faulty);
  JournalConfig cfg = JournalConfig::ForTests();
  cfg.commit_interval = Seconds(5);
  JournalManager mgr(faulty_prt, cfg);
  for (const auto& d : bad) mgr.RegisterDir(d);
  mgr.RegisterDir(good);
  for (std::uint64_t i = 0; i < bad.size(); ++i) {
    ASSERT_TRUE(mgr.Append(bad[i], {Entry("lost", i)}).ok());
  }
  ASSERT_TRUE(mgr.Append(good, {Entry("kept", 9)}).ok());

  armed->store(true);
  EXPECT_FALSE(mgr.CommitAll().ok());
  EXPECT_EQ(mgr.metrics().flush_errors.value(), 2u);
  EXPECT_TRUE(mgr.HasSurvivingJournal(good));  // healthy dir still committed
  armed->store(false);
  ASSERT_TRUE(mgr.CommitAll().ok());
  EXPECT_EQ(mgr.metrics().flush_errors.value(), 2u);  // successes don't count
  for (const auto& d : bad) EXPECT_TRUE(mgr.HasSurvivingJournal(d));
}

TEST_F(DurabilityModeTest, IntrospectTextReportsModeAndDepth) {
  auto mgr = MakeManager(DurabilityMode::kGroup);
  const std::string text = mgr->IntrospectText();
  EXPECT_NE(text.find("durability mode: group"), std::string::npos);
  EXPECT_NE(text.find("dirty window:"), std::string::npos);
  EXPECT_NE(text.find("drains:"), std::string::npos);
}

// Redrive with no explicit drain: a commit that fails while the store is
// down must be retried by the flusher alone, in every mode, once the store
// heals. Async mode must also hold its first attempt back until the commit
// interval has elapsed.
class FlusherRedriveTest
    : public DurabilityModeTest,
      public ::testing::WithParamInterface<DurabilityMode> {};

TEST_P(FlusherRedriveTest, FailedCommitIsRedrivenWithoutExplicitDrain) {
  const DurabilityMode mode = GetParam();
  JournalConfig cfg = JournalConfig::ForTests();
  cfg.commit_interval = Millis(100);
  cfg.durability = mode;
  JournalManager mgr(prt_, cfg);
  const Uuid dir = NewDir(30 + static_cast<std::uint64_t>(mode));
  mgr.RegisterDir(dir);

  armed_->store(true);
  const TimePoint t0 = Now();
  const Status appended = mgr.Append(dir, {Entry("redriven", 1)});
  if (mode == DurabilityMode::kSync) {
    EXPECT_FALSE(appended.ok());  // the ack path saw the failure itself
  } else {
    ASSERT_TRUE(appended.ok());  // acked on sequence
    // The flusher's first attempt fails while the store is down: at once in
    // group mode, only after commit_interval in async mode.
    while (mgr.metrics().flush_errors.value() == 0 &&
           Now() - t0 < Seconds(5)) {
      SleepFor(Millis(1));
    }
    ASSERT_GE(mgr.metrics().flush_errors.value(), 1u);
    if (mode == DurabilityMode::kAsync) {
      EXPECT_GE(Now() - t0, cfg.commit_interval);
    }
  }
  EXPECT_EQ(mgr.WindowDepth().records, 1u);
  EXPECT_EQ(mgr.metrics().transactions_committed.value(), 0u);
  armed_->store(false);

  for (int i = 0; i < 2500 && mgr.WindowDepth().records > 0; ++i) {
    SleepFor(Millis(2));
  }
  EXPECT_EQ(mgr.WindowDepth().records, 0u);
  EXPECT_EQ(mgr.metrics().records_committed.value(), 1u);
  auto applied = prt_->LoadDentries(dir);
  EXPECT_TRUE(mgr.HasSurvivingJournal(dir) ||
              (applied.ok() && applied->size() == 1u));
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, FlusherRedriveTest,
    ::testing::Values(DurabilityMode::kSync, DurabilityMode::kGroup,
                      DurabilityMode::kAsync),
    [](const ::testing::TestParamInfo<DurabilityMode>& info) {
      return std::string(DurabilityModeName(info.param));
    });

TEST(GroupWindowTest, BackpressureReleasesOnDrain) {
  GroupWindowLimits lim;
  lim.max_records = 2;
  lim.max_age = Seconds(60);
  lim.max_stall = Seconds(60);  // must release via the drain, not the cap
  GroupWindow w(lim);
  w.NoteSequenced(5, 500);
  std::thread appender([&] { EXPECT_TRUE(w.Backpressure()); });
  SleepFor(Millis(20));
  w.NoteDrained(5, 500);
  appender.join();
  EXPECT_EQ(w.depth().records, 0u);
  EXPECT_FALSE(w.Backpressure());  // clean window: no wait at all
}

TEST(GroupWindowTest, StallCapBoundsTheWaitEvenWhenNothingDrains) {
  GroupWindowLimits lim;
  lim.max_records = 1;
  lim.max_age = Seconds(60);
  lim.max_stall = Millis(10);
  GroupWindow w(lim);
  w.NoteSequenced(3, 30);
  const TimePoint t0 = Now();
  EXPECT_TRUE(w.Backpressure());  // waited...
  EXPECT_LT(Now() - t0, Seconds(5));  // ...but gave up at the cap
  EXPECT_EQ(w.depth().records, 3u);   // still pending
}

}  // namespace
}  // namespace arkfs::journal
