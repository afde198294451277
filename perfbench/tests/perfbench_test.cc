// Tests for the benchmark's own code: the percentile rule, interval-union
// self time, span folding, and the output checks (including one that must
// catch a single flipped byte under a real ArkFS deployment).
#include <gtest/gtest.h>

#include "analysis.h"
#include "checks.h"
#include "core/cluster.h"
#include "objstore/memory_store.h"
#include "objstore/store_decorator.h"
#include "workloads/dataset.h"
#include "workloads/minitar.h"

namespace perfbench {
namespace {

using arkfs::Bytes;
using arkfs::workloads::DatasetFile;

std::vector<double> Iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;
}

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_FALSE(HasTenBeyond(999, 0.99));
  EXPECT_TRUE(HasTenBeyond(1000, 0.99));
  EXPECT_FALSE(HasTenBeyond(19, 0.50));
  EXPECT_TRUE(HasTenBeyond(20, 0.50));
  EXPECT_FALSE(HasTenBeyond(0, 0.50));
}

TEST(PercentileRule, NearestRankValue) {
  EXPECT_FALSE(Percentile(Iota(999), 0.99).has_value());
  ASSERT_TRUE(Percentile(Iota(1000), 0.99).has_value());
  EXPECT_DOUBLE_EQ(*Percentile(Iota(1000), 0.99), 990.0);
  EXPECT_DOUBLE_EQ(*Percentile(Iota(20), 0.50), 10.0);
  EXPECT_DOUBLE_EQ(*Percentile(Iota(1000), 0.50), 500.0);
}

TEST(SelfTime, SubtractsUnionOfChildren) {
  // Parent [0, 100); children overlap each other and spill past the end.
  EXPECT_EQ(SelfTime({0, 100}, {}), 100);
  EXPECT_EQ(SelfTime({0, 100}, {{10, 30}, {20, 40}}), 70);
  EXPECT_EQ(SelfTime({0, 100}, {{10, 20}, {50, 60}}), 80);
  EXPECT_EQ(SelfTime({0, 100}, {{90, 150}}), 90);
  EXPECT_EQ(SelfTime({0, 100}, {{-10, 5}, {95, 120}, {0, 100}}), 0);
  EXPECT_EQ(SelfTime({0, 100}, {{200, 300}}), 100);
}

TEST(SpanFold, AttributesStoreSpansToOps) {
  using arkfs::obs::SpanRecord;
  // op trace 7: fuse.write [0,100) -> core.write [10,90) -> store.put
  // [20,50) and [40,80) (parallel async I/O); one background store.put.
  std::vector<SpanRecord> spans = {
      {7, 1, 0, 0, 100, "fuse.write"},
      {7, 2, 1, 10, 90, "core.write"},
      {7, 3, 2, 20, 50, "store.put"},
      {7, 4, 2, 40, 80, "store.put"},
      {0, 5, 0, 200, 260, "store.put"},
  };
  const SpanFold fold = FoldSpans(spans);
  EXPECT_EQ(fold.self_ns.at("fuse"), 20);
  EXPECT_EQ(fold.self_ns.at("core"), 20);
  EXPECT_EQ(fold.self_ns.at("cluster"), 30 + 40 + 60);
  EXPECT_EQ(fold.background_self_ns, 60);
  EXPECT_EQ(fold.store_spans, 3u);
  EXPECT_EQ(fold.store_spans_attributed, 2u);
  EXPECT_EQ(fold.store_spans_background, 1u);
  EXPECT_EQ(fold.store_busy_ns, 60 + 60);
}

std::vector<DatasetFile> SmallDataset() {
  auto spec = arkfs::workloads::DatasetSpec::Scaled(12, 3000);
  spec.seed = MixSeed(5, 1);
  return arkfs::workloads::GenerateDataset(spec);
}

TEST(Checks, RetrievedTarRoundTripAndCorruption) {
  const auto files = SmallDataset();
  arkfs::sim::SimDisk disk(arkfs::sim::DiskConfig::Instant());
  auto write_tar = [&](const std::string& name, int flip_member) {
    Bytes archive;
    arkfs::workloads::TarWriter writer([&](arkfs::ByteSpan block) {
      archive.insert(archive.end(), block.begin(), block.end());
      return arkfs::Status::Ok();
    });
    for (int i = 0; i < static_cast<int>(files.size()); ++i) {
      Bytes content = arkfs::workloads::DatasetFileContent(files[i]);
      if (i == flip_member) content[content.size() / 2] ^= 0x01;
      arkfs::workloads::TarEntry entry;
      entry.name = files[i].name;
      entry.size = content.size();
      ASSERT_TRUE(writer.AddFile(entry, content).ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
    ASSERT_TRUE(disk.WriteFile(name, archive).ok());
  };
  write_tar("good.tar", -1);
  write_tar("bad.tar", 3);
  const CheckCount good = VerifyRetrievedTar(disk, "good.tar", files);
  EXPECT_EQ(good.checked, files.size());
  EXPECT_EQ(good.failed, 0u);
  EXPECT_EQ(VerifyRetrievedTar(disk, "bad.tar", files).failed, 1u);
  EXPECT_EQ(VerifyRetrievedTar(disk, "missing.tar", files).failed, files.size());
}

TEST(Checks, MdtestContentIsPerFile) {
  const Bytes a = MdtestFileContent(9, 0, 1, 2, 3901);
  EXPECT_EQ(a.size(), 3901u);
  EXPECT_EQ(a, MdtestFileContent(9, 0, 1, 2, 3901));
  EXPECT_NE(a, MdtestFileContent(9, 0, 1, 3, 3901));
  EXPECT_NE(a, MdtestFileContent(9, 0, 2, 2, 3901));
  EXPECT_NE(a, MdtestFileContent(10, 0, 1, 2, 3901));
  EXPECT_NE(a, MdtestFileContent(9, 1, 1, 2, 3901));
}

// Flips one byte of every PRT data chunk ('d'-prefixed key) read back from
// the store, as a silently corrupting device would.
class CorruptingStore : public arkfs::StoreDecorator {
 public:
  using StoreDecorator::StoreDecorator;
  std::atomic<bool> armed{false};

  arkfs::Result<Bytes> Get(const std::string& key) override {
    return Flip(key, base()->Get(key));
  }
  arkfs::Result<Bytes> GetRange(const std::string& key, std::uint64_t offset,
                                std::uint64_t length) override {
    return Flip(key, base()->GetRange(key, offset, length));
  }

 private:
  arkfs::Result<Bytes> Flip(const std::string& key, arkfs::Result<Bytes> data) {
    if (armed && data.ok() && !data->empty() && key.front() == 'd') {
      (*data)[data->size() / 2] ^= 0x40;
    }
    return data;
  }
};

TEST(Checks, ExtractedFilesCatchOneFlippedByte) {
  auto corrupting = std::make_shared<CorruptingStore>(
      std::make_shared<arkfs::MemoryObjectStore>());
  auto cluster = arkfs::ArkFsCluster::Create(
                     corrupting, arkfs::ArkFsClusterOptions::ForTests())
                     .value();
  auto client = cluster->AddClient().value();
  const arkfs::UserCred cred = arkfs::UserCred::Root();
  const auto files = SmallDataset();
  ASSERT_TRUE(client->MkdirAll("/x", 0755, cred).ok());
  for (const auto& f : files) {
    ASSERT_TRUE(client
                    ->WriteFileAt("/x/" + f.name,
                                  arkfs::workloads::DatasetFileContent(f), cred)
                    .ok());
  }
  ASSERT_TRUE(client->SyncAll().ok());
  ASSERT_TRUE(client->DropCaches().ok());
  EXPECT_EQ(VerifyExtractedFiles(*client, "/x", files).failed, 0u);

  ASSERT_TRUE(client->DropCaches().ok());
  corrupting->armed = true;
  const CheckCount bad = VerifyExtractedFiles(*client, "/x", files);
  EXPECT_EQ(bad.checked, files.size());
  EXPECT_EQ(bad.failed, files.size());
}

}  // namespace
}  // namespace perfbench
