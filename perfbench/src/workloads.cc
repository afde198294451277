#include "workloads.h"

#include <cstdio>
#include <latch>
#include <stdexcept>
#include <thread>

#include "checks.h"
#include "core/cluster.h"
#include "objstore/cluster_store.h"
#include "sim/disk.h"
#include "workloads/dataset.h"
#include "workloads/minitar.h"

namespace perfbench {

using namespace arkfs;
using workloads::DatasetFile;

namespace {

// archive / archive_tiered: files per process, MS-COCO-shaped sizes scaled
// to a 12 KB median (the Table II binary's shape).
constexpr int kArchiveFiles = 400;
// mdtest_hard: 4 x 640 = 2560 files of 3901 B in a pool of 16 shared
// directories; more files than the default 2048-entry object cache holds.
constexpr int kMdtestFiles = 640;
constexpr int kMdtestDirs = 16;
constexpr std::size_t kMdtestFileSize = 3901;

double SecondsSince(TimePoint start) {
  return std::chrono::duration<double>(Now() - start).count();
}

void Require(const Status& st, const std::string& what) {
  if (!st.ok()) throw std::runtime_error(what + ": " + st.ToString());
}

// What the timed phases added on top of set-up: counters and store totals
// are differenced; gauges and histograms are kept as read.
obs::MetricsSnapshot SinceSetup(obs::MetricsSnapshot now,
                                const obs::MetricsSnapshot& setup) {
  for (auto& [name, value] : now.counters) value -= setup.counter(name);
  return now;
}

ProbeStore::Totals SinceSetup(ProbeStore::Totals now,
                              const ProbeStore::Totals& setup) {
  for (int k = 0; k < ProbeStore::kKinds; ++k) {
    now.ops[k] -= setup.ops[k];
    now.errors[k] -= setup.errors[k];
  }
  now.bytes_read -= setup.bytes_read;
  now.bytes_written -= setup.bytes_written;
  now.ec_shard_bytes_written -= setup.ec_shard_bytes_written;
  return now;
}

// Runs body(p) on kClientThreads threads released together; returns the
// wall time from release to the last thread's finish.
double TimedPhase(const std::function<void(int)>& body) {
  std::latch go(1);
  std::vector<std::thread> threads;
  for (int p = 0; p < kClientThreads; ++p) {
    threads.emplace_back([&go, &body, p] {
      go.wait();
      body(p);
    });
  }
  const TimePoint start = Now();
  go.count_down();
  for (auto& t : threads) t.join();
  return SecondsSince(start);
}

// One paper-like ArkFS deployment: RADOS-like 16-node store, 10 GbE
// datacenter network, 5 s leases, async journal with a 200 ms commit
// interval, FUSE model at its full 4 us crossing cost (each of the 4
// client threads has its own vCPU). Every layer cell reports into the
// deployment's own registry, which outlives the cluster.
struct Deployment {
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::shared_ptr<ClusterObjectStore> nodes;
  std::shared_ptr<ProbeStore> probe;
  std::unique_ptr<ArkFsCluster> cluster;
  std::vector<std::shared_ptr<Client>> clients;
  std::vector<VfsPtr> mounts;  // outer probes, one per client
};

// Adds one client node and mounts it: outer probe -> FuseSim -> inner
// probe -> client. FuseSim is built exactly as ArkFsCluster::WithFuse
// builds it, but over the inner probe so the model's own time can be
// separated out.
const VfsPtr& Mount(Deployment& d, LatencyLog* creates, LatencyLog* stats,
                    std::function<bool(const std::string&)> time_create) {
  auto c = d.cluster->AddClient();
  Require(c.status(), "add client");
  std::shared_ptr<Client> client = *c;
  auto inner = std::make_shared<ProbeVfs>(client, ProbeVfs::Role::kInner);
  auto fuse = std::make_shared<FuseSim>(
      inner, FuseSimConfig{},
      [client](const std::string& path, const UserCred& cred) {
        return client->Probe(path, cred);
      });
  d.clients.push_back(client);
  d.mounts.push_back(std::make_shared<ProbeVfs>(
      fuse, ProbeVfs::Role::kOuter, creates, stats, std::move(time_create)));
  return d.mounts.back();
}

Deployment Deploy(DataPlacement placement, int client_nodes,
                  std::size_t cache_entries, bool traced, LatencyLog* creates,
                  LatencyLog* stats,
                  std::function<bool(const std::string&)> time_create) {
  Deployment d;
  d.registry = std::make_unique<obs::MetricsRegistry>();
  ClusterConfig store_config = ClusterConfig::RadosLike();
  store_config.metrics = d.registry.get();
  // As in the Table II binary's tiered row: durability of demoted bytes
  // comes from k=4/m=2 parity, so the pool keeps one copy.
  if (placement == DataPlacement::kTiered) store_config.replication = 1;
  d.nodes = std::make_shared<ClusterObjectStore>(store_config);
  d.probe = std::make_shared<ProbeStore>(d.nodes);

  ArkFsClusterOptions options;
  options.network = sim::NetworkProfile::Datacenter10G();
  options.lease.lease_period = Seconds(5);
  options.lease.recovery_wait = Millis(100);
  options.lease.metrics = d.registry.get();
  ClientConfig client;
  client.permission_cache = true;
  client.read_delegations = true;
  client.perm_cache_ttl = Seconds(5);
  client.cache.max_entries = cache_entries;
  client.cache.metrics = d.registry.get();
  client.journal.commit_interval = Millis(200);
  // A forwarded op must be able to outlast one lease term: a leader that
  // goes quiet lets its lease lapse, and the requester can only take over
  // once it has. The default budget (50 x 20 ms) is sized for test leases.
  client.op_retries = static_cast<int>(
      options.lease.lease_period / client.op_retry_backoff + 50);
  client.metrics = d.registry.get();
  // Served directory ops record into the serving client's own span ring;
  // a traced round keeps all of them for CollectClientSpans.
  if (traced) client.trace_capacity = std::size_t{1} << 18;
  options.client_template = client;
  options.placement = placement;
  options.migrate.demote_after = Nanos(0);  // demote on sight when run
  options.migrate.promote_reads = 0;        // no promotion churn
  auto cluster = ArkFsCluster::Create(d.probe, options);
  Require(cluster.status(), "create cluster");
  d.cluster = std::move(*cluster);

  for (int n = 0; n < client_nodes; ++n) {
    Mount(d, creates, stats, time_create);
  }
  return d;
}

// Physical over logical bytes of the data plane ('d'-prefixed PRT chunks
// and, with an EC tier, their stripes), read from the raw cluster as the
// Table II binary reads it. Costs one store HEAD per object.
double DataPlaneRatio(Deployment& d) {
  auto keys = d.nodes->List("d");
  if (!keys.ok()) return 0;
  const EcStorePtr& ec = d.cluster->ec_store();
  std::uint64_t physical = 0, logical = 0;
  for (const auto& key : *keys) {
    auto head = d.nodes->Head(key);
    if (!head.ok()) continue;
    physical += head->size * d.nodes->ReplicaNodes(key).size();
    if (!ec) logical += head->size;
  }
  if (ec) {
    auto stripes = ec->ListStripes("d");
    if (!stripes.ok()) return 0;
    for (const auto& key : *stripes) {
      auto manifest = ec->LoadManifest(key);
      if (manifest.ok()) logical += manifest->object_size;
    }
  }
  return logical == 0 ? 0
                      : static_cast<double>(physical) /
                            static_cast<double>(logical);
}

// ServeDirOp re-roots its spans (journal, store stack) in the serving
// client's ring under the requester's trace id, for local and forwarded ops
// alike; fold the timed phases' share into the benchmark's dump.
void CollectClientSpans(const Deployment& d, obs::Tracer* tracer,
                        std::int64_t since_ns) {
  if (tracer == nullptr) return;
  for (const auto& client : d.clients) {
    for (auto& span : client->Introspect().spans) {
      if (span.start_ns >= since_ns) tracer->Record(std::move(span));
    }
  }
}

std::string ProcDir(int p) { return "/campaign/proc" + std::to_string(p); }

RoundResult ArchiveRound(bool tiered, std::uint64_t seed, int round,
                         obs::Tracer* tracer) {
  RoundResult r;
  LatencyLog creates, stats;
  const UserCred cred = UserCred::Root();

  const TimePoint setup_start = Now();
  std::vector<std::vector<DatasetFile>> datasets(kClientThreads);
  sim::SimDisk ebs(sim::DiskConfig::EbsLike());
  std::uint64_t dataset_bytes = 0;
  for (int p = 0; p < kClientThreads; ++p) {
    auto spec = workloads::DatasetSpec::Scaled(kArchiveFiles);
    spec.seed = MixSeed(seed, static_cast<std::uint64_t>(round),
                        static_cast<std::uint64_t>(p));
    datasets[p] = workloads::GenerateDataset(spec);
    dataset_bytes += workloads::TotalBytes(datasets[p]);
    for (const auto& f : datasets[p]) {
      Require(ebs.WriteFile("p" + std::to_string(p) + "/" + f.name,
                            workloads::DatasetFileContent(f)),
              "stage dataset");
    }
  }
  // Creates are timed per extracted file, not for the tar itself.
  const auto not_tar = [](const std::string& path) {
    return !path.ends_with(".tar");
  };
  // Table II sizes the object cache to hold the whole ingest.
  Deployment d = Deploy(tiered ? DataPlacement::kTiered : DataPlacement::kReplica,
                        /*client_nodes=*/1, /*cache_entries=*/8192,
                        tracer != nullptr, &creates, &stats, not_tar);
  VfsPtr mount = d.mounts.front();
  r.setup_s = SecondsSince(setup_start);
  r.files = static_cast<std::uint64_t>(kClientThreads) * kArchiveFiles;
  const obs::MetricsSnapshot setup_metrics = d.registry->Snapshot();
  const ProbeStore::Totals setup_store = d.probe->totals();

  struct Proc {
    bool ok = true;
    double archive_s = 0, extract_s = 0, sync_s = 0, unarchive_s = 0;
  };
  std::vector<Proc> procs(kClientThreads);

  const std::int64_t timed_start_ns = NowNanos();
  SetBenchTracer(tracer);
  // Archiving: EBS -> tar on ArkFS -> extract into a private tree -> sync.
  r.write_s = TimedPhase([&](int p) {
    Proc& proc = procs[p];
    const std::string base = ProcDir(p);
    std::vector<std::string> names;
    for (const auto& f : datasets[p]) {
      names.push_back("p" + std::to_string(p) + "/" + f.name);
    }
    TimePoint t = Now();
    proc.ok = mount->MkdirAll(base, 0755, cred).ok() &&
              workloads::ArchiveDiskToVfs(ebs, names, *mount,
                                          base + "/dataset.tar", cred)
                  .ok();
    proc.archive_s = SecondsSince(t);
    t = Now();
    proc.ok = proc.ok && workloads::ExtractVfsArchive(
                             *mount, base + "/dataset.tar",
                             base + "/extracted", cred)
                             .ok();
    proc.extract_s = SecondsSince(t);
    t = Now();
    proc.ok = mount->SyncAll().ok() && proc.ok;
    proc.sync_s = SecondsSince(t);
  });
  r.write_bytes = static_cast<double>(dataset_bytes);
  r.round_s = r.write_s;

  if (tiered) {
    const TimePoint t = Now();
    auto report = d.cluster->migrator()->RunOnce();
    r.demote_s = SecondsSince(t);
    if (!report.ok() || report->demote_failures != 0) {
      throw std::runtime_error("forced migration pass failed");
    }
    r.demote_bytes = static_cast<double>(report->demoted_bytes);
    r.round_s += r.demote_s;
  }

  // Retrieval reads the store cold, as a later retrieval would: the
  // archiving node drops its caches and unmounts (releasing its directory
  // leases), and a fresh node mounts to retrieve, so metadata is cold too.
  // Dropping caches alone would keep the leader's metatables in memory, and
  // whether they survived would hinge on the 5 s lease lapsing mid-round.
  TimePoint t = Now();
  Require(mount->DropCaches(), "drop caches");
  Require(d.clients.front()->Shutdown(), "unmount");
  mount = Mount(d, &creates, &stats, not_tar);
  r.phase_s["remount_s"] = SecondsSince(t);
  r.round_s += r.phase_s["remount_s"];

  r.read_s = TimedPhase([&](int p) {
    const TimePoint start = Now();
    procs[p].ok =
        workloads::ArchiveVfsToDisk(
            *mount, ProcDir(p) + "/extracted/p" + std::to_string(p), ebs,
            "retrieved_p" + std::to_string(p) + ".tar", cred)
            .ok() &&
        procs[p].ok;
    procs[p].unarchive_s = SecondsSince(start);
  });
  r.read_bytes = static_cast<double>(dataset_bytes);
  r.round_s += r.read_s;
  SetBenchTracer(nullptr);
  CollectClientSpans(d, tracer, timed_start_ns);

  r.metrics = SinceSetup(d.registry->Snapshot(), setup_metrics);
  r.store = SinceSetup(d.probe->totals(), setup_store);
  r.disk_bytes = static_cast<double>(ebs.TotalBytes());
  // Per-process means of each tar step.
  for (const Proc& proc : procs) {
    r.phase_s["tar.archive_s"] += proc.archive_s / kClientThreads;
    r.phase_s["tar.extract_s"] += proc.extract_s / kClientThreads;
    r.phase_s["tar.sync_s"] += proc.sync_s / kClientThreads;
    r.phase_s["tar.unarchive_s"] += proc.unarchive_s / kClientThreads;
  }
  if (round == 0) r.storage_ratio = DataPlaneRatio(d);

  // Output checks, after every timer and counter has been read. Extracted
  // files are read straight through the client so the checks add no FUSE
  // or probe samples.
  for (int p = 0; p < kClientThreads; ++p) {
    const std::uint64_t n = datasets[p].size();
    r.attempted += 2 * n;
    if (!procs[p].ok) {
      std::fprintf(stderr, "archive: process %d failed a tar step\n", p);
      r.failed += 2 * n;
      continue;
    }
    CheckCount check = VerifyExtractedFiles(
        *d.clients.back(),
        ProcDir(p) + "/extracted/p" + std::to_string(p), datasets[p]);
    check.Add(VerifyRetrievedTar(
        ebs, "retrieved_p" + std::to_string(p) + ".tar", datasets[p]));
    r.failed += check.failed;
  }
  r.create_us = creates.Take();
  r.stat_us = stats.Take();
  return r;
}

RoundResult MdtestRound(std::uint64_t seed, int round, obs::Tracer* tracer) {
  RoundResult r;
  LatencyLog creates, stats;
  const UserCred cred = UserCred::Root();

  const TimePoint setup_start = Now();
  Deployment d = Deploy(DataPlacement::kReplica, kClientThreads,
                        CacheConfig{}.max_entries, tracer != nullptr, &creates,
                        &stats, nullptr);
  const std::string root = "/mdtest";
  Require(d.mounts[0]->MkdirAll(root, 0777, cred), "mkdir root");
  for (int dir = 0; dir < kMdtestDirs; ++dir) {
    Require(d.mounts[0]->Mkdir(root + "/shared" + std::to_string(dir), 0777,
                               cred),
            "mkdir shared dir");
  }
  // The seed places every file in the directory pool and fills it.
  std::vector<std::vector<std::string>> paths(kClientThreads);
  std::vector<std::vector<Bytes>> contents(kClientThreads);
  for (int p = 0; p < kClientThreads; ++p) {
    for (int i = 0; i < kMdtestFiles; ++i) {
      const std::uint64_t dir =
          MixSeed(seed, static_cast<std::uint64_t>(round),
                  static_cast<std::uint64_t>(p),
                  static_cast<std::uint64_t>(i)) %
          kMdtestDirs;
      paths[p].push_back(root + "/shared" + std::to_string(dir) + "/p" +
                         std::to_string(p) + "." + std::to_string(i));
      contents[p].push_back(
          MdtestFileContent(seed, round, p, i, kMdtestFileSize));
    }
  }
  r.setup_s = SecondsSince(setup_start);
  r.files = static_cast<std::uint64_t>(kClientThreads) * kMdtestFiles;
  const obs::MetricsSnapshot setup_metrics = d.registry->Snapshot();
  const ProbeStore::Totals setup_store = d.probe->totals();

  std::atomic<std::uint64_t> failed{0};
  auto fail = [&failed](const char* op, const std::string& path) {
    failed.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "mdtest_hard: %s %s failed\n", op, path.c_str());
  };
  // Stat and read go to the neighbour process's files, which another node
  // wrote (mdtest -N 1), so neither is served from the writer's cache.
  auto neighbour = [](int p) { return (p + 1) % kClientThreads; };

  const std::int64_t timed_start_ns = NowNanos();
  SetBenchTracer(tracer);
  const double write_s = TimedPhase([&](int p) {
    Vfs& vfs = *d.mounts[p];
    OpenOptions create;
    create.write = true;
    create.create = true;
    for (int i = 0; i < kMdtestFiles; ++i) {
      OpScope op("op.create");
      auto fd = vfs.Open(paths[p][i], create, cred);
      if (!fd.ok()) {
        fail("create", paths[p][i]);
        continue;
      }
      auto n = vfs.Write(*fd, 0, contents[p][i]);
      const bool closed = vfs.Close(*fd).ok();
      if (!n.ok() || *n != kMdtestFileSize || !closed) {
        fail("write", paths[p][i]);
      }
    }
    if (!vfs.SyncAll().ok()) fail("sync", root);
  });
  const double stat_s = TimedPhase([&](int p) {
    Vfs& vfs = *d.mounts[p];
    const int q = neighbour(p);
    for (int i = 0; i < kMdtestFiles; ++i) {
      auto st = vfs.Stat(paths[q][i], cred);
      if (!st.ok() || st->size != kMdtestFileSize) fail("stat", paths[q][i]);
    }
  });
  const double read_s = TimedPhase([&](int p) {
    Vfs& vfs = *d.mounts[p];
    const int q = neighbour(p);
    for (int i = 0; i < kMdtestFiles; ++i) {
      OpScope op("op.read");
      auto fd = vfs.Open(paths[q][i], OpenOptions{}, cred);
      if (!fd.ok()) {
        fail("open", paths[q][i]);
        continue;
      }
      auto data = vfs.Read(*fd, 0, kMdtestFileSize);
      const bool closed = vfs.Close(*fd).ok();
      if (!data.ok() || *data != contents[q][i] || !closed) {
        fail("read", paths[q][i]);
      }
    }
  });
  const double delete_s = TimedPhase([&](int p) {
    Vfs& vfs = *d.mounts[p];
    for (int i = 0; i < kMdtestFiles; ++i) {
      if (!vfs.Unlink(paths[p][i], cred).ok()) fail("unlink", paths[p][i]);
    }
    if (!vfs.SyncAll().ok()) fail("sync", root);
  });
  SetBenchTracer(nullptr);
  CollectClientSpans(d, tracer, timed_start_ns);

  r.metrics = SinceSetup(d.registry->Snapshot(), setup_metrics);
  r.store = SinceSetup(d.probe->totals(), setup_store);
  r.phase_s["mdtest.write_s"] = write_s;
  r.phase_s["mdtest.stat_s"] = stat_s;
  r.phase_s["mdtest.read_s"] = read_s;
  r.phase_s["mdtest.delete_s"] = delete_s;
  r.round_s = write_s + stat_s + read_s + delete_s;
  r.write_s = write_s;
  r.write_bytes = static_cast<double>(r.files * kMdtestFileSize);
  r.read_s = read_s;
  r.read_bytes = r.write_bytes;
  // WRITE, STAT, READ and DELETE of every file.
  r.attempted = 4 * r.files;
  r.failed = failed.load();
  r.create_us = creates.Take();
  r.stat_us = stats.Take();
  return r;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "archive" || name == "archive_tiered" ||
         name == "mdtest_hard";
}

RoundResult RunRound(const std::string& workload, std::uint64_t seed,
                     int round, obs::Tracer* tracer) {
  if (workload == "mdtest_hard") return MdtestRound(seed, round, tracer);
  return ArchiveRound(workload == "archive_tiered", seed, round, tracer);
}

}  // namespace perfbench
