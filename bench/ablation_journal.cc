// Ablation — journaling parameters (paper §III-E).
//
// Two sweeps on the real implementation:
//   1. Commit interval: how much does compound-transaction buffering (1 s in
//      the paper) matter for create throughput?
//   2. Checkpoint thread count: per-directory journals checkpoint in
//      parallel — serializing them onto one thread shows the bottleneck the
//      paper's design avoids. (Commits always fan out from the journal's
//      one flusher through the async I/O layer.)
#include "bench_util.h"
#include "workloads/mdtest.h"

using namespace arkfs;

namespace {

double CreateThroughput(Nanos commit_interval, int checkpoint_threads,
                        int dirs) {
  auto store = std::make_shared<ClusterObjectStore>(ClusterConfig::RadosLike());
  ArkFsClusterOptions options;
  options.network = sim::NetworkProfile::Datacenter10G();
  options.lease = lease::LeaseManagerConfig{Seconds(5), Millis(100)};
  ClientConfig client;
  client.journal.commit_interval = commit_interval;
  client.journal.checkpoint_threads = checkpoint_threads;
  options.client_template = client;
  auto cluster = ArkFsCluster::Create(store, options).value();
  auto ark = cluster->AddClient().value();

  workloads::MdtestConfig config;
  config.num_processes = dirs;  // one private dir (=journal) per process
  config.files_per_process = 150;
  auto result = workloads::RunMdtestCreateOnly(
      [&](int) -> VfsPtr { return ark; }, config);
  return result.ok() ? result->ops_per_second : 0;
}

}  // namespace

int main() {
  bench::Header("Ablation: per-directory journaling parameters",
                "supports SIII-E (compound transactions, parallel commits)");

  std::printf("\n  commit-interval sweep (8 dirs, 2 checkpoint threads):\n");
  std::printf("  %14s %14s\n", "interval", "creates/s");
  for (auto interval : {Millis(1), Millis(20), Millis(200), Millis(1000)}) {
    const double ops = CreateThroughput(interval, 2, 8);
    std::printf("  %11lld ms %14.0f\n",
                static_cast<long long>(interval.count() / 1000000), ops);
  }

  std::printf("\n  checkpoint-thread sweep (commit interval 20 ms, 8 dirs):\n");
  std::printf("  %10s %14s\n", "checkpoint", "creates/s");
  for (int threads : {1, 2, 4}) {
    const double ops = CreateThroughput(Millis(20), threads, 8);
    std::printf("  %10d %14.0f\n", threads, ops);
  }
  bench::Note("creates are buffered in memory, so throughput is largely "
              "insensitive to the interval until fsync; the checkpoint thread "
              "count matters once checkpoints compete");
  return 0;
}
