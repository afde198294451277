// The benchmark's three closed-loop workloads. One call runs one round:
// a fresh deployment is set up (timed as set-up), the workload's phases run
// with 4 client threads (timed), the layer cells and store counters are
// read, and only then is every output checked (untimed).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "probes.h"

namespace perfbench {

inline constexpr int kClientThreads = 4;

bool IsWorkload(const std::string& name);

struct RoundResult {
  double setup_s = 0;
  double round_s = 0;  // every timed phase of the round, back to back
  // Ingest phase: archive + extract + SyncAll, or the mdtest WRITE phase.
  double write_bytes = 0;
  double write_s = 0;
  // Cold retrieval: unarchive to the SimDisk, or the mdtest READ phase.
  double read_bytes = 0;
  double read_s = 0;
  // Named phase wall times: "tar.archive_s", "mdtest.stat_s", ...
  std::map<std::string, double> phase_s;
  // archive_tiered: the forced migration pass.
  double demote_s = 0;
  double demote_bytes = 0;
  double storage_ratio = 0;   // physical / logical data-plane bytes
  double disk_bytes = 0;      // bytes moved on the EBS-like SimDisk
  std::uint64_t files = 0;    // workload files per round
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> create_us;
  std::vector<double> stat_us;
  arkfs::obs::MetricsSnapshot metrics;  // the deployment's layer cells
  ProbeStore::Totals store;
};

// Runs round `round` of `workload` with inputs drawn from `seed`. When
// `tracer` is non-null, spans are recorded into it during the timed phases.
RoundResult RunRound(const std::string& workload, std::uint64_t seed,
                     int round, arkfs::obs::Tracer* tracer);

}  // namespace perfbench
