// ArkFS repository benchmark.
//
//   arkfs_perfbench --workload <archive|archive_tiered|mdtest_hard>
//                   --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Runs closed-loop rounds of the workload (4 client threads) until
// --seconds have passed, checks every output, and prints human-readable
// lines followed by one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// time is split into an untraced and a traced pass; the metrics are the
// per-layer ones, read from the traced pass, plus the tracing overhead
// (traced / untraced). --trace-out receives the traced pass's spans in the
// binary form tools/arktrace prints.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "analysis.h"
#include "common/codec.h"
#include "objstore/ec_codec.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace obs = arkfs::obs;

// Bounds a pass whose rounds run far slower than expected.
constexpr double kPassCapSeconds = 60;
constexpr int kMinRounds = 3;
// The traced pass keeps every span in memory until it is written out, so
// it stops after a few rounds (up to ~250k spans each) even if time is left.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 21;
constexpr int kTracedRoundCap = 6;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      have_seconds = end != value.c_str() && *end == '\0' &&
                     args->seconds >= 1 && args->seconds <= 600;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && IsWorkload(args->workload) && have_seed &&
         have_seconds && have_trace;
}

struct Pass {
  std::vector<RoundResult> rounds;
  std::uint64_t attempted = 0, failed = 0;
};

double SecondsSince(arkfs::TimePoint start) {
  return std::chrono::duration<double>(arkfs::Now() - start).count();
}

double WriteMBps(const RoundResult& r) { return r.write_bytes / r.write_s / 1e6; }
double ReadMBps(const RoundResult& r) { return r.read_bytes / r.read_s / 1e6; }

Pass RunPass(const Args& args, double budget_s, obs::Tracer* tracer) {
  const int round_cap = tracer == nullptr ? INT32_MAX : kTracedRoundCap;
  Pass pass;
  const arkfs::TimePoint start = arkfs::Now();
  for (int round = 0;; ++round) {
    RoundResult r = RunRound(args.workload, args.seed, round, tracer);
    std::printf(
        "round %d: setup %.3f s, round %.3f s, write %.2f MB/s, read %.2f "
        "MB/s, failed %llu/%llu\n",
        round, r.setup_s, r.round_s, WriteMBps(r), ReadMBps(r),
        static_cast<unsigned long long>(r.failed),
        static_cast<unsigned long long>(r.attempted));
    for (const auto& [name, secs] : r.phase_s) {
      std::printf("  %s %.3f\n", name.c_str(), secs);
    }
    pass.attempted += r.attempted;
    pass.failed += r.failed;
    pass.rounds.push_back(std::move(r));
    const double elapsed = SecondsSince(start);
    if (elapsed >= kPassCapSeconds) break;
    if (elapsed >= budget_s && round + 1 >= kMinRounds) break;
    if (round + 1 >= round_cap) break;
  }
  return pass;
}

double MedianOf(const Pass& pass,
                const std::function<double(const RoundResult&)>& f) {
  std::vector<double> values;
  for (const auto& r : pass.rounds) values.push_back(f(r));
  return Median(std::move(values));
}

double Finite(double v) { return std::isfinite(v) ? v : 0; }

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// Median over rounds of each round's latency percentile. Every round of
// every workload yields well over 1000 creates and stats, so its p99 has
// ten samples beyond it; a round that does not is an error.
double RoundPercentile(const Pass& pass, std::vector<double> RoundResult::*log,
                       double q) {
  return MedianOf(pass, [log, q](const RoundResult& r) {
    auto v = Percentile(r.*log, q);
    if (!v) throw std::runtime_error("too few latency samples in a round");
    return *v;
  });
}

// The end-to-end metrics; the same names on every workload. The gated
// latency tail is the p90: a round's p99 sits on the edge of its rare
// stalls and moved 2-4x between rounds on a 4-vCPU host, so it is
// reported per layer.
std::vector<Metric> EndToEnd(const Pass& pass) {
  auto pct = [&pass](std::vector<double> RoundResult::*log, double q) {
    return RoundPercentile(pass, log, q);
  };
  return {
      {"setup_s", "s", MedianOf(pass, [](auto& r) { return r.setup_s; })},
      {"write_MBps", "MB/s", MedianOf(pass, WriteMBps)},
      {"read_MBps", "MB/s", MedianOf(pass, ReadMBps)},
      {"round_s", "s", MedianOf(pass, [](auto& r) { return r.round_s; })},
      {"create_p50_us", "us", pct(&RoundResult::create_us, 0.50)},
      {"create_p90_us", "us", pct(&RoundResult::create_us, 0.90)},
      {"stat_p50_us", "us", pct(&RoundResult::stat_us, 0.50)},
      {"stat_p90_us", "us", pct(&RoundResult::stat_us, 0.90)},
  };
}

// The end-to-end figures the paper's tables report per workload, printed
// for people; folded into the per-layer JSON of a traced run.
std::vector<Metric> PaperFigures(const std::string& workload,
                                 const Pass& pass) {
  std::vector<Metric> out;
  const bool archive = workload != "mdtest_hard";
  auto phase_rate = [&](const char* phase) {
    return MedianOf(pass, [phase](const RoundResult& r) {
      auto it = r.phase_s.find(phase);
      return it == r.phase_s.end() ? 0.0
                                   : static_cast<double>(r.files) / it->second;
    });
  };
  out.push_back({"archive_MBps", "MB/s", archive ? MedianOf(pass, WriteMBps) : 0});
  out.push_back({"unarchive_MBps", "MB/s", archive ? MedianOf(pass, ReadMBps) : 0});
  out.push_back({"demote_MBps", "MB/s",
                 workload == "archive_tiered"
                     ? MedianOf(pass, [](auto& r) {
                         return r.demote_bytes / r.demote_s / 1e6;
                       })
                     : 0});
  out.push_back({"storage_ratio", "x",
                 archive ? pass.rounds.front().storage_ratio : 0});
  out.push_back({"write_files_per_s", "files/s",
                 archive ? 0 : phase_rate("mdtest.write_s")});
  out.push_back({"stat_files_per_s", "files/s",
                 archive ? 0 : phase_rate("mdtest.stat_s")});
  out.push_back({"read_files_per_s", "files/s",
                 archive ? 0 : phase_rate("mdtest.read_s")});
  out.push_back({"delete_files_per_s", "files/s",
                 archive ? 0 : phase_rate("mdtest.delete_s")});
  out.push_back({"failed_op_ratio", "ratio",
                 static_cast<double>(pass.failed) /
                     static_cast<double>(std::max<std::uint64_t>(pass.attempted, 1))});
  return out;
}

// Single-thread throughput of `fn` over `bytes` per call, timed by the
// benchmark for at least 0.2 s.
double KernelMBps(std::size_t bytes, const std::function<void()>& fn) {
  fn();  // warm the tables and caches
  const arkfs::TimePoint start = arkfs::Now();
  std::uint64_t calls = 0;
  double elapsed = 0;
  do {
    fn();
    ++calls;
    elapsed = SecondsSince(start);
  } while (elapsed < 0.2);
  return static_cast<double>(calls * bytes) / elapsed / 1e6;
}

std::vector<Metric> PerLayer(const std::string& workload, const Pass& base,
                             const Pass& traced,
                             const std::vector<obs::SpanRecord>& spans) {
  const SpanFold fold = FoldSpans(spans);
  std::vector<Metric> out;
  auto add = [&out](std::string name, std::string unit, double value) {
    out.push_back({std::move(name), std::move(unit), Finite(value)});
  };
  auto counter = [&traced](const std::string& name) {
    double sum = 0;
    for (const auto& r : traced.rounds) {
      sum += static_cast<double>(r.metrics.counter(name));
    }
    return sum;
  };
  auto gauge_max = [&traced](const std::string& name) {
    double peak = 0;
    for (const auto& r : traced.rounds) {
      peak = std::max(peak, static_cast<double>(r.metrics.gauge(name)));
    }
    return peak;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  // A span-duration percentile; 0 where the ten-beyond rule is not met.
  auto span_pct = [&fold](const std::string& name, double q) {
    auto it = fold.durations_us.find(name);
    if (it == fold.durations_us.end()) return 0.0;
    return Percentile(it->second, q).value_or(0.0);
  };
  auto hist_us = [&traced](const std::string& name, bool p99) {
    std::vector<double> values;
    for (const auto& r : traced.rounds) {
      const auto h = r.metrics.histogram(name);
      if (h.count > 0) {
        values.push_back(static_cast<double>(p99 ? h.p99_ns : h.p50_ns) / 1e3);
      }
    }
    return Median(std::move(values));
  };
  double files = 0, write_bytes = 0, read_bytes = 0;
  ProbeStore::Totals store;
  for (const auto& r : traced.rounds) {
    files += static_cast<double>(r.files);
    write_bytes += r.write_bytes;
    read_bytes += r.read_bytes;
    for (int k = 0; k < ProbeStore::kKinds; ++k) {
      store.ops[k] += r.store.ops[k];
      store.errors[k] += r.store.errors[k];
    }
    store.bytes_read += r.store.bytes_read;
    store.bytes_written += r.store.bytes_written;
    store.ec_shard_bytes_written += r.store.ec_shard_bytes_written;
  }

  // core: the Vfs as seen above FuseSim, the FUSE model, the client cells.
  std::size_t fuse_spans = 0;
  for (const auto& [name, samples] : fold.durations_us) {
    if (name.rfind("fuse.", 0) == 0) fuse_spans += samples.size();
  }
  for (const char* op : {"open", "close", "read", "write", "stat", "mkdir",
                         "unlink"}) {
    add(std::string("vfs.") + op + ".p50_us", "us",
        span_pct(std::string("fuse.") + op, 0.50));
    add(std::string("vfs.") + op + ".p99_us", "us",
        span_pct(std::string("fuse.") + op, 0.99));
  }
  auto self_s = [&fold](const std::string& layer) {
    auto it = fold.self_ns.find(layer);
    return it == fold.self_ns.end() ? 0.0 : static_cast<double>(it->second) / 1e9;
  };
  add("fuse.self_us_per_op", "us",
      ratio(self_s("fuse") * 1e6, static_cast<double>(fuse_spans)));
  for (const char* name : {"client.forwarded_ops", "client.served_remote_ops",
                           "client.stat.local", "client.stat.forwarded",
                           "client.stat.delegated"}) {
    add(name, "count", counter(name));
  }
  add("client.deleg.hit_ratio", "ratio",
      ratio(counter("client.deleg.hits"),
            counter("client.deleg.hits") + counter("client.deleg.misses")));

  // lease
  add("lease.acquires", "count", counter("client.lease_acquires"));
  add("lease.acquire.p99_us", "us", span_pct("lease.acquire", 0.99));
  add("lease.redirects", "count", counter("lease.redirects"));
  add("lease.waits", "count", counter("lease.waits"));

  // journal (commit/checkpoint latency: the busiest client's histogram,
  // median over rounds)
  add("journal.commit.count", "count", counter("journal.transactions_committed"));
  add("journal.commit.p50_us", "us", hist_us("journal.commit", false));
  add("journal.commit.p99_us", "us", hist_us("journal.commit", true));
  add("journal.checkpoint.count", "count", counter("journal.checkpoints"));
  add("journal.checkpoint.p99_us", "us", hist_us("journal.checkpoint", true));
  add("journal.bytes_per_mutation", "B",
      ratio(counter("journal.bytes_written"),
            counter("journal.records_committed")));
  add("journal.dentry.shards_written", "count",
      counter("journal.dentry.shards_written"));
  add("journal.group.stalls", "count", counter("journal.group.stalls"));

  // cache
  add("cache.hit_ratio", "ratio",
      ratio(counter("cache.hits"), counter("cache.hits") + counter("cache.misses")));
  for (const char* name : {"cache.misses", "cache.readahead_loads",
                           "cache.writebacks", "cache.evictions"}) {
    add(name, "count", counter(name));
  }

  // prt/objstore: the benchmark's decorator over the ClusterObjectStore.
  double store_ops = 0;
  for (int k = 0; k < ProbeStore::kKinds; ++k) {
    const std::string kind = ProbeStore::KindName(k);
    add("objstore." + kind + ".count", "count", static_cast<double>(store.ops[k]));
    add("objstore." + kind + ".p50_us", "us", span_pct("store." + kind, 0.50));
    add("objstore." + kind + ".p99_us", "us", span_pct("store." + kind, 0.99));
    add("objstore." + kind + ".errors", "count",
        static_cast<double>(store.errors[k]));
    store_ops += static_cast<double>(store.ops[k]);
  }
  add("objstore.busy_s", "s", static_cast<double>(fold.store_busy_ns) / 1e9);
  add("objstore.write_amp", "x",
      ratio(static_cast<double>(store.bytes_written), write_bytes));
  add("objstore.read_amp", "x",
      ratio(static_cast<double>(store.bytes_read), read_bytes));
  add("objstore.ops_per_file", "ops/file", ratio(store_ops, files));

  // asyncio
  add("asyncio.batches", "count", counter("asyncio.batches"));
  add("asyncio.ops_per_batch", "ops/batch",
      ratio(counter("asyncio.ops_submitted"), counter("asyncio.batches")));
  add("asyncio.peak_in_flight", "count", gauge_max("asyncio.peak_in_flight"));
  add("asyncio.overlap_saved_s", "s", counter("asyncio.overlap_saved_ns") / 1e9);

  // ec, with the two byte-path kernels timed single-threaded at the
  // workload's chunk size: the mean demoted object under tiering, else the
  // mean object written to the cluster.
  for (const char* name : {"ec.encodes", "ec.reconstructs", "ec.degraded_reads"}) {
    add(name, "count", counter(name));
  }
  add("ec.encoded_bytes", "B", static_cast<double>(store.ec_shard_bytes_written));
  const double chunk =
      counter("tier.demotions") > 0
          ? counter("tier.demoted_bytes") / counter("tier.demotions")
          : ratio(static_cast<double>(store.bytes_written),
                  static_cast<double>(store.ops[ProbeStore::kPut] +
                                      store.ops[ProbeStore::kPutRange]));
  const std::size_t chunk_bytes = static_cast<std::size_t>(
      std::clamp(chunk, 4096.0, 4.0 * 1024 * 1024));
  arkfs::Bytes object(chunk_bytes);
  for (std::size_t i = 0; i < object.size(); ++i) {
    object[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  std::uint32_t crc_sink = 0;
  add("kernel.crc32c_MBps", "MB/s", KernelMBps(chunk_bytes, [&] {
        crc_sink = arkfs::Crc32c(object, crc_sink);
      }));
  const arkfs::ec::RsCodec codec(4, 2);
  const std::size_t shard = (chunk_bytes + 3) / 4;
  object.resize(shard * 4, 0);
  std::vector<arkfs::ByteSpan> data;
  for (int i = 0; i < 4; ++i) {
    data.emplace_back(object.data() + static_cast<std::size_t>(i) * shard, shard);
  }
  std::vector<arkfs::Bytes> parity;
  add("kernel.rs_encode_MBps", "MB/s", KernelMBps(shard * 4, [&] {
        codec.EncodeParity(data, &parity);
      }));
  std::printf("kernels timed at %zu B chunks (chained crc %08x)\n",
              chunk_bytes, crc_sink);

  // tier
  for (const char* name : {"tier.hot_puts", "tier.pointer_flips",
                           "tier.demotions", "tier.cold_gets", "tier.races"}) {
    add(name, "count", counter(name));
  }
  add("migrate.pass_s", "s", MedianOf(traced, [](auto& r) { return r.demote_s; }));

  // workloads / sim
  for (const char* name : {"tar.archive_s", "tar.extract_s", "tar.sync_s",
                           "tar.unarchive_s"}) {
    add(name, "s", MedianOf(traced, [name](const RoundResult& r) {
          auto it = r.phase_s.find(name);
          return it == r.phase_s.end() ? 0.0 : it->second;
        }));
  }
  add("disk.bound_s", "s",
      MedianOf(traced, [](auto& r) { return r.disk_bytes / 1e9; }));

  // tracing itself
  const std::vector<Metric> untraced = EndToEnd(base);
  const std::vector<Metric> with_trace = EndToEnd(traced);
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    add("trace.overhead." + untraced[i].name, "x",
        ratio(with_trace[i].value, untraced[i].value));
  }
  add("trace.spans", "count", static_cast<double>(spans.size()));
  add("trace.store_attributed_ratio", "ratio",
      ratio(static_cast<double>(fold.store_spans_attributed),
            static_cast<double>(fold.store_spans - fold.store_spans_background)));
  add("trace.store_background_ratio", "ratio",
      ratio(static_cast<double>(fold.store_spans_background),
            static_cast<double>(fold.store_spans)));

  // Per-layer self time folded from the spans.
  for (const char* layer : {"workload", "fuse", "core", "lease", "journal",
                            "objstore", "cluster"}) {
    add(std::string("layer.") + layer + ".self_s", "s", self_s(layer));
  }
  add("layer.background.self_s", "s",
      static_cast<double>(fold.background_self_ns) / 1e9);

  for (const Metric& m : PaperFigures(workload, base)) add(m.name, m.unit, m.value);
  add("create_p99_us", "us", RoundPercentile(base, &RoundResult::create_us, 0.99));
  add("stat_p99_us", "us", RoundPercentile(base, &RoundResult::stat_us, 0.99));
  double creates = 0, stats = 0;
  for (const auto& r : base.rounds) {
    creates += static_cast<double>(r.create_us.size());
    stats += static_cast<double>(r.stat_us.size());
  }
  add("create.samples", "count", creates);
  add("stat.samples", "count", stats);
  return out;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintSampleCounts(const Pass& pass) {
  for (const auto& [name, log] : {std::pair{"create", &RoundResult::create_us},
                                  std::pair{"stat", &RoundResult::stat_us}}) {
    std::size_t fewest = SIZE_MAX, total = 0;
    for (const auto& r : pass.rounds) {
      fewest = std::min(fewest, (r.*log).size());
      total += (r.*log).size();
    }
    std::printf("  %s latency: %zu samples in %zu rounds, at least %zu per "
                "round (p99 has >= %zu beyond)\n",
                name, total, pass.rounds.size(), fewest,
                fewest - static_cast<std::size_t>(std::ceil(0.99 * fewest - 1e-9)));
  }
}

void PrintJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", Finite(metrics[i].value));
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: arkfs_perfbench --workload <archive|archive_tiered|"
                 "mdtest_hard> --seed <n> --seconds <1-600> --trace <0|1> "
                 "[--trace-out <file>]\n");
    return 2;
  }
  std::printf("workload=%s seed=%llu seconds=%d trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  const double budget = args.trace ? args.seconds / 2.0 : args.seconds;
  const Pass base = RunPass(args, budget, nullptr);
  std::uint64_t attempted = base.attempted, failed = base.failed;

  std::printf("end-to-end (%zu rounds):\n", base.rounds.size());
  const std::vector<Metric> e2e = EndToEnd(base);
  PrintMetrics(e2e);
  PrintSampleCounts(base);
  std::printf("paper figures for %s:\n", args.workload.c_str());
  PrintMetrics(PaperFigures(args.workload, base));
  std::printf("  %-36s %.6g us\n  %-36s %.6g us\n", "create_p99_us",
              RoundPercentile(base, &RoundResult::create_us, 0.99),
              "stat_p99_us", RoundPercentile(base, &RoundResult::stat_us, 0.99));

  std::vector<Metric> reported = e2e;
  if (args.trace) {
    obs::Tracer tracer(kTraceCapacity);
    const Pass traced = RunPass(args, budget, &tracer);
    attempted += traced.attempted;
    failed += traced.failed;
    const std::vector<obs::SpanRecord> spans = tracer.Spans();
    std::printf("traced pass (%zu rounds, %zu spans%s):\n",
                traced.rounds.size(), spans.size(),
                spans.size() >= kTraceCapacity ? ", ring wrapped" : "");
    reported = PerLayer(args.workload, base, traced, spans);
    PrintMetrics(reported);
    if (!args.trace_out.empty()) {
      const arkfs::Bytes dump = obs::Tracer::EncodeSpans(spans);
      std::ofstream out(args.trace_out, std::ios::binary);
      out.write(reinterpret_cast<const char*>(dump.data()),
                static_cast<std::streamsize>(dump.size()));
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
        return 1;
      }
      std::printf("spans written to %s (tools/arktrace prints them)\n",
                  args.trace_out.c_str());
    }
  }
  const bool correct = failed == 0;
  PrintJson(correct, attempted, failed, reported);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "arkfs_perfbench: %s\n", e.what());
    return 1;
  }
}
