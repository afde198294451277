// Pure helpers the benchmark folds its measurements with: percentiles under
// the "ten samples beyond" rule, interval-union self time, and the mapping
// of recorded spans onto the ArkFS layers they time.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

// True when at least ten of `n` samples lie strictly above the nearest-rank
// q-quantile (q in (0, 1)): a p99 needs n >= 1000, a p50 needs n >= 20.
bool HasTenBeyond(std::size_t n, double q);

// Nearest-rank q-quantile of `samples`, or nullopt when the sample count
// does not satisfy HasTenBeyond.
std::optional<double> Percentile(std::vector<double> samples, double q);

// Plain median (no sample-count rule); 0 for an empty input. Used for
// per-round figures such as set-up time.
double Median(std::vector<double> values);

struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

// Length of the union of `intervals`, each clipped to [lo, hi].
std::int64_t CoveredLength(std::vector<Interval> intervals, std::int64_t lo,
                           std::int64_t hi);

// A span's self time: its duration minus the part of it that the union of
// its children's intervals covers. Children may overlap each other (async
// I/O fans out) and may outlive the parent (background hand-offs); neither
// is double-counted or charged to the parent.
std::int64_t SelfTime(const Interval& span,
                      const std::vector<Interval>& children);

// The layer a span name belongs to: "workload" (load-generator op scopes),
// "fuse" (above FuseSim), "core" (below FuseSim and the client's own Vfs
// spans), "lease", "journal", "objstore" (the client-side store stack:
// tiering, EC and retry above the cluster), "cluster" (the benchmark's
// decorator directly over the ClusterObjectStore), or "other".
std::string LayerOf(const std::string& span_name);

struct SpanFold {
  std::map<std::string, std::int64_t> self_ns;  // per layer
  std::int64_t background_self_ns = 0;          // spans with no causing op
  // Duration samples (microseconds) per span name.
  std::map<std::string, std::vector<double>> durations_us;
  std::size_t store_spans = 0;
  std::size_t store_spans_attributed = 0;  // carry a recorded op's trace id
  std::size_t store_spans_background = 0;  // no causing op
  // Union of every cluster-store span interval: time the store was busy.
  std::int64_t store_busy_ns = 0;
};

// Folds a span dump into per-layer self times and per-name durations.
SpanFold FoldSpans(const std::vector<arkfs::obs::SpanRecord>& spans);

}  // namespace perfbench
