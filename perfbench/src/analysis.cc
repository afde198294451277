#include "analysis.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {

namespace {

std::size_t NearestRank(std::size_t n, double q) {
  // The epsilon keeps 0.99 * 1000 at rank 990 despite binary rounding.
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return static_cast<std::size_t>(std::max(rank, 1.0));
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

bool HasTenBeyond(std::size_t n, double q) {
  if (n == 0 || q <= 0 || q >= 1) return false;
  return n - std::min(NearestRank(n, q), n) >= 10;
}

std::optional<double> Percentile(std::vector<double> samples, double q) {
  if (!HasTenBeyond(samples.size(), q)) return std::nullopt;
  const std::size_t rank = NearestRank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::int64_t CoveredLength(std::vector<Interval> intervals, std::int64_t lo,
                           std::int64_t hi) {
  for (Interval& iv : intervals) {
    iv.start = std::max(iv.start, lo);
    iv.end = std::min(iv.end, hi);
  }
  std::erase_if(intervals, [](const Interval& iv) { return iv.end <= iv.start; });
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::int64_t covered = 0;
  std::int64_t cur_start = 0, cur_end = 0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (open && iv.start <= cur_end) {
      cur_end = std::max(cur_end, iv.end);
      continue;
    }
    if (open) covered += cur_end - cur_start;
    cur_start = iv.start;
    cur_end = iv.end;
    open = true;
  }
  if (open) covered += cur_end - cur_start;
  return covered;
}

std::int64_t SelfTime(const Interval& span,
                      const std::vector<Interval>& children) {
  const std::int64_t duration = std::max<std::int64_t>(span.end - span.start, 0);
  return duration - CoveredLength(children, span.start, span.end);
}

std::string LayerOf(const std::string& name) {
  if (StartsWith(name, "op.")) return "workload";
  if (StartsWith(name, "fuse.")) return "fuse";
  if (StartsWith(name, "core.") || StartsWith(name, "vfs.") ||
      StartsWith(name, "client.")) {
    return "core";
  }
  if (StartsWith(name, "lease.")) return "lease";
  if (StartsWith(name, "journal.")) return "journal";
  if (StartsWith(name, "objstore.")) return "objstore";
  if (StartsWith(name, "store.")) return "cluster";
  return "other";
}

SpanFold FoldSpans(const std::vector<arkfs::obs::SpanRecord>& spans) {
  SpanFold fold;
  std::unordered_map<std::uint64_t, std::vector<Interval>> children;
  std::unordered_set<std::uint64_t> op_traces;  // traces rooted by an op
  std::vector<Interval> store_intervals;
  for (const auto& s : spans) {
    if (s.parent_span != 0) {
      children[s.parent_span].push_back({s.start_ns, s.end_ns});
    } else if (s.trace_id != 0) {
      op_traces.insert(s.trace_id);
    }
  }
  for (const auto& s : spans) {
    auto kids = children.find(s.span_id);
    const std::int64_t self =
        kids == children.end()
            ? std::max<std::int64_t>(s.end_ns - s.start_ns, 0)
            : SelfTime({s.start_ns, s.end_ns}, kids->second);
    fold.self_ns[LayerOf(s.name)] += self;
    if (s.trace_id == 0) fold.background_self_ns += self;
    fold.durations_us[s.name].push_back(
        static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    if (StartsWith(s.name, "store.")) {
      ++fold.store_spans;
      if (s.trace_id == 0) {
        ++fold.store_spans_background;
      } else if (op_traces.count(s.trace_id) != 0) {
        ++fold.store_spans_attributed;
      }
      store_intervals.push_back({s.start_ns, s.end_ns});
    }
  }
  fold.store_busy_ns =
      CoveredLength(std::move(store_intervals),
                    std::numeric_limits<std::int64_t>::min(),
                    std::numeric_limits<std::int64_t>::max());
  return fold;
}

}  // namespace perfbench
