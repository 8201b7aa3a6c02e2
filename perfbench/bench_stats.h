// Copyright 2026 The updb Authors.
// Statistics helpers of the end-to-end benchmark: the tail-percentile rule
// (the highest percentile of a fixed ladder with at least ten samples
// beyond it), nearest-rank percentiles, quartile spreads, and the
// self-time fold that turns a recorded span tree into per-layer busy
// time. Header-only so the self-tests exercise exactly the code the runs
// use.

#ifndef UPDB_PERFBENCH_BENCH_STATS_H_
#define UPDB_PERFBENCH_BENCH_STATS_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Percentile ladder in hundredths of a percent (9990 = p99.9), highest
/// first.
inline constexpr int64_t kPercentileLadder[] = {9999, 9990, 9900, 9500,
                                                9000, 7500, 5000};

/// Samples a tail percentile must leave beyond it.
inline constexpr size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of percentile `p` (hundredths of a percent) among
/// `n` samples: ceil(p * n / 10000), at least 1.
inline size_t NearestRank(int64_t p, size_t n) {
  const uint64_t r = (static_cast<uint64_t>(p) * n + 9999) / 10000;
  return std::max<uint64_t>(1, r);
}

/// The highest ladder percentile whose nearest-rank value leaves at least
/// kMinSamplesBeyond samples above it; p50 when even that does not (fewer
/// than 20 samples).
inline int64_t TailPercentile(size_t n) {
  for (int64_t p : kPercentileLadder) {
    if (n >= NearestRank(p, n) + kMinSamplesBeyond) return p;
  }
  return 5000;
}

/// A percentile read off a sample set, with what it rests on.
struct PercentilePoint {
  int64_t percentile = 5000;  // hundredths of a percent
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;  // samples strictly above the chosen rank
};

/// Nearest-rank percentile `p` of `values` (any order). Empty input
/// yields a zero point.
inline PercentilePoint Percentile(std::vector<double> values, int64_t p) {
  PercentilePoint out;
  out.percentile = p;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const size_t rank = NearestRank(p, values.size());
  out.value = values[rank - 1];
  out.beyond = values.size() - rank;
  return out;
}

inline PercentilePoint Median(const std::vector<double>& values) {
  return Percentile(values, 5000);
}

inline PercentilePoint Tail(const std::vector<double>& values) {
  return Percentile(values, TailPercentile(values.size()));
}

/// "p99.9"-style label of a ladder percentile.
inline std::string PercentileLabel(int64_t p) {
  const long long whole = p / 100, frac = p % 100;
  char buf[32];
  if (frac == 0) {
    std::snprintf(buf, sizeof(buf), "p%lld", whole);
  } else if (frac % 10 == 0) {
    std::snprintf(buf, sizeof(buf), "p%lld.%lld", whole, frac / 10);
  } else {
    std::snprintf(buf, sizeof(buf), "p%lld.%02lld", whole, frac);
  }
  return buf;
}

/// Quartiles of `values` by linear interpolation between order
/// statistics (the "exclusive" method of Python's
/// statistics.quantiles(n=4)); needs at least two values.
struct Quartiles {
  double q1 = 0.0, q2 = 0.0, q3 = 0.0;
};

inline Quartiles QuartilesOf(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  if (v.size() == 1) {
    q.q1 = q.q2 = q.q3 = v[0];
    return q;
  }
  const double m = static_cast<double>(v.size()) + 1.0;
  auto at = [&](double pos) {  // 1-based fractional position
    pos = std::clamp(pos, 1.0, static_cast<double>(v.size()));
    const size_t lo = static_cast<size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    if (lo >= v.size()) return v.back();
    return v[lo - 1] + frac * (v[lo] - v[lo - 1]);
  };
  q.q1 = at(m * 0.25);
  q.q2 = at(m * 0.5);
  q.q3 = at(m * 0.75);
  return q;
}

/// One closed span of a trace: thread, interval and name.
struct SpanRec {
  uint32_t tid = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  std::string name;
};

/// Per-name totals of a span fold.
struct SpanTotals {
  double total_s = 0.0;  // sum of durations
  double self_s = 0.0;   // sum of (duration - direct children's durations)
  uint64_t count = 0;
};

/// Folds spans into per-name total and self time. Spans nest per thread
/// by interval containment: a span is a child of the innermost open span
/// on its thread that contains it entirely. A span that only partly
/// overlaps an open span is never its child (it steals no time from it),
/// so self time is never negative. Self time = duration minus the summed
/// durations of direct children (children of one parent never overlap
/// when properly nested, so that sum is the covered part).
inline std::map<std::string, SpanTotals> FoldSelfTime(
    std::vector<SpanRec> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const SpanRec& a, const SpanRec& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.dur_ns > b.dur_ns;
            });
  std::vector<uint64_t> child_ns(spans.size(), 0);
  std::vector<size_t> stack;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    if (i > 0 && spans[i - 1].tid != s.tid) stack.clear();
    const uint64_t end = s.start_ns + s.dur_ns;
    while (!stack.empty()) {
      const SpanRec& top = spans[stack.back()];
      const uint64_t top_end = top.start_ns + top.dur_ns;
      if (top_end <= s.start_ns) {
        stack.pop_back();  // closed before s opens
      } else if (end > top_end) {
        stack.pop_back();  // partial overlap: s cannot nest in top
      } else {
        break;  // contained
      }
    }
    if (!stack.empty()) child_ns[stack.back()] += s.dur_ns;
    stack.push_back(i);
  }
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    t.total_s += static_cast<double>(spans[i].dur_ns) * 1e-9;
    t.self_s += static_cast<double>(spans[i].dur_ns - child_ns[i]) * 1e-9;
    ++t.count;
  }
  return out;
}

}  // namespace perfbench

#endif  // UPDB_PERFBENCH_BENCH_STATS_H_
