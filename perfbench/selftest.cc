// Copyright 2026 The updb Authors.
// Known-answer self-tests of the benchmark's own machinery: the
// tail-percentile rule, the self-time fold on a synthetic span tree, the
// quartile method, and per-seed determinism of the generated inputs with
// the stated repeat share. Run with `updb_perfbench --selftest`;
// perfbench/run.py runs them after every build.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "bench_stats.h"
#include "service/request.h"
#include "workloads.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("selftest FAILED: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void TestTailPercentile() {
  // n -> highest ladder percentile with >= 10 samples beyond it.
  const std::pair<size_t, int64_t> cases[] = {
      {5, 5000},    {19, 5000},   {20, 5000},   {39, 5000},
      {40, 7500},   {99, 7500},   {100, 9000},  {199, 9000},
      {200, 9500},  {999, 9500},  {1000, 9900}, {9999, 9900},
      {10000, 9990}, {100000, 9999}};
  for (const auto& [n, p] : cases) {
    Expect(TailPercentile(n) == p,
           "TailPercentile(" + std::to_string(n) + ") = " +
               std::to_string(TailPercentile(n)) + ", want " +
               std::to_string(p));
  }
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, shuffled order
  const PercentilePoint t = Tail(v);
  Expect(t.percentile == 9000 && t.value == 90.0 && t.beyond == 10 &&
             t.samples == 100,
         "Tail of 1..100 is p90 = 90 with 10 beyond");
  const PercentilePoint m = Median(v);
  Expect(m.value == 50.0 && m.beyond == 50, "nearest-rank median of 1..100");
  Expect(PercentileLabel(9990) == "p99.9" && PercentileLabel(9999) == "p99.99" &&
             PercentileLabel(7500) == "p75",
         "percentile labels");
}

void TestQuartiles() {
  // Matches Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
  std::vector<double> v;
  for (int i = 1; i <= 10; ++i) v.push_back(i);
  const Quartiles q = QuartilesOf(v);
  Expect(Near(q.q1, 2.75) && Near(q.q2, 5.5) && Near(q.q3, 8.25),
         "quartiles of 1..10");
}

void TestSelfTime() {
  // Thread 1: batch [0,100) holds filter [5,25) and exec [30,90); exec
  // holds run [35,85), which holds iter [40,60) and iter [60,80).
  // A span [95,120) only partly overlaps batch and must steal nothing.
  // Thread 2: a lone batch [0,50) with the same names stays separate.
  std::vector<SpanRec> spans = {
      {1, 0, 100, "batch"},  {1, 5, 20, "filter"}, {1, 30, 60, "exec"},
      {1, 35, 50, "run"},    {1, 40, 20, "iter"},  {1, 60, 20, "iter"},
      {1, 95, 25, "stray"},  {2, 0, 50, "batch"},
  };
  const auto fold = FoldSelfTime(spans);
  auto self_ns = [&](const char* n) { return fold.at(n).self_s * 1e9; };
  auto total_ns = [&](const char* n) { return fold.at(n).total_s * 1e9; };
  Expect(std::llround(self_ns("batch")) == 20 + 50,
         "batch self = 100 - 20 - 60 (thread 1) + 50 (thread 2)");
  Expect(std::llround(total_ns("batch")) == 150, "batch total");
  Expect(std::llround(self_ns("exec")) == 10, "exec self = 60 - 50");
  Expect(std::llround(self_ns("run")) == 10, "run self = 50 - 40");
  Expect(std::llround(self_ns("iter")) == 40, "iter self = 20 + 20");
  Expect(fold.at("iter").count == 2, "iter count");
  Expect(std::llround(self_ns("filter")) == 20, "filter self");
  Expect(std::llround(self_ns("stray")) == 25, "partial overlap is a root");
}

void TestTraceDeterminism() {
  Params p;
  p.Set("n", "300");
  p.Set("extent", "0.03");
  p.Set("block_knn", "9");
  p.Set("block_rknn", "5");
  p.Set("block_inverse", "4");
  p.Set("block_expected_rank", "2");
  p.Set("deadline_every", "4");
  p.Set("deadline_ms", "15");
  p.Set("k_max", "10");
  p.Set("tau", "0.5");
  p.Set("query_extent", "0.02");
  p.Set("iterations", "4");
  p.Set("db_seed", "1");
  const updb::UncertainDatabase db = MakeDatabase(p);
  auto keys = [&](uint64_t seed) {
    std::vector<std::string> out;
    for (const auto& r : StratifiedTrace(db, p, 200, seed)) {
      out.push_back(updb::service::CanonicalizeRequest(r)->key);
    }
    return out;
  };
  const std::vector<std::string> a = keys(7), b = keys(7), c = keys(8);
  Expect(a == b, "same seed gives the same trace");
  Expect(a != c, "another seed gives another trace");
  Expect(std::set<std::string>(a.begin(), a.end()).size() == a.size(),
         "trace requests are all distinct");
  const auto trace = StratifiedTrace(db, p, 200, 7);
  size_t per_kind[4] = {0, 0, 0, 0}, deadlines[4] = {0, 0, 0, 0};
  for (const auto& r : trace) {
    ++per_kind[static_cast<int>(r.kind)];
    deadlines[static_cast<int>(r.kind)] += r.budget.deadline_ms > 0;
  }
  Expect(per_kind[0] == 90 && per_kind[1] == 50 && per_kind[2] == 40 &&
             per_kind[3] == 20,
         "exact kind mix per block of 20");
  size_t last_er = 0, er_seen = 0;
  bool evenly = true;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].kind != updb::service::QueryKind::kExpectedRank) continue;
    if (er_seen++ > 0) evenly &= i - last_er >= 9 && i - last_er <= 11;
    last_er = i;
  }
  Expect(evenly, "expected-rank requests are spread evenly (gaps 10 +- 1)");
  std::vector<size_t> knn_k;
  for (const auto& r : trace) {
    if (r.kind == updb::service::QueryKind::kThresholdKnn) knn_k.push_back(r.k);
  }
  std::vector<size_t> first(knn_k.begin(), knn_k.begin() + 10);
  std::sort(first.begin(), first.end());
  Expect(first == std::vector<size_t>({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
         "k takes every value 1..k_max once per k_max requests of a kind");
  for (int k = 0; k < 4; ++k) {
    // One deadline per full group of four; a partial last group holds at
    // most one.
    Expect(deadlines[k] >= per_kind[k] / 4 &&
               deadlines[k] <= (per_kind[k] + 3) / 4,
           "one request in four of each kind carries a deadline");
  }

  const SendOrder o1 = MakeSendOrder(1000, 4, 100, 3);
  const SendOrder o2 = MakeSendOrder(1000, 4, 100, 3);
  Expect(o1.source == o2.source && o1.repeat == o2.repeat,
         "send order is deterministic per seed");
  size_t repeats = 0;
  bool far_enough = true;
  for (size_t i = 0; i < o1.source.size(); ++i) {
    if (!o1.repeat[i]) continue;
    ++repeats;
    // The source was first sent at least 100 positions earlier.
    size_t first = i;
    for (size_t j = 0; j < i; ++j) {
      if (o1.source[j] == o1.source[i]) {
        first = j;
        break;
      }
    }
    far_enough &= first + 100 <= i;
  }
  Expect(repeats == 225, "repeat share is 1/4 of positions past 100");
  Expect(far_enough, "repeats reuse a request sent >= 100 earlier");
  Expect(o1.distinct == 775, "distinct requests = positions - repeats");
}

}  // namespace

int RunSelfTests() {
  g_failures = 0;
  TestTailPercentile();
  TestQuartiles();
  TestSelfTime();
  TestTraceDeterminism();
  return g_failures;
}

}  // namespace perfbench
