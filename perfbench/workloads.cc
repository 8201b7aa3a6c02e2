// Copyright 2026 The updb Authors.
// Workloads of the end-to-end benchmark (see workloads.h). Layers
// are measured from outside: the benchmark times its own calls into each
// module's public functions, reads their public outputs (RequestStats,
// PublishStats, WalStats, RecoveryReport, ResponseCache counters,
// IdcaResult::counters) and, in a traced run, switches on the program's
// existing obs::TraceRecorder spans next to its own "bench" spans.

#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

#include <unistd.h>

#include "bench_stats.h"
#include "domination/criteria.h"
#include "gf/kernels.h"
#include "index/rtree.h"
#include "io/dataset_io.h"
#include "obs/trace.h"
#include "queries/queries.h"
#include "service/query_service.h"
#include "service/trace.h"
#include "store/checkpoint.h"
#include "store/object_store.h"
#include "store/recovery.h"
#include "workload/churn.h"
#include "workload/generators.h"

namespace perfbench {

using updb::IdcaConfig;
using updb::IdcaCounters;
using updb::ObjectId;
using updb::UncertainDatabase;
using updb::service::QueryKind;
using updb::service::QueryRequest;
using updb::service::QueryResponse;
using updb::service::QueryService;
using updb::service::ResponseStatus;
using updb::store::StoreSnapshot;
using updb::store::VersionedObjectStore;
namespace fs = std::filesystem;

std::string Params::Str(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    std::fprintf(stderr, "perfbench: missing parameter --%s\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

double Params::Num(const std::string& key) const {
  const std::string s = Str(key);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    std::fprintf(stderr, "perfbench: --%s=%s is not a number\n", key.c_str(),
                 s.c_str());
    std::exit(2);
  }
  return v;
}

// --------------------------------------------------------------- inputs

/// Kind slots of one block (--block_<kind> slots per kind): the mix is
/// exact within every block.
/// R2 sequence constants (1/g and 1/g^2 for the plastic number g).
constexpr double kR2Alpha1 = 0.7548776662466927;
constexpr double kR2Alpha2 = 0.5698402909980532;

static std::vector<QueryKind> KindSlots(const Params& p) {
  std::vector<QueryKind> block;
  const std::pair<const char*, QueryKind> kinds[] = {
      {"block_knn", QueryKind::kThresholdKnn},
      {"block_rknn", QueryKind::kThresholdRknn},
      {"block_inverse", QueryKind::kInverseRanking},
      {"block_expected_rank", QueryKind::kExpectedRank}};
  for (const auto& [key, kind] : kinds) {
    for (size_t i = 0; i < p.Size(key); ++i) block.push_back(kind);
  }
  if (block.empty()) {
    std::fprintf(stderr, "perfbench: empty kind block\n");
    std::exit(2);
  }
  return block;
}

std::vector<QueryRequest> StratifiedTrace(const UncertainDatabase& db,
                                          const Params& p, size_t count,
                                          uint64_t seed) {
  // One block: each kind spread evenly over the block's slots (slot j
  // goes to the kind furthest behind its share of j + 1 slots), repeated.
  const std::vector<QueryKind> kinds = KindSlots(p);
  std::map<QueryKind, size_t> quota, placed;
  for (QueryKind k : kinds) ++quota[k];
  std::vector<QueryKind> block;
  for (size_t j = 0; j < kinds.size(); ++j) {
    QueryKind best = kinds[0];
    double best_lag = -1e300;
    for (const auto& [k, q] : quota) {
      const double lag = static_cast<double>(q * (j + 1)) /
                             static_cast<double>(kinds.size()) -
                         static_cast<double>(placed[k]);
      if (lag > best_lag) {
        best_lag = lag;
        best = k;
      }
    }
    ++placed[best];
    block.push_back(best);
  }
  std::vector<QueryKind> order;
  order.reserve(count + block.size());
  while (order.size() < count) {
    order.insert(order.end(), block.begin(), block.end());
  }
  order.resize(count);
  updb::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);

  const size_t deadline_every = p.Size("deadline_every");
  std::vector<QueryRequest> out(count);
  for (int k = 0; k < 4; ++k) {
    const QueryKind kind = static_cast<QueryKind>(k);
    std::vector<size_t> slots;
    for (size_t i = 0; i < count; ++i) {
      if (order[i] == kind) slots.push_back(i);
    }
    if (slots.empty()) continue;
    updb::service::TraceConfig tc;
    tc.num_requests = slots.size();
    tc.seed = seed * 4 + static_cast<uint64_t>(k) + 1;
    tc.knn_weight = kind == QueryKind::kThresholdKnn ? 1.0 : 0.0;
    tc.rknn_weight = kind == QueryKind::kThresholdRknn ? 1.0 : 0.0;
    tc.inverse_weight = kind == QueryKind::kInverseRanking ? 1.0 : 0.0;
    tc.expected_rank_weight = kind == QueryKind::kExpectedRank ? 1.0 : 0.0;
    tc.k_max = p.Size("k_max");
    tc.tau = p.Num("tau");
    tc.query_extent = p.Num("query_extent");
    tc.budget.max_iterations = static_cast<int>(p.Size("iterations"));
    std::vector<QueryRequest> sub = updb::service::MakeTrace(db, tc);
    // Query centers: the R2 low-discrepancy sequence under a seeded
    // random shift, so every prefix of a kind's requests covers the space
    // evenly whatever the seed.
    const double shift[2] = {rng.NextDouble(), rng.NextDouble()};
    // k: every value 1..k_max once per group of k_max requests of a kind,
    // in seeded order.
    std::vector<size_t> ks(tc.k_max);
    for (size_t j = 0; j < slots.size(); ++j) {
      if (j % tc.k_max == 0) {
        std::iota(ks.begin(), ks.end(), size_t{1});
        rng.Shuffle(ks);
      }
      sub[j].k = ks[j % tc.k_max];
      updb::Point center(db.dim());
      for (size_t d = 0; d < db.dim(); ++d) {
        const double a = d == 0 ? kR2Alpha1 : kR2Alpha2;
        const double x = shift[d % 2] + static_cast<double>(j + 1) * a;
        center[d] = x - std::floor(x);
      }
      sub[j].query = updb::workload::MakeQueryObject(
          center, tc.query_extent, tc.query_model, tc.samples_per_object,
          rng);
      out[slots[j]] = sub[j];
    }
    if (deadline_every > 0) {
      for (size_t g = 0; g < slots.size(); g += deadline_every) {
        const size_t pick = g + rng.NextBounded(deadline_every);
        if (pick < slots.size()) {
          out[slots[pick]].budget.deadline_ms = p.Num("deadline_ms");
        }
      }
    }
  }
  return out;
}

SendOrder MakeSendOrder(size_t positions, size_t repeat_every,
                          size_t repeat_distance, uint64_t seed) {
  SendOrder order;
  order.source.resize(positions);
  order.repeat.assign(positions, false);
  updb::Rng rng(seed * 0xD1B54A32D192ED03ULL + 5);
  size_t pick = 0;
  for (size_t i = 0; i < positions; ++i) {
    if (i >= repeat_distance && repeat_every > 0) {
      const size_t g = (i - repeat_distance) % repeat_every;
      if (g == 0) pick = rng.NextBounded(repeat_every);
      if (g == pick) {
        const size_t j = rng.NextBounded(i - repeat_distance + 1);
        order.source[i] = order.source[j];
        order.repeat[i] = true;
        continue;
      }
    }
    order.source[i] = order.distinct++;
  }
  return order;
}

UncertainDatabase MakeDatabase(const Params& p) {
  updb::workload::SyntheticConfig cfg;
  cfg.num_objects = p.Size("n");
  cfg.max_extent = p.Num("extent");
  cfg.seed = static_cast<uint64_t>(p.Num("db_seed"));
  return updb::workload::MakeSyntheticDatabase(cfg);
}


uint64_t Params::Fingerprint() const {
  uint64_t h = 14695981039346656037ULL;
  for (const auto& [key, value] : values_) {
    if (key == "trace") continue;
    for (const char c : key + "=" + value + ";") {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

/// CPU time of the process so far, all threads, seconds.
double ProcessCpuSeconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

/// Peak resident set size of the process so far, MB (VmHWM).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// A knn request outside every trace: the first request the service
/// accepts during set-up.
QueryRequest ProbeRequest(const Params& p, uint64_t seed) {
  updb::Rng rng(seed + 0x5EED);
  QueryRequest req;
  req.kind = QueryKind::kThresholdKnn;
  req.query = updb::workload::MakeQueryObject(
      updb::Point{0.5, 0.5}, p.Num("query_extent"),
      updb::workload::ObjectModel::kUniform, 64, rng);
  req.k = 3;
  req.tau = p.Num("tau");
  req.budget.max_iterations = static_cast<int>(p.Size("iterations"));
  return req;
}

// --------------------------------------------------------------- serving

/// Shape of the service for one workload, thread budget applied.
struct ServiceShape {
  size_t workers = 1;
  size_t batch_size = 8;
  size_t max_queue = 4096;
  size_t cache_capacity = 0;
  size_t memo_capacity = 0;
};

updb::service::QueryServiceOptions ServiceOptions(
    const ServiceShape& shape, updb::obs::TraceRecorder* trace) {
  updb::service::QueryServiceOptions o;
  o.num_workers = shape.workers;
  o.batch_size = shape.batch_size;
  o.max_queue = shape.max_queue;
  o.response_cache_capacity = shape.cache_capacity;
  o.verdict_memo_capacity = shape.memo_capacity;
  o.trace = trace;
  return o;
}

/// One request as the benchmark saw it. Times are seconds since the pass
/// start.
struct Rec {
  size_t position = 0;  // index into the sent sequence
  bool admitted = false;
  ResponseStatus refused = ResponseStatus::kOk;  // when !admitted
  uint64_t ticket = 0;
  double due = 0.0;
  double submit = 0.0;
  double done = 0.0;
  QueryResponse response;
  /// Snapshot the response executed against, held for the oracle (null
  /// when not sampled).
  std::shared_ptr<const StoreSnapshot> snapshot;
};

/// Runs `span` around a call when tracing.
template <typename F>
auto Traced(updb::obs::TraceRecorder* trace, const char* name, uint64_t id,
            F&& f) {
  updb::obs::TraceSpan span(trace, name, "bench");
  span.AddArg("ticket", id);
  return f();
}

/// The status of a request whose Submit was refused.
ResponseStatus RefusedStatus(const updb::Status& status) {
  return status.code() == updb::StatusCode::kResourceExhausted
             ? ResponseStatus::kRejected
             : ResponseStatus::kInvalid;
}

/// Open loop: request i is due at i / rate; a collector thread takes
/// responses in ticket order (rounds complete in submission order, so
/// nothing ready waits behind an unready ticket). `keep_snapshot(i)`
/// selects the responses whose snapshot is held for the oracle.
std::vector<Rec> RunOpenLoop(QueryService& svc,
                             const std::vector<QueryRequest>& requests,
                             double rate, VersionedObjectStore* store,
                             const std::function<bool(size_t)>& keep_snapshot,
                             updb::obs::TraceRecorder* trace) {
  std::vector<Rec> recs(requests.size());
  std::mutex mu;
  std::condition_variable cv;
  std::deque<size_t> inflight;
  bool closed = false;
  const Clock::time_point t0 = Clock::now();

  std::thread collector([&] {
    for (;;) {
      size_t i = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return closed || !inflight.empty(); });
        if (inflight.empty()) return;
        i = inflight.front();
        inflight.pop_front();
      }
      Rec& r = recs[i];
      r.response = Traced(trace, "Take", r.ticket,
                          [&] { return svc.Take(r.ticket); });
      r.done = SecondsSince(t0);
      if (store != nullptr && keep_snapshot && keep_snapshot(i)) {
        r.snapshot = store->snapshot(r.response.snapshot_version);
      }
    }
  });

  for (size_t i = 0; i < requests.size(); ++i) {
    Rec& r = recs[i];
    r.position = i;
    r.due = static_cast<double>(i) / rate;
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(r.due)));
    r.submit = SecondsSince(t0);
    const updb::StatusOr<uint64_t> ticket = Traced(
        trace, "Submit", i, [&] { return svc.Submit(requests[i]); });
    if (!ticket.ok()) {
      r.refused = RefusedStatus(ticket.status());
      r.done = r.submit;
      continue;
    }
    r.admitted = true;
    r.ticket = *ticket;
    {
      std::lock_guard<std::mutex> lock(mu);
      inflight.push_back(i);
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_one();
  collector.join();
  return recs;
}

/// Closed loop in waves: the next `outstanding` requests are admitted
/// together (dispatching paused, so they form one dispatcher round), and
/// the next wave is sent once every response of this one is taken. Waves
/// continue until `seconds` have passed. `at(i)` is the i-th sent
/// request.
std::vector<Rec> RunClosedLoop(
    QueryService& svc, const std::function<const QueryRequest&(size_t)>& at,
    size_t max_positions, size_t outstanding, double seconds,
    updb::obs::TraceRecorder* trace) {
  std::vector<Rec> recs;
  recs.reserve(max_positions);
  const Clock::time_point t0 = Clock::now();
  while (SecondsSince(t0) < seconds && recs.size() < max_positions) {
    const size_t begin = recs.size();
    const size_t end = std::min(max_positions, begin + outstanding);
    svc.Pause();
    for (size_t i = begin; i < end; ++i) {
      recs.emplace_back();
      Rec& r = recs.back();
      r.position = i;
      r.submit = r.due = SecondsSince(t0);
      const updb::StatusOr<uint64_t> ticket =
          Traced(trace, "Submit", i, [&] { return svc.Submit(at(i)); });
      if (!ticket.ok()) {
        r.refused = RefusedStatus(ticket.status());
        r.done = r.submit;
        continue;
      }
      r.admitted = true;
      r.ticket = *ticket;
    }
    svc.Resume();
    for (size_t i = begin; i < end; ++i) {
      Rec& r = recs[i];
      if (!r.admitted) continue;
      r.response =
          Traced(trace, "Take", r.ticket, [&] { return svc.Take(r.ticket); });
      r.done = SecondsSince(t0);
    }
  }
  return recs;
}

// --------------------------------------------------------------- oracle

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SamePayload(const QueryResponse& a, const QueryResponse& b) {
  if (a.kind != b.kind || a.status != b.status ||
      a.threshold.size() != b.threshold.size() ||
      a.expected.size() != b.expected.size() ||
      a.rank_bounds.num_ranks() != b.rank_bounds.num_ranks()) {
    return false;
  }
  for (size_t i = 0; i < a.threshold.size(); ++i) {
    const auto& x = a.threshold[i];
    const auto& y = b.threshold[i];
    if (x.id != y.id || x.decision != y.decision ||
        !SameBits(x.prob.lb, y.prob.lb) || !SameBits(x.prob.ub, y.prob.ub)) {
      return false;
    }
  }
  for (size_t i = 0; i < a.expected.size(); ++i) {
    const auto& x = a.expected[i];
    const auto& y = b.expected[i];
    if (x.id != y.id || !SameBits(x.expected_rank.lb, y.expected_rank.lb) ||
        !SameBits(x.expected_rank.ub, y.expected_rank.ub)) {
      return false;
    }
  }
  for (size_t k = 0; k < a.rank_bounds.num_ranks(); ++k) {
    if (!SameBits(a.rank_bounds.lb(k), b.rank_bounds.lb(k)) ||
        !SameBits(a.rank_bounds.ub(k), b.rank_bounds.ub(k))) {
      return false;
    }
  }
  return true;
}

/// Well-formedness of every bracket in `r`: 0 <= lb <= ub <= 1 for
/// probabilities, 1 <= lb <= ub <= N for expected ranks up to rounding.
/// Returns a description of the first malformed bracket, or "".
/// `overshoots` counts expected-rank brackets outside [1, N] by no more
/// than rounding (4 ulps relative: lb >= 1 - 4 eps, ub <= N (1 + 4 eps)).
std::string Malformed(const QueryResponse& r, size_t db_size,
                      uint64_t* overshoots, std::string* first_overshoot) {
  auto prob_ok = [](double lb, double ub) {
    return 0.0 <= lb && lb <= ub && ub <= 1.0;
  };
  for (const auto& t : r.threshold) {
    if (!prob_ok(t.prob.lb, t.prob.ub)) {
      return Fmt("object %u probability [%.17g, %.17g]", t.id, t.prob.lb,
                 t.prob.ub);
    }
  }
  for (size_t k = 0; k < r.rank_bounds.num_ranks(); ++k) {
    if (!prob_ok(r.rank_bounds.lb(k), r.rank_bounds.ub(k))) {
      return Fmt("rank %zu probability [%.17g, %.17g]", k + 1,
                 r.rank_bounds.lb(k), r.rank_bounds.ub(k));
    }
  }
  const double n = static_cast<double>(db_size);
  constexpr double kRounding = 4 * std::numeric_limits<double>::epsilon();
  for (const auto& e : r.expected) {
    const double lb = e.expected_rank.lb, ub = e.expected_rank.ub;
    const std::string what =
        Fmt("object %u expected rank [%.17g, %.17g], N = %zu", e.id, lb, ub,
            db_size);
    if (!(lb <= ub && lb >= 1.0 - kRounding && ub <= n * (1.0 + kRounding))) {
      return what;
    }
    if (lb < 1.0 || ub > n) {
      if ((*overshoots)++ == 0) *first_overshoot = what;
    }
  }
  return "";
}

/// Per-snapshot plain R-tree for the direct query path.
class TreeCache {
 public:
  const updb::RTree& For(const StoreSnapshot& snap) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = trees_.find(snap.version());
    if (it == trees_.end()) {
      it = trees_
               .emplace(snap.version(),
                        std::make_unique<updb::RTree>(
                            updb::BuildRTree(snap.db()->objects())))
               .first;
    }
    return *it->second;
  }

 private:
  std::mutex mu_;
  std::map<uint64_t, std::unique_ptr<updb::RTree>> trees_;
};

/// Recomputes `served` through the direct queries layer at the granted
/// budget; `counters` (optional) receives the engine counters of the same
/// work, replayed through IdcaEngine. An inverse-ranking request's
/// iteration and candidate counts are checked only when `counters` is
/// given. Returns an empty string on a match.
std::string ReplayDirect(const StoreSnapshot& snap, TreeCache& trees,
                         const QueryRequest& req, const QueryResponse& served,
                         IdcaCounters* counters) {
  const UncertainDatabase& db = *snap.db();
  IdcaConfig cfg;
  cfg.max_iterations = served.stats.iterations_granted;
  cfg.uncertainty_epsilon = req.budget.uncertainty_epsilon;
  cfg.num_threads = 1;
  cfg.use_index_filter = false;
  QueryResponse direct;
  direct.kind = req.kind;
  direct.status = served.status;
  size_t iterations = 0;
  size_t candidates = 0;
  switch (req.kind) {
    case QueryKind::kThresholdKnn:
    case QueryKind::kThresholdRknn: {
      const bool reverse = req.kind == QueryKind::kThresholdRknn;
      updb::QueryStats qs;
      direct.threshold =
          reverse ? updb::ProbabilisticThresholdRknn(db, trees.For(snap),
                                                     *req.query, req.k,
                                                     req.tau, cfg, &qs)
                  : updb::ProbabilisticThresholdKnn(db, trees.For(snap),
                                                    *req.query, req.k,
                                                    req.tau, cfg, &qs);
      // The queries layer reports candidates in index-scan order; the
      // service reports them by ascending id.
      std::sort(direct.threshold.begin(), direct.threshold.end(),
                [](const auto& x, const auto& y) { return x.id < y.id; });
      iterations = qs.idca_iterations;
      candidates = qs.candidates;
      if (counters != nullptr) {
        const updb::IdcaEngine engine(db, cfg);
        for (const auto& t : direct.threshold) {
          const updb::IdcaPredicate pred{req.k, req.tau};
          *counters += (reverse ? engine.ComputeDomCountOfQuery(*req.query,
                                                                t.id, pred)
                                : engine.ComputeDomCount(t.id, *req.query,
                                                         pred))
                           .counters;
        }
      }
      break;
    }
    case QueryKind::kInverseRanking: {
      const updb::StatusOr<ObjectId> dense = snap.DenseId(req.target);
      if (!dense.ok()) return "inverse target not live at served version";
      direct.rank_bounds =
          updb::ProbabilisticInverseRanking(db, *dense, *req.query, cfg);
      if (counters != nullptr) {
        // The queries layer returns the bounds only: on the counter sample
        // the stats are checked against the same engine call made directly.
        const updb::IdcaResult run =
            updb::IdcaEngine(db, cfg).ComputeDomCount(*dense, *req.query);
        iterations = run.iterations.empty() ? 0 : run.iterations.size() - 1;
        candidates = run.influence_count;
        *counters += run.counters;
      } else {
        // Outside the sample the stats are not checked.
        iterations = served.stats.idca_iterations;
        candidates = served.stats.candidates;
      }
      break;
    }
    case QueryKind::kExpectedRank: {
      IdcaCounters c;
      direct.expected = updb::ExpectedRankOrder(db, *req.query, cfg, nullptr,
                                                &iterations, &c);
      candidates = db.size();
      if (counters != nullptr) *counters += c;
      break;
    }
  }
  if (!SamePayload(direct, served)) return "payload differs from direct path";
  if (iterations != served.stats.idca_iterations ||
      candidates != served.stats.candidates) {
    return "stats differ from direct path";
  }
  return "";
}

/// Runs `fn(i)` for i in [0, n) on `threads` threads.
void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < std::max<size_t>(1, threads); ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

// ------------------------------------------------------------- analysis

struct PassStats {
  std::vector<double> latency_ms, threshold_latency_ms, lateness_ms;
  uint64_t attempted = 0, rejected = 0, invalid = 0;
  uint64_t deadline_bound = 0, deadline_missed = 0;
  uint64_t threshold_candidates = 0, undecided = 0;
  double er_width_sum = 0.0;
  uint64_t er_entries = 0;
  double inverse_unc_sum = 0.0;
  uint64_t inverse_count = 0;
  uint64_t cache_hits = 0;
  double exec_s_sum = 0.0;  // RequestStats::exec_seconds, cache hits excluded
  uint64_t executed = 0;
  double wall_s = 0.0;
};

PassStats Analyze(const std::vector<Rec>& recs,
                  const std::function<const QueryRequest&(size_t)>& at) {
  PassStats s;
  for (const Rec& r : recs) {
    ++s.attempted;
    s.wall_s = std::max(s.wall_s, r.done);
    if (!r.admitted) {
      if (r.refused == ResponseStatus::kRejected) {
        ++s.rejected;
      } else {
        ++s.invalid;
      }
      continue;
    }
    const QueryRequest& req = at(r.position);
    const QueryResponse& resp = r.response;
    if (resp.status == ResponseStatus::kInvalid) ++s.invalid;
    if (resp.stats.cache_hit) {
      ++s.cache_hits;
    } else {
      s.exec_s_sum += resp.stats.exec_seconds;
      ++s.executed;
    }
    const double lat_ms = (r.done - r.due) * 1e3;
    s.latency_ms.push_back(lat_ms);
    s.lateness_ms.push_back((r.submit - r.due) * 1e3);
    if (req.budget.deadline_ms > 0.0) {
      ++s.deadline_bound;
      if (lat_ms > req.budget.deadline_ms) ++s.deadline_missed;
    }
    switch (req.kind) {
      case QueryKind::kThresholdKnn:
      case QueryKind::kThresholdRknn:
        s.threshold_latency_ms.push_back(lat_ms);
        for (const auto& t : resp.threshold) {
          ++s.threshold_candidates;
          if (t.decision == updb::PredicateDecision::kUndecided) ++s.undecided;
        }
        break;
      case QueryKind::kInverseRanking: {
        double unc = 0.0;
        for (size_t k = 0; k < resp.rank_bounds.num_ranks(); ++k) {
          unc += resp.rank_bounds.ub(k) - resp.rank_bounds.lb(k);
        }
        s.inverse_unc_sum += unc;
        ++s.inverse_count;
        break;
      }
      case QueryKind::kExpectedRank:
        for (const auto& e : resp.expected) {
          s.er_width_sum += e.expected_rank.width();
          ++s.er_entries;
        }
        break;
    }
  }
  for (const Rec& r : recs) {
    if (!r.admitted) s.lateness_ms.push_back((r.submit - r.due) * 1e3);
  }
  return s;
}

std::string Describe(const char* name, const PercentilePoint& pt,
                     const char* unit) {
  return Fmt("%-22s %s = %.4f %s (samples=%zu, beyond=%zu)", name,
             PercentileLabel(pt.percentile).c_str(), pt.value, unit,
             pt.samples, pt.beyond);
}

/// Reports the open-loop generator's lateness (submit - due) and marks
/// the run invalid when its tail exceeds `bound_ms`.
void CheckLateness(const PassStats& s, double bound_ms, Outcome& out) {
  const PercentilePoint late = Tail(s.lateness_ms);
  double late_max = 0.0;
  for (double x : s.lateness_ms) late_max = std::max(late_max, x);
  out.Figure("lateness_tail_ms", late.value, "ms");
  out.Figure("lateness_max_ms", late_max, "ms");
  out.Note(Describe("generator lateness", late, "ms") +
           Fmt(", max %.4f ms", late_max));
  if (late.value > bound_ms) {
    out.Fail(Fmt("open-loop run invalid: generator lateness %s %.3f ms "
                 "exceeds the %.3f ms bound",
                 PercentileLabel(late.percentile).c_str(), late.value,
                 bound_ms));
  }
}

/// Mean RequestStats::exec_seconds of the executed (not cache-served)
/// requests, ms.
double MeanExecMs(const PassStats& s) {
  return s.executed ? s.exec_s_sum * 1e3 / static_cast<double>(s.executed)
                    : 0.0;
}

/// setup_s: the median of the set-up samples.
void PutSetUp(const std::vector<double>& samples, size_t block,
              Outcome& out) {
  const Quartiles q = QuartilesOf(samples);
  out.Put("setup_s", q.q2, "s");
  out.Note(Fmt("setup_s = median of %zu samples, each the mean of %zu "
               "set-ups (quartiles %.6g .. %.6g s)",
               samples.size(), block, q.q1, q.q3));
}

/// Open loop: completed requests over the time to the last response.
double OpenThroughput(const PassStats& s) {
  const double completed =
      static_cast<double>(s.attempted - s.rejected - s.invalid);
  return s.wall_s > 0 ? completed / s.wall_s : 0.0;
}

/// Closed loop: the median over waves of requests completed per second
/// of wave time (first submit to last response), so a burst of
/// interference on the host moves a few waves, not the figure.
double WaveThroughput(const std::vector<Rec>& recs, size_t wave,
                      Outcome& out) {
  std::vector<double> rates;
  for (size_t begin = 0; begin + wave <= recs.size(); begin += wave) {
    const double t0 = recs[begin].submit;
    double t1 = t0;
    for (size_t i = begin; i < begin + wave; ++i) {
      t1 = std::max(t1, recs[i].done);
    }
    if (t1 > t0) rates.push_back(static_cast<double>(wave) / (t1 - t0));
  }
  const Quartiles q = QuartilesOf(rates);
  out.Note(Fmt("throughput: median over %zu full waves of %zu = %.4f "
               "req/s (quartiles %.4f .. %.4f)",
               rates.size(), wave, q.q2, q.q1, q.q3));
  return q.q2;
}

/// End-to-end metrics every workload reports (untraced runs), hot_op_ms
/// aside. The latency percentiles move by more than any useful bound from
/// seed to seed on mixed_openloop and churn_durable, so they are figures,
/// not gated metrics.
void PutCommonMetrics(const PassStats& s, double throughput_qps,
                      Outcome& out) {
  const PercentilePoint p50 = Median(s.latency_ms);
  const PercentilePoint tail = Tail(s.latency_ms);
  const PercentilePoint thr = Tail(s.threshold_latency_ms);
  out.Figure("latency_p50_ms", p50.value, "ms");
  out.Figure("latency_tail_ms", tail.value, "ms");
  out.Figure("threshold_tail_ms", thr.value, "ms");
  out.Note(Describe("latency", p50, "ms"));
  out.Note(Describe("latency", tail, "ms"));
  out.Note(Describe("threshold latency", thr, "ms"));
  out.Put("throughput_qps", throughput_qps, "1/s");
  const double attempted = static_cast<double>(s.attempted);
  const double failed = static_cast<double>(s.rejected + s.invalid);
  const double candidates = static_cast<double>(s.threshold_candidates);
  const double undecided = static_cast<double>(s.undecided);
  out.Put("decided_fraction",
          s.threshold_candidates ? 1.0 - undecided / candidates : 0.0,
          "fraction");
  out.Figure("failed_fraction", s.attempted ? failed / attempted : 0.0,
             "fraction");
  out.Figure("undecided_fraction",
             s.threshold_candidates ? undecided / candidates : 0.0,
             "fraction");
  if (s.deadline_bound > 0) {
    out.Figure("deadline_miss_fraction",
               static_cast<double>(s.deadline_missed) /
                   static_cast<double>(s.deadline_bound),
               "fraction");
  }
  if (s.er_entries > 0) {
    out.Figure("expected_rank_width",
               s.er_width_sum / static_cast<double>(s.er_entries), "ranks");
  }
  if (s.inverse_count > 0) {
    out.Figure("inverse_uncertainty",
               s.inverse_unc_sum / static_cast<double>(s.inverse_count),
               "prob");
  }
}

// ------------------------------------------------------------ tracing

/// Span fold of a traced pass plus the bench's own per-layer samples.
struct LayerView {
  std::map<std::string, SpanTotals> spans;
  uint64_t dropped = 0;
  uint64_t events = 0;
};

LayerView FoldTrace(const updb::obs::TraceRecorder& rec) {
  LayerView v;
  std::vector<SpanRec> spans;
  for (const updb::obs::TraceEvent& e : rec.Events()) {
    ++v.events;
    if (e.dur_ns == updb::obs::TraceEvent::kInstant) continue;
    // queue_wait is backdated from batch start: it overlaps its batch
    // only partly and is reported from RequestStats instead.
    if (std::string_view(e.name) == "queue_wait") continue;
    spans.push_back(SpanRec{e.tid, e.ts_ns, e.dur_ns, e.name});
  }
  v.spans = FoldSelfTime(std::move(spans));
  v.dropped = rec.dropped();
  return v;
}

double SelfOf(const LayerView& v, const char* name) {
  const auto it = v.spans.find(name);
  return it == v.spans.end() ? 0.0 : it->second.self_s;
}
double TotalOf(const LayerView& v, const char* name) {
  const auto it = v.spans.find(name);
  return it == v.spans.end() ? 0.0 : it->second.total_s;
}
uint64_t CountOf(const LayerView& v, const char* name) {
  const auto it = v.spans.find(name);
  return it == v.spans.end() ? 0 : it->second.count;
}

void NoteSelfTimeTable(const LayerView& v, double busy_s, Outcome& out) {
  out.Note(Fmt("self-time table (busy = %.4f s of batch/bench work spans)",
               busy_s));
  out.Note(Fmt("  %-18s %8s %12s %12s %8s", "span", "count", "total_s",
               "self_s", "share"));
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [name, t] : v.spans) rows.emplace_back(t.self_s, name);
  std::sort(rows.rbegin(), rows.rend());
  for (const auto& [self, name] : rows) {
    const SpanTotals& t = v.spans.at(name);
    out.Note(Fmt("  %-18s %8" PRIu64 " %12.6f %12.6f %7.1f%%", name.c_str(),
                 t.count, t.total_s, t.self_s,
                 busy_s > 0 ? 100.0 * self / busy_s : 0.0));
  }
}

/// Bench-timed ClassifyDomination over a fixed sample of rectangle
/// triples drawn from the database; ns per call.
double ClassifyNs(const UncertainDatabase& db, uint64_t seed,
                  updb::obs::TraceRecorder* trace) {
  updb::Rng rng(seed + 0xC1A55);
  constexpr size_t kTriples = 4096;
  constexpr int kRounds = 16;
  std::vector<const updb::Rect*> a, b, r;
  for (size_t i = 0; i < kTriples; ++i) {
    a.push_back(&db.object(rng.NextBounded(db.size())).mbr());
    b.push_back(&db.object(rng.NextBounded(db.size())).mbr());
    r.push_back(&db.object(rng.NextBounded(db.size())).mbr());
  }
  updb::obs::TraceSpan span(trace, "classify_sample", "bench");
  uint64_t sink = 0;
  const Clock::time_point t0 = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < kTriples; ++i) {
      sink += static_cast<uint64_t>(updb::ClassifyDomination(
          *a[i], *b[i], *r[i], updb::DominationCriterion::kOptimal));
    }
  }
  const double s = SecondsSince(t0);
  if (sink == ~uint64_t{0}) std::fputc(' ', stderr);  // keeps the loop live
  return s * 1e9 / static_cast<double>(kTriples * kRounds);
}

/// Bench-timed ShardedSnapshotIndex best-first scans (first 16 entries
/// by MinDist) around the trace's query rectangles; us per scan.
double IndexScanUs(const StoreSnapshot& snap,
                   const std::vector<QueryRequest>& queries,
                   updb::obs::TraceRecorder* trace) {
  if (snap.size() == 0 || queries.empty()) return 0.0;
  updb::obs::TraceSpan span(trace, "index_scan_sample", "bench");
  constexpr size_t kScans = 2048;
  size_t visited = 0;
  const Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < kScans; ++i) {
    const updb::Rect& q = queries[i % queries.size()].query->bounds();
    size_t seen = 0;
    snap.index().ScanByMinDist(
        q, [&seen](const updb::RTreeEntry&, double) { return ++seen < 16; });
    visited += seen;
  }
  const double s = SecondsSince(t0);
  if (visited == 0) std::fputc(' ', stderr);
  return s * 1e6 / static_cast<double>(kScans);
}

// ------------------------------------------------------ digest record

/// Compares `digest` with the one an earlier run of the same build and
/// parameters (seed included) recorded under `state_dir`; records it when
/// absent.
/// Returns an error string on mismatch.
std::string CheckRecordedDigest(const Params& p, const std::string& workload,
                                uint64_t digest, Outcome& out) {
  if (!p.Has("state_dir") || !p.Has("build_id")) return "";
  const fs::path dir = p.Str("state_dir");
  std::error_code ec;
  fs::create_directories(dir, ec);
  const fs::path file =
      dir / (workload + "-seed" + p.Str("seed") + "-" +
             Fmt("%016" PRIx64, p.Fingerprint()) + ".digest");
  const std::string mine =
      p.Str("build_id") + " " + Fmt("%016" PRIx64, digest);
  std::ifstream in(file);
  std::string build, hex;
  if (in >> build >> hex && build == p.Str("build_id")) {
    out.Note("digest recorded by an earlier run of this seed: " + hex);
    if (hex != Fmt("%016" PRIx64, digest)) {
      return "response digest differs from an earlier run of this seed";
    }
    return "";
  }
  std::ofstream(file) << mine << "\n";
  return "";
}

uint64_t DigestPrefix(const std::vector<Rec>& recs, size_t limit) {
  std::vector<QueryResponse> responses;
  for (const Rec& r : recs) {
    if (responses.size() >= limit) break;
    if (r.admitted) responses.push_back(r.response);
  }
  return updb::service::ResponseDigest(responses);
}

// -------------------------------------------------------- run context

struct Context {
  std::string workload;
  const Params* p = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool traced = false;
  ServiceShape shape;
  size_t hardware_threads = 1;
};

/// Applies the thread budget: service workers + busy load-generator threads +
/// writer threads <= hardware threads. Workers shrink (never below 1)
/// when the host has fewer threads than the workload asks for.
ServiceShape BudgetedShape(const Params& p, size_t busy_others,
                           size_t hardware, Outcome& out) {
  ServiceShape s;
  s.workers = p.Size("workers");
  s.batch_size = p.Size("batch_size");
  s.max_queue = p.Size("max_queue");
  s.cache_capacity = p.Size("response_cache_capacity");
  s.memo_capacity = p.Size("verdict_memo_capacity");
  const size_t budget = std::min(p.Size("thread_budget"), hardware);
  if (s.workers + busy_others > budget) {
    const size_t fit = budget > busy_others ? budget - busy_others : 1;
    out.Note(Fmt("thread budget %zu: workers %zu -> %zu", budget, s.workers,
                 fit));
    s.workers = std::max<size_t>(1, fit);
  }
  out.Note(Fmt("thread budget: workers=%zu + busy generator/writer threads=%zu "
               "<= %zu (hardware_threads=%zu)",
               s.workers, busy_others, budget, hardware));
  return s;
}

// -------------------------------------------------------- pinned passes

/// Outcome of one measured pass of a read workload.
struct ReadPass {
  std::vector<Rec> recs;
  updb::service::MetricsSnapshot service_metrics;
  uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  // process CPU time over the pass
};

updb::store::StoreOptions DurableOptions(const Params& p,
                                         const std::string& dir,
                                         updb::obs::TraceRecorder* trace) {
  updb::store::StoreOptions so;
  so.trace = trace;
  so.snapshot_retention = p.Size("snapshot_retention");
  so.durability.wal_dir = dir;
  const updb::StatusOr<updb::store::FsyncPolicy> policy =
      updb::store::ParseFsyncPolicy(p.Str("fsync"));
  UPDB_CHECK(policy.ok());
  so.durability.fsync = *policy;
  so.durability.checkpoint_every = p.Size("checkpoint_every");
  return so;
}

/// Builds the store (durable under a fresh `wal_dir` when it is not
/// empty) and the service, and submits the probe; returns the set-up time
/// (objects handed over -> first request accepted).
double SetUp(const Context& c, const UncertainDatabase& db,
             const std::string& wal_dir, updb::obs::TraceRecorder* trace,
             std::shared_ptr<VersionedObjectStore>* store,
             std::unique_ptr<QueryService>* svc) {
  svc->reset();
  store->reset();
  if (!wal_dir.empty()) {
    std::error_code ec;
    fs::remove_all(wal_dir, ec);
  }
  const Clock::time_point t0 = Clock::now();
  if (wal_dir.empty()) {
    updb::store::StoreOptions so;
    so.trace = trace;
    *store = std::make_shared<VersionedObjectStore>(db, so);
  } else {
    updb::StatusOr<std::unique_ptr<VersionedObjectStore>> opened =
        VersionedObjectStore::Open(db, DurableOptions(*c.p, wal_dir, trace));
    UPDB_CHECK(opened.ok());
    *store = std::move(*opened);
  }
  *svc = std::make_unique<QueryService>(*store, ServiceOptions(c.shape, trace));
  const updb::StatusOr<uint64_t> ticket =
      (*svc)->Submit(ProbeRequest(*c.p, c.seed));
  const double s = SecondsSince(t0);
  UPDB_CHECK(ticket.ok());
  (*svc)->Take(*ticket);
  return s;
}

/// `setup_reps` samples of set-up time, each the mean of `setup_block`
/// consecutive set-ups, `setup_gap_ms` apart: other load on the host comes
/// in phases of tens of ms, and spreading the samples keeps one phase from
/// setting the median. Leaves the last set-up in place.
std::vector<double> RepeatSetUp(const Context& c, const UncertainDatabase& db,
                                const std::string& wal_dir,
                                std::shared_ptr<VersionedObjectStore>* store,
                                std::unique_ptr<QueryService>* svc) {
  const size_t block = std::max<size_t>(1, c.p->Size("setup_block"));
  const auto gap = std::chrono::duration<double, std::milli>(
      c.p->Num("setup_gap_ms"));
  std::vector<double> samples;
  for (size_t i = 0; i < c.p->Size("setup_reps"); ++i) {
    if (i > 0) std::this_thread::sleep_for(gap);
    double sum = 0.0;
    for (size_t j = 0; j < block; ++j) {
      sum += SetUp(c, db, wal_dir, nullptr, store, svc);
    }
    samples.push_back(sum / static_cast<double>(block));
  }
  return samples;
}

/// Oracle over a read pass: every response well-formed and equal to the
/// direct path against `pinned` (or, when null, the snapshot each sampled
/// response held); expected rank on the first `er_sample` only; cache hits
/// equal their first answer. The first `counter_sample` replays per kind
/// also add their engine counters to `counters`; returns how many did.
size_t CheckReads(const Context& c, const std::vector<Rec>& recs,
                const std::function<const QueryRequest&(size_t)>& at,
                const std::function<size_t(size_t)>& source_of,
                const StoreSnapshot* pinned, size_t er_sample,
                size_t counter_sample, IdcaCounters* counters,
                Outcome& out) {
  TreeCache trees;
  std::vector<size_t> todo;
  size_t er_taken = 0;
  std::map<QueryKind, size_t> counter_taken;
  std::vector<bool> want_counters(recs.size(), false);
  std::map<size_t, size_t> first_at_source;  // source -> rec index
  uint64_t overshoots = 0;
  std::string first_overshoot;
  for (size_t i = 0; i < recs.size(); ++i) {
    const Rec& r = recs[i];
    if (!r.admitted) continue;
    const StoreSnapshot* snap = pinned != nullptr ? pinned : r.snapshot.get();
    if (r.response.status != ResponseStatus::kInvalid) {
      const std::string bad = Malformed(
          r.response,
          snap != nullptr ? snap->size() : std::numeric_limits<size_t>::max(),
          &overshoots, &first_overshoot);
      if (!bad.empty()) {
        out.Fail(Fmt("malformed bracket in request %zu (%s): %s", r.position,
                     updb::service::QueryKindName(at(r.position).kind),
                     bad.c_str()));
      }
    }
    const size_t src = source_of(r.position);
    const auto [it, fresh] = first_at_source.emplace(src, i);
    if (!fresh) {
      if (!SamePayload(recs[it->second].response, r.response)) {
        out.Fail(Fmt("repeat %zu differs from its first answer", i));
      }
      continue;
    }
    if (snap == nullptr || r.response.status == ResponseStatus::kInvalid) {
      continue;
    }
    const QueryKind kind = at(r.position).kind;
    if (kind == QueryKind::kExpectedRank) {
      if (er_taken >= er_sample) continue;
      ++er_taken;
    }
    if (counter_taken[kind] < counter_sample) {
      ++counter_taken[kind];
      want_counters[i] = true;
    }
    todo.push_back(i);
  }
  std::vector<std::string> errors(todo.size());
  std::vector<IdcaCounters> per(todo.size());
  // ExpectedRank replays are the long poles: start them first.
  std::stable_sort(todo.begin(), todo.end(), [&](size_t x, size_t y) {
    return (at(recs[x].position).kind == QueryKind::kExpectedRank) >
           (at(recs[y].position).kind == QueryKind::kExpectedRank);
  });
  ParallelFor(todo.size(), c.hardware_threads, [&](size_t t) {
    const Rec& r = recs[todo[t]];
    const StoreSnapshot& snap = pinned != nullptr ? *pinned : *r.snapshot;
    errors[t] = ReplayDirect(snap, trees, at(r.position), r.response,
                             want_counters[todo[t]] ? &per[t] : nullptr);
  });
  size_t mismatches = 0;
  for (size_t t = 0; t < todo.size(); ++t) {
    if (!errors[t].empty()) {
      if (mismatches++ < 5) {
        out.Fail(Fmt("request %zu (%s): %s", recs[todo[t]].position,
                     updb::service::QueryKindName(at(recs[todo[t]].position).kind),
                     errors[t].c_str()));
      }
    }
    *counters += per[t];
  }
  if (mismatches > 5) out.Fail(Fmt("%zu oracle mismatches", mismatches));
  out.Figure("expected_rank_domain_overshoots",
             static_cast<double>(overshoots), "count");
  if (overshoots > 0) {
    // Reported, not failed: a rounding excess past the domain.
    out.Note("FINDING: expected-rank bracket outside [1, N] by rounding: " +
             first_overshoot);
  }
  out.Note(Fmt("oracle: %zu responses replayed through the direct query "
               "path (%zu expected-rank), %zu mismatches",
               todo.size(), er_taken, mismatches));
  size_t with_counters = 0;
  for (const auto& [kind, n] : counter_taken) with_counters += n;
  return with_counters;
}

// ------------------------------------------------------- per-layer table

/// Per-layer metrics every traced run reports; layers a workload does
/// not exercise read 0.
void PutLayerMetrics(const Context& c, const LayerView& v,
                     const std::vector<Rec>& recs,
                     const std::function<const QueryRequest&(size_t)>& at,
                     const ReadPass& pass, const IdcaCounters& replayed,
                     size_t replayed_requests, double classify_ns,
                     double scan_us, Outcome& out) {
  std::vector<double> queue_ms;
  std::map<QueryKind, double> exec_s;
  std::map<QueryKind, std::pair<uint64_t, uint64_t>> cand;  // sum, n
  double post_exec = 0.0;
  uint64_t iterations = 0, ugf = 0, vc_hits = 0, vc_misses = 0;
  uint64_t yield_true = 0, yield_all = 0;
  for (const Rec& r : recs) {
    if (!r.admitted || r.response.stats.cache_hit) continue;
    const auto& st = r.response.stats;
    const QueryKind kind = at(r.position).kind;
    queue_ms.push_back(st.queue_seconds * 1e3);
    exec_s[kind] += st.exec_seconds;
    post_exec += std::max(
        0.0, (r.done - r.submit) - st.queue_seconds - st.exec_seconds);
    cand[kind].first += st.candidates;
    cand[kind].second += 1;
    iterations += st.idca_iterations;
    ugf += st.ugf_multiplies;
    vc_hits += st.verdict_cache_hits;
    vc_misses += st.verdict_cache_misses;
    for (const auto& t : r.response.threshold) {
      ++yield_all;
      if (t.decision == updb::PredicateDecision::kTrue) ++yield_true;
    }
  }
  auto mean_cand = [&](QueryKind k) {
    const auto& [sum, n] = cand[k];
    return n ? static_cast<double>(sum) / static_cast<double>(n) : 0.0;
  };
  const double batch_s = TotalOf(v, "batch");
  out.Put("service.queue_wait_p50_ms", Median(queue_ms).value, "ms");
  out.Put("service.queue_wait_tail_ms", Tail(queue_ms).value, "ms");
  out.Put("service.exec_s.knn", exec_s[QueryKind::kThresholdKnn], "s");
  out.Put("service.exec_s.rknn", exec_s[QueryKind::kThresholdRknn], "s");
  out.Put("service.exec_s.inverse", exec_s[QueryKind::kInverseRanking], "s");
  out.Put("service.exec_s.expected_rank", exec_s[QueryKind::kExpectedRank],
          "s");
  out.Put("service.post_exec_wait_s", post_exec, "s");
  out.Put("service.worker_busy_frac",
          pass.wall_s > 0 ? batch_s / (pass.wall_s *
                                       static_cast<double>(c.shape.workers))
                          : 0.0,
          "fraction");
  out.Put("service.batch_size_mean", pass.service_metrics.mean_batch_fill,
          "count");
  out.Put("service.expired", static_cast<double>(pass.service_metrics.expired),
          "count");
  out.Put("service.rejected",
          static_cast<double>(pass.service_metrics.rejected), "count");
  const uint64_t lookups = pass.cache_hits + pass.cache_misses;
  out.Put("cache.hit_fraction",
          lookups ? static_cast<double>(pass.cache_hits) /
                        static_cast<double>(lookups)
                  : 0.0,
          "fraction");
  out.Put("cache.evictions", static_cast<double>(pass.cache_evictions),
          "count");
  out.Put("index.rknn_filter_s", SelfOf(v, "rknn_filter"), "s");
  out.Put("index.knn_filter_s", SelfOf(v, "knn_filter"), "s");
  out.Put("index.candidates_mean.knn", mean_cand(QueryKind::kThresholdKnn),
          "count");
  out.Put("index.candidates_mean.rknn", mean_cand(QueryKind::kThresholdRknn),
          "count");
  out.Put("index.candidates_mean.inverse",
          mean_cand(QueryKind::kInverseRanking), "count");
  out.Put("index.candidate_yield",
          yield_all ? static_cast<double>(yield_true) /
                          static_cast<double>(yield_all)
                    : 0.0,
          "fraction");
  out.Put("index.scan_us", scan_us, "us");
  out.Put("core.idca_filter_s", SelfOf(v, "idca_filter"), "s");
  out.Put("core.idca_iter_s", SelfOf(v, "idca_iter"), "s");
  out.Put("core.idca_runs", static_cast<double>(CountOf(v, "idca_run")),
          "count");
  out.Put("core.idca_iterations", static_cast<double>(iterations), "count");
  out.Put("core.verdict_cache_hit_ratio",
          vc_hits + vc_misses ? static_cast<double>(vc_hits) /
                                    static_cast<double>(vc_hits + vc_misses)
                              : 0.0,
          "fraction");
  const double per_req = replayed_requests
                             ? 1.0 / static_cast<double>(replayed_requests)
                             : 0.0;
  out.Put("core.pairs_evaluated",
          static_cast<double>(replayed.pairs_evaluated) * per_req, "count");
  out.Put("core.pairs_frozen",
          static_cast<double>(replayed.pairs_frozen) * per_req, "count");
  out.Put("domination.tests",
          static_cast<double>(replayed.domination_tests) * per_req, "count");
  out.Put("domination.classify_ns", classify_ns, "ns");
  out.Put("gf.ugf_multiplies", static_cast<double>(ugf), "count");
  out.Put("obs.trace_dropped", static_cast<double>(v.dropped), "count");
  out.Note(Fmt("per-request means over %zu replayed requests: "
               "pairs_evaluated, pairs_frozen, domination_tests",
               replayed_requests));
}

/// Store-layer per-layer metrics, zero for workloads without writes.
struct StoreLayer {
  double apply_us = 0.0, drain_ms_mean = 0.0, build_ms_mean = 0.0;
  uint64_t fsyncs = 0, wal_bytes = 0, checkpoint_writes = 0;
  uint64_t recover_replayed = 0;
};

void PutStoreLayer(const StoreLayer& s, const LayerView& v, Outcome& out) {
  out.Put("store.apply_us", s.apply_us, "us");
  out.Put("store.publish_drain_ms_mean", s.drain_ms_mean, "ms");
  out.Put("store.publish_build_ms_mean", s.build_ms_mean, "ms");
  out.Put("store.wal_fsync_s", SelfOf(v, "wal_fsync"), "s");
  out.Put("store.checkpoint_write_s", SelfOf(v, "checkpoint_write"), "s");
  out.Put("store.fsyncs", static_cast<double>(s.fsyncs), "count");
  out.Put("store.wal_bytes", static_cast<double>(s.wal_bytes), "bytes");
  out.Put("store.checkpoint_writes", static_cast<double>(s.checkpoint_writes),
          "count");
  out.Put("store.recover_replayed_records",
          static_cast<double>(s.recover_replayed), "count");
}

/// Trace overhead from two passes over the same request sequence:
/// per-request ratio of exec time traced / untraced, matched by send
/// position. Reports the median ratio - 1 and its quartile spread.
void PutOverhead(const std::vector<Rec>& untraced,
                 const std::vector<Rec>& traced, Outcome& out) {
  std::vector<double> ratios;
  const size_t n = std::min(untraced.size(), traced.size());
  for (size_t i = 0; i < n; ++i) {
    const Rec& a = untraced[i];
    const Rec& b = traced[i];
    if (!a.admitted || !b.admitted || a.response.stats.cache_hit ||
        b.response.stats.cache_hit || a.response.stats.exec_seconds <= 0 ||
        b.response.stats.exec_seconds <= 0) {
      continue;
    }
    ratios.push_back(b.response.stats.exec_seconds /
                     a.response.stats.exec_seconds);
  }
  const Quartiles q = QuartilesOf(ratios);
  out.Put("obs.trace_overhead_frac", q.q2 - 1.0, "fraction");
  out.Put("obs.trace_overhead_iqr", q.q3 - q.q1, "fraction");
  out.Note(Fmt("trace overhead: median exec ratio traced/untraced - 1 = "
               "%.4f over %zu matched requests (quartiles %.4f .. %.4f)",
               q.q2 - 1.0, ratios.size(), q.q1 - 1.0, q.q3 - 1.0));
}

void NotePrediction(const LayerView& v, const char* expected,
                    const std::vector<const char*>& candidates,
                    Outcome& out) {
  const char* best = "";
  double best_s = -1.0;
  for (const char* name : candidates) {
    const double s = SelfOf(v, name);
    if (s > best_s) {
      best_s = s;
      best = name;
    }
  }
  out.Note(Fmt("layer prediction: largest self time among work spans is "
               "'%s' (%.4f s); predicted '%s' -> %s",
               best, best_s, expected,
               std::string_view(best) == expected ? "holds" : "FAILS"));
}

const std::vector<const char*> kWorkSpans = {
    "batch",       "knn_filter", "rknn_filter", "knn",
    "rknn",        "inverse",    "expected_rank", "idca_run",
    "idca_filter", "idca_iter"};

/// The store's spans and the benchmark's own spans around store calls.
const std::vector<const char*> kStoreSpans = {
    "publish_drain", "publish_build", "wal_fsync",
    "checkpoint_write", "Publish", "Apply"};

// ----------------------------------------------------- read workloads

struct ReadWorkload {
  UncertainDatabase db;
  std::vector<QueryRequest> distinct;  // unique requests
  SendOrder order;                    // closed loop only
  bool closed = false;
};

const QueryRequest& RequestAt(const ReadWorkload& w, size_t position) {
  return w.closed ? w.distinct[w.order.source[position]]
                  : w.distinct[position];
}

ReadPass RunReadPass(const Context& c, const ReadWorkload& w,
                     QueryService& svc, double seconds,
                     updb::obs::TraceRecorder* trace) {
  ReadPass pass;
  const auto& cache = svc.response_cache();
  const uint64_t h0 = cache ? cache->hits() : 0;
  const uint64_t m0 = cache ? cache->misses() : 0;
  const uint64_t e0 = cache ? cache->evictions() : 0;
  const updb::service::MetricsSnapshot before = svc.metrics().Snapshot();
  const double cpu0 = ProcessCpuSeconds();
  if (w.closed) {
    pass.recs = RunClosedLoop(
        svc, [&](size_t i) -> const QueryRequest& { return RequestAt(w, i); },
        w.order.source.size(), c.p->Size("outstanding"), seconds, trace);
  } else {
    const size_t n = static_cast<size_t>(seconds * c.p->Num("rate_qps"));
    const std::vector<QueryRequest> sent(w.distinct.begin(),
                                         w.distinct.begin() + n);
    pass.recs = RunOpenLoop(svc, sent, c.p->Num("rate_qps"), nullptr, {},
                            trace);
  }
  pass.cpu_s = ProcessCpuSeconds() - cpu0;
  for (const Rec& r : pass.recs) pass.wall_s = std::max(pass.wall_s, r.done);
  updb::service::MetricsSnapshot after = svc.metrics().Snapshot();
  after.expired -= before.expired;
  after.rejected -= before.rejected;
  const uint64_t batches = after.batches - before.batches;
  after.mean_batch_fill =
      batches ? (after.mean_batch_fill * static_cast<double>(after.batches) -
                 before.mean_batch_fill * static_cast<double>(before.batches)) /
                    static_cast<double>(batches)
              : 0.0;
  pass.service_metrics = after;
  pass.cache_hits = cache ? cache->hits() - h0 : 0;
  pass.cache_misses = cache ? cache->misses() - m0 : 0;
  pass.cache_evictions = cache ? cache->evictions() - e0 : 0;
  return pass;
}

ReadWorkload MakeReadWorkload(const Context& c) {
  const Params& p = *c.p;
  ReadWorkload w;
  w.db = MakeDatabase(p);
  w.closed = p.Str("loop") == "closed";
  if (w.closed) {
    // Enough positions for far more than a run can send.
    const size_t positions = p.Size("max_positions");
    w.order = MakeSendOrder(positions, p.Size("repeat_every"),
                             p.Size("repeat_distance"), c.seed);
    w.distinct = StratifiedTrace(w.db, p, w.order.distinct, c.seed);
  } else {
    const size_t n =
        static_cast<size_t>(c.seconds * p.Num("rate_qps")) + 1;
    w.distinct = StratifiedTrace(w.db, p, n, c.seed);
  }
  return w;
}

Outcome RunReadWorkload(const Context& c0) {
  Context c = c0;
  Outcome out;
  const Params& p = *c.p;
  c.shape = BudgetedShape(p, 1, c.hardware_threads, out);
  const ReadWorkload w = MakeReadWorkload(c);
  auto at = [&](size_t i) -> const QueryRequest& { return RequestAt(w, i); };
  auto source_of = [&](size_t i) {
    return w.closed ? w.order.source[i] : i;
  };
  out.Note(Fmt("workload %s: N=%zu extent=%g loop=%s workers=%zu batch=%zu "
               "cache_capacity=%zu",
               c.workload.c_str(), w.db.size(), p.Num("extent"),
               p.Str("loop").c_str(), c.shape.workers, c.shape.batch_size,
               c.shape.cache_capacity));

  std::shared_ptr<VersionedObjectStore> store;
  std::unique_ptr<QueryService> svc;
  if (!c.traced) {
    const std::vector<double> setups = RepeatSetUp(c, w.db, "", &store, &svc);
    const Clock::time_point t0 = Clock::now();
    ReadPass pass = RunReadPass(c, w, *svc, c.seconds, nullptr);
    const double measured_s = SecondsSince(t0);
    const double rss = PeakRssMb();
    svc->Shutdown();
    const PassStats s = Analyze(pass.recs, at);
    out.attempted = s.attempted;
    out.failed = s.rejected + s.invalid;
    PutSetUp(setups, p.Size("setup_block"), out);
    PutCommonMetrics(
        s, w.closed ? WaveThroughput(pass.recs, p.Size("outstanding"), out)
                    : OpenThroughput(s),
        out);
    // Process CPU time, not wall time: other load on the host stretches
    // wall time by up to a quarter from run to run, CPU time far less.
    // It covers the candidate filters, which run outside exec_seconds.
    out.Put("hot_op_ms",
            s.executed ? pass.cpu_s * 1e3 / static_cast<double>(s.executed)
                       : 0.0,
            "ms");
    out.Note(Fmt("hot_op_ms = process CPU time %.4f s over %" PRIu64
                 " executed requests",
                 pass.cpu_s, s.executed));
    out.Figure("exec_ms_mean", MeanExecMs(s), "ms");
    out.Figure("peak_rss_mb", rss, "MB");
    out.Note(Fmt("measured %.3f s, %" PRIu64 " requests, %" PRIu64
                 " cache hits",
                 measured_s, s.attempted, s.cache_hits));
    if (w.closed) {
      size_t repeats = 0;
      for (const Rec& r : pass.recs) repeats += w.order.repeat[r.position];
      const double n = static_cast<double>(s.attempted);
      out.Figure("repeat_share", static_cast<double>(repeats) / n,
                 "fraction");
      out.Figure("cache_hit_share", static_cast<double>(s.cache_hits) / n,
                 "fraction");
    } else {
      CheckLateness(s, p.Num("lateness_bound_ms"), out);
    }

    const std::shared_ptr<const StoreSnapshot> snap = store->latest();
    IdcaCounters sampled;
    CheckReads(c, pass.recs, at, source_of, snap.get(),
               p.Size("expected_rank_oracle_sample"), p.Size("counter_sample"),
               &sampled, out);
    const size_t digest_prefix = p.Size("digest_prefix");
    const uint64_t digest = DigestPrefix(pass.recs, digest_prefix);
    out.Note(Fmt("response digest (first %zu responses) = %016" PRIx64,
                 digest_prefix, digest));
    const std::string err = CheckRecordedDigest(p, c.workload, digest, out);
    if (!err.empty()) out.Fail(err);
    if (s.rejected + s.invalid > 0) {
      out.Fail(Fmt("%" PRIu64 " requests failed", s.rejected + s.invalid));
    }
    return out;
  }

  // Traced run: an untraced and a traced pass of half length each over
  // the same request sequence, on fresh set-ups.
  SetUp(c, w.db, "", nullptr, &store, &svc);
  ReadPass plain = RunReadPass(c, w, *svc, c.seconds / 2, nullptr);
  svc->Shutdown();
  updb::obs::TraceRecorder recorder(1 << 21);
  SetUp(c, w.db, "", &recorder, &store, &svc);
  ReadPass pass = RunReadPass(c, w, *svc, c.seconds / 2, &recorder);
  svc->Shutdown();
  const PassStats s = Analyze(pass.recs, at);
  out.attempted = s.attempted;
  out.failed = s.rejected + s.invalid;

  if (s.rejected + s.invalid > 0) {
    out.Fail(Fmt("%" PRIu64 " requests failed", s.rejected + s.invalid));
  }
  IdcaCounters replayed;
  size_t replayed_requests = 0;
  {
    updb::obs::TraceSpan span(&recorder, "direct_replay", "bench");
    replayed_requests = CheckReads(
        c, pass.recs, at, source_of, store->latest().get(),
        p.Size("expected_rank_oracle_sample"), p.Size("counter_sample"),
        &replayed, out);
  }
  const double classify_ns = ClassifyNs(w.db, c.seed, &recorder);
  const double scan_us = IndexScanUs(*store->latest(), w.distinct, &recorder);
  const LayerView v = FoldTrace(recorder);
  PutLayerMetrics(c, v, pass.recs, at, pass, replayed, replayed_requests,
                  classify_ns, scan_us, out);
  PutStoreLayer(StoreLayer{}, v, out);
  PutOverhead(plain.recs, pass.recs, out);
  NoteSelfTimeTable(v, TotalOf(v, "batch"), out);
  NotePrediction(v, w.closed ? "rknn_filter" : "idca_iter", kWorkSpans, out);
  if (v.dropped != 0) {
    out.Fail(Fmt("trace dropped %" PRIu64 " events", v.dropped));
  }
  return out;
}

// ----------------------------------------------------- churn workload

struct ChurnPass {
  std::vector<Rec> reads;
  std::vector<double> publish_ms;
  std::vector<double> apply_s;
  std::vector<double> batch_ms;  // the batch's Apply calls + its Publish
  uint64_t mutations = 0;
  uint64_t payload_bytes = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t wal_bytes = 0;
  uint64_t fsyncs = 0;
  uint64_t checkpoint_writes = 0;
  double drain_ms_sum = 0.0, build_ms_sum = 0.0;
  double write_s = 0.0;
  double wall_s = 0.0;
  updb::service::MetricsSnapshot service_metrics;
};

uint64_t MutationPayloadBytes(const updb::store::Mutation& m) {
  if (m.kind == updb::store::Mutation::Kind::kRemove) return sizeof(ObjectId);
  const updb::StatusOr<std::string> line =
      updb::io::SerializeObject(updb::UncertainObject(0, m.pdf, m.existence));
  return line.ok() ? line->size() : 0;
}

ChurnPass RunChurnPass(const Context& c, VersionedObjectStore& store,
                       QueryService& svc, const std::string& dir,
                       const std::vector<QueryRequest>& reads, double seconds,
                       uint64_t writer_seed, updb::obs::TraceRecorder* trace,
                       Outcome& out) {
  const Params& p = *c.p;
  ChurnPass pass;
  const updb::store::WalStats w0 = store.wal_stats();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    updb::workload::ChurnConfig cc;
    cc.mutations_per_batch = p.Size("mutations_per_batch");
    cc.max_extent = p.Num("extent");
    updb::Rng rng(writer_seed);
    const double period_s = 1.0 / p.Num("batch_rate_hz");
    const Clock::time_point t0 = Clock::now();
    for (size_t b = 0; !stop.load(std::memory_order_relaxed); ++b) {
      // Batches are offered on a fixed schedule so the store's size, and
      // with it the read and recovery work, is fixed by the seed.
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(period_s * b)));
      const std::vector<updb::store::Mutation> batch =
          updb::workload::MakeMutationBatch(store.LiveIds(), store.dim(), cc,
                                            rng);
      double batch_s = 0.0;
      for (const updb::store::Mutation& m : batch) {
        pass.payload_bytes += MutationPayloadBytes(m);
        const Clock::time_point a0 = Clock::now();
        const updb::StatusOr<ObjectId> applied =
            Traced(trace, "Apply", pass.mutations,
                   [&] { return store.Apply(m); });
        pass.apply_s.push_back(SecondsSince(a0));
        batch_s += pass.apply_s.back();
        UPDB_CHECK(applied.ok());
        ++pass.mutations;
      }
      updb::store::PublishStats ps;
      const Clock::time_point p0 = Clock::now();
      const std::shared_ptr<const StoreSnapshot> snap = Traced(
          trace, "Publish", pass.publish_ms.size(),
          [&] { return store.Publish(&ps); });
      const double publish_s = SecondsSince(p0);
      batch_s += publish_s;
      pass.publish_ms.push_back(publish_s * 1e3);
      pass.batch_ms.push_back(batch_s * 1e3);
      pass.drain_ms_sum += ps.drain_ms;
      pass.build_ms_sum += ps.build_ms;
      std::error_code ec;
      const uint64_t ck = fs::file_size(
          fs::path(dir) / updb::store::CheckpointFileName(snap->version()),
          ec);
      if (!ec) pass.checkpoint_bytes += ck;
    }
    pass.write_s = SecondsSince(t0);
  });
  const size_t n = static_cast<size_t>(seconds * p.Num("rate_qps"));
  const std::vector<QueryRequest> sent(reads.begin(), reads.begin() + n);
  const size_t every = p.Size("read_oracle_every");
  pass.reads = RunOpenLoop(svc, sent, p.Num("rate_qps"), &store,
                           [every](size_t i) { return i % every == 0; },
                           trace);
  stop = true;
  writer.join();
  for (const Rec& r : pass.reads) pass.wall_s = std::max(pass.wall_s, r.done);
  const updb::store::WalStats w1 = store.wal_stats();
  pass.wal_bytes = w1.appended_bytes - w0.appended_bytes;
  pass.fsyncs = w1.fsyncs - w0.fsyncs;
  pass.checkpoint_writes = w1.checkpoint_writes - w0.checkpoint_writes;
  pass.service_metrics = svc.metrics().Snapshot();
  if (!store.wal_status().ok()) {
    out.Fail("WAL failed: " + store.wal_status().ToString());
  }
  return pass;
}

/// A fixed query set served by a pinned service: the recovery oracle.
uint64_t ServeFixedSet(std::shared_ptr<const StoreSnapshot> snap,
                       const std::vector<QueryRequest>& set,
                       size_t workers) {
  updb::service::QueryServiceOptions o;
  o.num_workers = workers;
  QueryService svc(std::move(snap), o);
  std::vector<uint64_t> tickets;
  for (const QueryRequest& r : set) {
    const updb::StatusOr<uint64_t> t = svc.Submit(r);
    UPDB_CHECK(t.ok());
    tickets.push_back(*t);
  }
  std::vector<QueryResponse> responses;
  for (uint64_t t : tickets) responses.push_back(svc.Take(t));
  return updb::service::ResponseDigest(responses);
}

Outcome RunChurnWorkload(const Context& c0) {
  Context c = c0;
  Outcome out;
  const Params& p = *c.p;
  // Busy threads beside the workers: the writer and the read collector.
  c.shape = BudgetedShape(p, 2, c.hardware_threads, out);
  const UncertainDatabase db = MakeDatabase(p);
  const std::vector<QueryRequest> reads = StratifiedTrace(
      db, p, static_cast<size_t>(c.seconds * p.Num("rate_qps")) + 1, c.seed);
  auto at = [&](size_t i) -> const QueryRequest& { return reads[i]; };
  out.Note(Fmt("workload %s: N=%zu fsync=%s checkpoint_every=%zu "
               "batch=%zu mutations, reads=%g qps knn, workers=%zu",
               c.workload.c_str(), db.size(), p.Str("fsync").c_str(),
               p.Size("checkpoint_every"), p.Size("mutations_per_batch"),
               p.Num("rate_qps"), c.shape.workers));

  const fs::path base =
      fs::path(p.Str("state_dir")) / Fmt("churn-%d", static_cast<int>(getpid()));
  const std::string dir = (base / "wal").string();
  std::shared_ptr<VersionedObjectStore> store;
  std::unique_ptr<QueryService> svc;
  const uint64_t writer_seed = c.seed * 0x2545F4914F6CDD1DULL + 11;

  std::unique_ptr<updb::obs::TraceRecorder> recorder;
  std::vector<Rec> plain_reads;
  std::vector<double> setups;
  if (c.traced) {
    SetUp(c, db, dir, nullptr, &store, &svc);
    ChurnPass plain = RunChurnPass(c, *store, *svc, dir, reads, c.seconds / 2,
                                   writer_seed, nullptr, out);
    plain_reads = std::move(plain.reads);
    svc->Shutdown();
    recorder = std::make_unique<updb::obs::TraceRecorder>(1 << 21);
    SetUp(c, db, dir, recorder.get(), &store, &svc);
  } else {
    setups = RepeatSetUp(c, db, dir, &store, &svc);
  }
  updb::obs::TraceRecorder* trace = recorder.get();
  const double seconds = c.traced ? c.seconds / 2 : c.seconds;
  ChurnPass pass = RunChurnPass(c, *store, *svc, dir, reads, seconds,
                                writer_seed, trace, out);
  const double rss = PeakRssMb();
  svc->Shutdown();
  svc.reset();
  const PassStats s = Analyze(pass.reads, at);
  out.attempted = s.attempted + pass.mutations;
  out.failed = s.rejected + s.invalid;
  if (out.failed > 0) {
    out.Fail(Fmt("%" PRIu64 " requests failed", out.failed));
  }

  // Oracle on the sampled reads, against the versions they executed on.
  IdcaCounters sampled;
  const size_t sampled_requests =
      CheckReads(c, pass.reads, at, [](size_t i) { return i; }, nullptr, 0,
                 p.Size("counter_sample"), &sampled, out);
  size_t unsampled = 0;
  for (const Rec& r : pass.reads) {
    if (r.admitted && r.position % p.Size("read_oracle_every") == 0 &&
        r.snapshot == nullptr) {
      ++unsampled;
    }
  }
  if (unsampled > 0) {
    out.Fail(Fmt("%zu sampled reads ran on a version no longer retained",
                 unsampled));
  }
  for (Rec& r : pass.reads) r.snapshot.reset();

  // Crash: discard the store, rebuild it from the WAL directory.
  const std::shared_ptr<const StoreSnapshot> before = store->latest();
  const double scan_us = c.traced ? IndexScanUs(*before, reads, trace) : 0.0;
  store.reset();
  std::vector<double> recover_s;
  updb::store::RecoveryReport report;
  std::unique_ptr<VersionedObjectStore> recovered;
  for (size_t i = 0; i < p.Size("recover_reps"); ++i) {
    recovered.reset();
    const Clock::time_point t0 = Clock::now();
    updb::StatusOr<std::unique_ptr<VersionedObjectStore>> r = Traced(
        trace, "RecoverStore", i, [&] {
          return updb::store::RecoverStore(dir, updb::store::StoreOptions{},
                                           &report);
        });
    recover_s.push_back(SecondsSince(t0));
    if (!r.ok()) {
      out.Fail("recovery failed: " + r.status().ToString());
      break;
    }
    recovered = std::move(*r);
  }
  if (recovered != nullptr) {
    if (report.data_loss) out.Fail("recovery reported data loss");
    if (recovered->latest()->version() != before->version()) {
      out.Fail(Fmt("recovered version %" PRIu64 " != pre-crash %" PRIu64,
                   recovered->latest()->version(), before->version()));
    }
    // Fixed query set: knn, rknn and inverse over live targets.
    updb::service::TraceConfig fc;
    fc.num_requests = 16;
    fc.seed = c.seed * 13 + 5;
    fc.knn_weight = 0.5;
    fc.rknn_weight = 0.25;
    fc.inverse_weight = 0.25;
    fc.expected_rank_weight = 0.0;
    fc.k_max = p.Size("k_max");
    fc.tau = p.Num("tau");
    fc.query_extent = p.Num("query_extent");
    fc.budget.max_iterations = static_cast<int>(p.Size("iterations"));
    std::vector<QueryRequest> set = updb::service::MakeTrace(*before->db(), fc);
    for (QueryRequest& r : set) {
      if (r.kind == QueryKind::kInverseRanking) {
        r.target = before->StableId(r.target);
      }
    }
    const uint64_t d0 = ServeFixedSet(before, set, c.hardware_threads);
    const uint64_t d1 =
        ServeFixedSet(recovered->latest(), set, c.hardware_threads);
    out.Note(Fmt("recovery oracle: version %" PRIu64 ", fixed-set digest "
                 "pre-crash %016" PRIx64 " recovered %016" PRIx64,
                 before->version(), d0, d1));
    if (d0 != d1) out.Fail("recovered store answers differ from pre-crash");
  }
  recovered.reset();

  const double amp =
      pass.payload_bytes
          ? static_cast<double>(pass.wal_bytes + pass.checkpoint_bytes) /
                static_cast<double>(pass.payload_bytes)
          : 0.0;
  out.Figure("write_mutations_per_s",
             pass.write_s > 0
                 ? static_cast<double>(pass.mutations) / pass.write_s
                 : 0.0,
             "1/s");
  out.Figure("publish_p50_ms", Median(pass.publish_ms).value, "ms");
  out.Figure("publish_tail_ms", Tail(pass.publish_ms).value, "ms");
  out.Figure("recover_s", Median(recover_s).value, "s");
  out.Figure("write_amp", amp, "ratio");
  out.Note(Describe("publish", Median(pass.publish_ms), "ms"));
  out.Note(Describe("publish", Tail(pass.publish_ms), "ms"));
  CheckLateness(s, p.Num("lateness_bound_ms"), out);

  if (!c.traced) {
    PutSetUp(setups, p.Size("setup_block"), out);
    PutCommonMetrics(s, OpenThroughput(s), out);
    out.Put("hot_op_ms", Median(pass.batch_ms).value, "ms");
    out.Note(Fmt("hot_op_ms = median time of %zu write batches (%zu "
                 "Apply calls + Publish)",
                 pass.batch_ms.size(), p.Size("mutations_per_batch")));
    out.Figure("exec_ms_mean", MeanExecMs(s), "ms");
    out.Figure("peak_rss_mb", rss, "MB");
  } else {
    ReadPass rp;
    rp.wall_s = pass.wall_s;
    rp.service_metrics = pass.service_metrics;
    const LayerView v = FoldTrace(*recorder);
    const double classify_ns = ClassifyNs(db, c.seed, nullptr);
    StoreLayer sl;
    double apply_sum = 0.0;
    for (double a : pass.apply_s) apply_sum += a;
    sl.apply_us = pass.apply_s.empty()
                      ? 0.0
                      : apply_sum * 1e6 / static_cast<double>(pass.apply_s.size());
    const double np = static_cast<double>(std::max<size_t>(1, pass.publish_ms.size()));
    sl.drain_ms_mean = pass.drain_ms_sum / np;
    sl.build_ms_mean = pass.build_ms_sum / np;
    sl.fsyncs = pass.fsyncs;
    sl.wal_bytes = pass.wal_bytes;
    sl.checkpoint_writes = pass.checkpoint_writes;
    sl.recover_replayed = report.replayed_mutations + report.replayed_publishes;
    PutLayerMetrics(c, v, pass.reads, at, rp, sampled, sampled_requests,
                    classify_ns, 0.0, out);
    PutStoreLayer(sl, v, out);
    PutOverhead(plain_reads, pass.reads, out);
    // The overlay index the last reads were served from.
    out.Put("index.scan_us", scan_us, "us");
    const double busy = TotalOf(v, "batch") + TotalOf(v, "Publish") +
                        TotalOf(v, "Apply");
    NoteSelfTimeTable(v, busy, out);
    double store_s = 0.0;
    for (const char* name : kStoreSpans) store_s += SelfOf(v, name);
    out.Note(Fmt("layer prediction: store spans hold %.1f%% of busy self "
                 "time -> %s",
                 busy > 0 ? 100.0 * store_s / busy : 0.0,
                 store_s > 0.5 * busy ? "holds" : "FAILS"));
    if (v.dropped != 0) {
      out.Fail(Fmt("trace dropped %" PRIu64 " events", v.dropped));
    }
  }
  std::error_code ec;
  fs::remove_all(base, ec);
  return out;
}

}  // namespace

Outcome RunWorkload(const std::string& workload, const Params& params) {
  Context c;
  c.workload = workload;
  c.p = &params;
  c.seed = static_cast<uint64_t>(params.Num("seed"));
  c.seconds = params.Num("seconds");
  c.traced = params.Num("trace") != 0;
  c.hardware_threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  Outcome out = workload == "churn_durable" ? RunChurnWorkload(c)
                                            : RunReadWorkload(c);
  out.report.insert(
      out.report.begin(),
      Fmt("run: workload=%s seed=%" PRIu64 " seconds=%g trace=%d "
          "hardware_threads=%zu kernel_dispatch=%s build_type=%s",
          workload.c_str(), c.seed, c.seconds, c.traced ? 1 : 0,
          c.hardware_threads, updb::gf::ActiveKernelName(),
          PERFBENCH_BUILD_TYPE));
  return out;
}

}  // namespace perfbench
