// Copyright 2026 The updb Authors.
// The three workloads of the end-to-end benchmark, driven through the
// public service::QueryService / store::VersionedObjectStore API:
//
//   mixed_openloop     N = 300 synthetic DB, the serve mix (knn / rknn /
//                      inverse / expected rank), open loop at a fixed rate.
//   interactive_closed N = 2,000, knn / rknn / inverse with exact repeats,
//                      closed loop at a fixed number of outstanding
//                      requests; the response cache serves the repeats.
//   churn_durable      N = 2,000 durable store, one writer applying
//                      mutation batches on a fixed schedule, each followed
//                      by a publish, a light open-loop knn stream, then
//                      crash recovery.
//
// Every workload is a pure function of its parameters and the seed; see
// perfbench/workloads.json for the parameter values and README.md for how
// to run them.

#ifndef UPDB_PERFBENCH_WORKLOADS_H_
#define UPDB_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "service/request.h"
#include "uncertain/database.h"

namespace perfbench {

/// Command-line parameters: --key=value pairs.
class Params {
 public:
  void Set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Str(const std::string& key) const;
  double Num(const std::string& key) const;
  size_t Size(const std::string& key) const {
    return static_cast<size_t>(Num(key));
  }
  /// FNV-1a over every key=value pair except --trace.
  uint64_t Fingerprint() const;

 private:
  std::map<std::string, std::string> values_;
};

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run produced.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Metrics for the final JSON line, keyed by name.
  std::map<std::string, Metric> metrics;
  /// Figures printed in the report only: the ones that exist on a single
  /// workload, and the ones too unsteady run to run to gate a change.
  std::map<std::string, Metric> figures;
  /// Human-readable report lines printed before the JSON line.
  std::vector<std::string> report;
  /// Reasons correct is false, one per failed check.
  std::vector<std::string> errors;

  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void Put(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Figure(const std::string& name, double value,
              const std::string& unit) {
    figures[name] = Metric{value, unit};
  }
  void Note(const std::string& line) { report.push_back(line); }
};

/// Synthetic database of `--n` objects with relative extent `--extent`,
/// generated from `--db_seed`: a workload's database is fixed, the run's
/// seed draws everything served against it.
updb::UncertainDatabase MakeDatabase(const Params& p);

/// `count` distinct requests whose kind mix is exact in every block of
/// --block_{knn,rknn,inverse,expected_rank} slots, each kind spread
/// evenly through the block. Each kind's requests come from its own
/// service::MakeTrace stream (tau, targets, budget), with query centers
/// taken from a seeded shift of the R2 low-discrepancy sequence and k
/// taking every value 1..k_max once per k_max requests of a kind; every
/// --deadline_every-th request of a kind (position within each group
/// drawn from the seed) carries --deadline_ms.
std::vector<updb::service::QueryRequest> StratifiedTrace(
    const updb::UncertainDatabase& db, const Params& p, size_t count,
    uint64_t seed);

/// Send order of a closed-loop run: position i names the distinct
/// request it sends. From position `repeat_distance` on, exactly one
/// position in every group of `repeat_every` (drawn from the seed) repeats
/// a request sent at least `repeat_distance` positions earlier.
struct SendOrder {
  std::vector<size_t> source;  // distinct-request index per position
  std::vector<bool> repeat;
  size_t distinct = 0;
};

SendOrder MakeSendOrder(size_t positions, size_t repeat_every,
                          size_t repeat_distance, uint64_t seed);

/// Runs `workload` ("mixed_openloop", "interactive_closed",
/// "churn_durable"). `params` carries --seed, --seconds, --trace and the
/// workload's parameters from workloads.json.
Outcome RunWorkload(const std::string& workload, const Params& params);

/// Known-answer self-tests of the statistics helpers and of trace
/// generation; returns the number of failed checks (0 = pass).
int RunSelfTests();

}  // namespace perfbench

#endif  // UPDB_PERFBENCH_WORKLOADS_H_
