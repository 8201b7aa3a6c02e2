// Copyright 2026 The updb Authors.
// End-to-end benchmark program. Usage (normally through perfbench/run.py,
// which builds this binary and passes the workload's parameters from
// perfbench/workloads.json):
//
//   updb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--key=value ...]
//   updb_perfbench --selftest
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exit code 0 when every correctness check passed, 1 when one failed (the
// JSON line is still printed), 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Params params;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--selftest") {
      const int failures = perfbench::RunSelfTests();
      std::printf("selftest: %d failure(s)\n", failures);
      return failures == 0 ? 0 : 1;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "perfbench: unexpected argument %s\n", argv[i]);
      return 2;
    }
    arg = arg.substr(2);
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench: --%s needs a value\n", arg.c_str());
      return 2;
    }
    if (arg == "workload") workload = value;
    params.Set(arg, value);
  }
  if (workload != "mixed_openloop" && workload != "interactive_closed" &&
      workload != "churn_durable") {
    std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                 workload.c_str());
    return 2;
  }

  perfbench::Outcome out = perfbench::RunWorkload(workload, params);
  for (const auto& [name, m] : out.metrics) {
    if (!std::isfinite(m.value)) out.Fail("metric " + name + " is not finite");
  }
  for (const std::string& line : out.report) std::printf("# %s\n", line.c_str());
  for (const auto& [name, m] : out.metrics) {
    std::printf("# metric %-32s %.6g %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& [name, m] : out.figures) {
    std::printf("# figure %-32s %.6g %s (not gated)\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& e : out.errors) {
    std::printf("# CHECK FAILED: %s\n", e.c_str());
  }
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " +
            JsonNumber(std::isfinite(m.value) ? m.value : 0.0) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
