// CEPR benchmark binary. Runs one workload from a seed and prints, as its
// last stdout line, {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Normally launched through perfbench/run.py, which builds this binary.
//
//   cepr_perfbench --workload stock_dip --seed 7 --seconds 10 --trace 0
//                  [--commit <id>] [--trace-out <path prefix>]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: cepr_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>] "
               "[--trace-out <path prefix>]\nworkloads:",
               why);
  for (const std::string& w : cepr::perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cepr::perfbench;
  RunConfig config;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      char* end = nullptr;
      config.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0' || value[0] == '-') {
        return Usage("bad --seed");
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseNumber(value, &number) || number <= 0 || number > 600) {
        return Usage("bad --seconds");
      }
      config.seconds = number;
    } else if (flag == "--trace") {
      if (!ParseNumber(value, &number) || (number != 0 && number != 1)) {
        return Usage("bad --trace");
      }
      config.trace = number == 1;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--trace-out") {
      config.trace_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed) return Usage("--workload and --seed are required");

  const Provenance provenance = BuildProvenance(commit, config.seed);
  std::printf("# provenance %s\n", provenance.ToJson().c_str());
  const cepr::Status reportable = CheckReportableBuild(provenance);
  if (!reportable.ok()) {
    std::fprintf(stderr, "error: %s\n", reportable.ToString().c_str());
    return 3;
  }

  cepr::Result<RunReport> report = RunWorkload(config);
  if (!report.ok()) {
    std::fprintf(stderr, "error: %s\n", report.status().ToString().c_str());
    return 1;
  }
  const RunReport& r = report.value();
  std::printf("# detail %s\n", r.detail_json.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.metrics.ToJson().c_str());
  return 0;
}
