#ifndef CEPR_PERFBENCH_WORKLOADS_H_
#define CEPR_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "harness.h"

namespace cepr {
namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// false: the untraced run, reporting the end-to-end metrics.
  /// true: the traced run, reporting the per-layer metrics.
  bool trace = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_path;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet metrics;
  /// One JSON object of supporting numbers: digests, sample counts, pass
  /// counts, the percentile actually reported.
  std::string detail_json;
};

std::vector<std::string> WorkloadNames();

/// Runs one workload end to end: output check, set-up repetitions, the
/// closed-loop passes and the open-loop passes. Fails only on misuse (an
/// unknown workload) or an environment error; a wrong ranked output is
/// reported through RunReport::correct / failed.
Result<RunReport> RunWorkload(const RunConfig& config);

}  // namespace perfbench
}  // namespace cepr

#endif  // CEPR_PERFBENCH_WORKLOADS_H_
