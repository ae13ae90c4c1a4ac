#ifndef PFBENCH_WORKLOADS_H_
#define PFBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "common.h"

namespace pfbench {

/// What one workload run produced: the metrics of its mode (end-to-end
/// without tracing, per-layer with it) and the request tally.
struct RunResult {
  std::vector<Metric> metrics;
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// cold-small / cold-large: XMark Q1..Q20, one closed-loop client, a
/// fresh Pathfinder per request. Returns false on a setup error.
bool RunCold(const Options& o, double sf, Tracer* tracer, RunResult* out);

/// serve-read: an in-process serve::Server under a closed-loop
/// read load over a multi-document corpus.
bool RunServeRead(const Options& o, Tracer* tracer, RunResult* out);

}  // namespace pfbench

#endif  // PFBENCH_WORKLOADS_H_
