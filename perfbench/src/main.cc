// pfbench: the repository benchmark program.
//
//   pfbench --workload cold-small|cold-large|serve-read --seed N
//           --seconds S --trace 0|1 [--trace-out FILE]
//
// Drives the stack only through its public functions and checks every
// answer against the navigational baseline. Prints a fingerprint line,
// a human-readable table, and as its last stdout line one JSON object
// with the metrics the workload measured: end-to-end ones (--trace 0) or
// the per-layer ones of the traced run (--trace 1). perfbench/run.py
// orders them as BENCHMARK.json lists them. Exits 1 when any answer is
// wrong, 2 when the run could not be set up.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "workloads.h"

namespace pfbench {
namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: pfbench --workload cold-small|cold-large|"
               "serve-read --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + a).c_str());
    std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return Usage("bad --seed");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || o.seconds <= 0 ||
          o.seconds > 120) {
        return Usage("bad --seconds");
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return Usage("bad --trace");
      o.trace = v == "1";
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) return Usage("missing --workload");

  PrintFingerprint(o);
  Tracer tracer;
  RunResult res;
  bool ok = false;
  if (o.workload == "cold-small") {
    ok = RunCold(o, 0.002, o.trace ? &tracer : nullptr, &res);
  } else if (o.workload == "cold-large") {
    ok = RunCold(o, 0.05, o.trace ? &tracer : nullptr, &res);
  } else if (o.workload == "serve-read") {
    ok = RunServeRead(o, o.trace ? &tracer : nullptr, &res);
  } else {
    return Usage(("unknown workload " + o.workload).c_str());
  }
  if (!ok) {
    std::fprintf(stderr, "pfbench: %s could not be set up\n",
                 o.workload.c_str());
    return 2;
  }
  if (o.trace && !o.trace_out.empty() && !tracer.WriteJsonLines(o.trace_out)) {
    std::fprintf(stderr, "warning: cannot write spans to %s\n",
                 o.trace_out.c_str());
  }
  if (res.attempted < 1) {
    std::fprintf(stderr, "pfbench: no request was attempted\n");
    return 2;
  }
  PrintReport(o, res.metrics, res.correct, res.attempted, res.failed);
  if (!res.correct) {
    std::fprintf(stderr, "pfbench: wrong answers; see above\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pfbench

int main(int argc, char** argv) { return pfbench::Main(argc, argv); }
