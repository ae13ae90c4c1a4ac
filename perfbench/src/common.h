// Shared pieces of pfbench: options, statistics, the XMark
// corpus and its reference answers, storage and memory accounting, the
// span recorder and the report printer.
#ifndef PFBENCH_COMMON_H_
#define PFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "base/result.h"
#include "xml/database.h"

namespace pfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // where the traced run writes its spans
};

/// SplitMix64 finalizer: derives independent sub-seeds from the
/// workload seed (document seeds, pass order, draws, update targets).
uint64_t Mix(uint64_t x);

// --- statistics ------------------------------------------------------------

double Median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> v, double p);
double GeoMean(const std::vector<double>& v);

// --- corpus ----------------------------------------------------------------

/// XML text of the XMark document for (sf, seed): generated, then
/// serialized, so every workload loads its documents through the same
/// public LoadXml path a user takes.
pathfinder::Result<std::string> XMarkXml(double sf, uint64_t seed);

/// Serialized answers of XMark Q1..Q20 over `xml` from the navigational
/// baseline (baseline::Baseline), computed on a private database that is
/// destroyed before returning.
pathfinder::Result<std::vector<std::string>> ReferenceAnswers(
    const std::string& doc_name, const std::string& xml);

/// Paper Sec. 3.1 storage of every document in `db`: encoding columns +
/// pooled property payload + each document's path summary. `summary_bytes`
/// (optional) receives the path-summary share.
size_t StorageBytes(const pathfinder::xml::Database& db,
                    size_t* summary_bytes = nullptr);

// --- memory ----------------------------------------------------------------

/// Return freed heap to the kernel, then reset the process's memory
/// high-water mark (write "5" to /proc/self/clear_refs).
bool ResetPeakRss();
/// VmHWM of this process in MiB (0 if unreadable).
double PeakRssMb();

// --- spans -----------------------------------------------------------------

/// One timed call at a layer boundary. `parent` indexes the span that
/// caused it (-1 for a request's root); spans of one request share
/// `request`.
struct Span {
  const char* name;
  int64_t request;
  int parent;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span store. Begin/End bracket a call; SelfMs folds the
/// spans of one request into per-name self time (a span's duration
/// minus the part its child spans cover).
class Tracer {
 public:
  int Begin(const char* name, int64_t request, int parent);
  void End(int span);
  /// Record a span whose bounds were measured elsewhere.
  int Add(const char* name, int64_t request, int parent,
          Clock::time_point start, Clock::time_point end);
  /// Append another tracer's spans (their parent links re-based).
  void Append(const Tracer& other);
  size_t size() const { return spans_.size(); }
  const Span& operator[](size_t i) const { return spans_[i]; }

  /// Self time in ms per span name over the spans [first, size()).
  std::vector<std::pair<std::string, double>> SelfMs(size_t first) const;

  /// Write every span as one JSON line (times relative to the first).
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// --- report ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints the human-readable metric table, then the one-line JSON
/// result as the last line of stdout.
void PrintReport(const Options& o, const std::vector<Metric>& metrics,
                 bool correct, int64_t attempted, int64_t failed);

/// Seed, build and environment fingerprint (stdout, one line).
void PrintFingerprint(const Options& o);

}  // namespace pfbench

#endif  // PFBENCH_COMMON_H_
