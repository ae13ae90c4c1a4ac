#ifndef PATHFINDER_BENCH_BENCH_UTIL_H_
#define PATHFINDER_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "xml/database.h"

namespace pathfinder::bench {

/// Scale factors swept by the XMark experiments. Overridable via the
/// PF_XMARK_SF_LIST environment variable (comma-separated), e.g.
///   PF_XMARK_SF_LIST=0.01,0.1,1.0 ./bench_table3
/// The defaults keep a full sweep under a couple of minutes; the shapes
/// (who wins, scaling exponents) are scale-invariant.
std::vector<double> ScaleFactors();

/// Wall-clock milliseconds of one invocation of `fn`.
double TimeMs(const std::function<void()>& fn);

/// Best of `reps` timed runs (paper-style hot timing).
double BestOfMs(int reps, const std::function<void()>& fn);

/// Generate (once per process) and register the XMark instance for `sf`
/// under the name "auction.xml" in a dedicated database. The database
/// stays alive for the process lifetime.
xml::Database* XMarkDb(double sf);

/// Serialized XML byte size of the sf instance (memoized).
size_t XMarkXmlBytes(double sf);

/// Format helpers for the report tables.
std::string FmtMs(double ms);
std::string FmtFactor(double f);

}  // namespace pathfinder::bench

#endif  // PATHFINDER_BENCH_BENCH_UTIL_H_
