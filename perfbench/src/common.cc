#include "common.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string_view>
#include <thread>

#include "base/thread_pool.h"
#include "baseline/interp.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xml/serializer.h"

extern char** environ;

namespace pfbench {

namespace pf = pathfinder;

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = std::ceil(p * static_cast<double>(v.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

pf::Result<std::string> XMarkXml(double sf, uint64_t seed) {
  pf::xml::Database gen;
  PF_ASSIGN_OR_RETURN(pf::xml::Document doc,
                      pf::xmark::GenerateXMark(sf, seed, gen.pool()));
  return pf::xml::SerializeDocument(doc, *gen.pool());
}

pf::Result<std::vector<std::string>> ReferenceAnswers(
    const std::string& doc_name, const std::string& xml) {
  pf::xml::Database db;
  PF_RETURN_NOT_OK(db.LoadXml(doc_name, xml).status());
  pf::baseline::Baseline nav(&db);
  pf::baseline::BaselineOptions bo;
  bo.context_doc = doc_name;
  std::vector<std::string> out;
  for (const pf::xmark::XMarkQuery& q : pf::xmark::XMarkQueries()) {
    PF_ASSIGN_OR_RETURN(pf::baseline::BaselineResult r, nav.Run(q.text, bo));
    PF_ASSIGN_OR_RETURN(std::string text, r.Serialize());
    out.push_back(std::move(text));
  }
  return out;
}

size_t StorageBytes(const pf::xml::Database& db, size_t* summary_bytes) {
  size_t summaries = 0;
  for (size_t i = 0; i < db.num_documents(); ++i) {
    const pf::xml::PathSummary* s =
        db.doc(static_cast<pf::xml::FragId>(i)).summary();
    if (s != nullptr) summaries += s->MemoryBytes();
  }
  if (summary_bytes != nullptr) *summary_bytes = summaries;
  return db.EncodingBytes() + db.PoolPayloadBytes() + summaries;
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

int Tracer::Begin(const char* name, int64_t request, int parent) {
  spans_.push_back(Span{name, request, parent, Clock::now(), {}});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int span) {
  spans_[static_cast<size_t>(span)].end = Clock::now();
}

int Tracer::Add(const char* name, int64_t request, int parent,
                Clock::time_point start, Clock::time_point end) {
  spans_.push_back(Span{name, request, parent, start, end});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::Append(const Tracer& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

std::vector<std::pair<std::string, double>> Tracer::SelfMs(
    size_t first) const {
  // Children never overlap each other (a request's calls run one after
  // another), so the covered part of a span is the sum of its direct
  // children's durations.
  std::vector<double> self(spans_.size() - first, 0);
  for (size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    double d = MsBetween(s.start, s.end);
    self[i - first] += d;
    if (s.parent >= static_cast<int>(first)) {
      self[static_cast<size_t>(s.parent) - first] -= d;
    }
  }
  std::vector<std::pair<std::string, double>> by_name;
  for (size_t i = first; i < spans_.size(); ++i) {
    std::string_view name = spans_[i].name;
    auto it = std::find_if(by_name.begin(), by_name.end(),
                           [&](const auto& p) { return p.first == name; });
    if (it == by_name.end()) {
      by_name.emplace_back(std::string(name), self[i - first]);
    } else {
      it->second += self[i - first];
    }
  }
  return by_name;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  Clock::time_point t0 = spans_.empty() ? Clock::now() : spans_[0].start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"request\":%lld,\"parent\":%d,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 i, s.name, static_cast<long long>(s.request), s.parent,
                 MsBetween(t0, s.start) * 1e3, MsBetween(t0, s.end) * 1e3);
  }
  return std::fclose(f) == 0;
}

void PrintReport(const Options& o, const std::vector<Metric>& metrics,
                 bool correct, int64_t attempted, int64_t failed) {
  std::printf("%-10s %-34s %16s  %s\n", "workload", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-10s %-34s %16.6g  %s\n", o.workload.c_str(),
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-10s %-34s %16.6g  %s\n", o.workload.c_str(), "error_rate",
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 0.0,
              "fraction");
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintFingerprint(const Options& o) {
  const char* sha = std::getenv("PFBENCH_GIT_SHA");
  std::string env;
  std::map<std::string, std::string> pf_vars;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PF_", 3) == 0) {
      std::string kv = *e;
      size_t eq = kv.find('=');
      pf_vars[kv.substr(0, eq)] = eq == std::string::npos ? "" : kv.substr(eq + 1);
    }
  }
  for (const auto& [k, v] : pf_vars) env += " " + k + "=" + v;
  std::printf(
      "fingerprint: workload=%s seed=%llu seconds=%g trace=%d git=%s "
      "build=%s nproc=%u pool_threads=%d env=[%s ]\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, sha != nullptr && *sha != '\0' ? sha : "unknown",
      PFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
      pf::ThreadPool::DefaultNumThreads(), env.c_str());
}

}  // namespace pfbench
