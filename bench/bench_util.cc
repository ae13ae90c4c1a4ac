#include "bench/bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>

#include "xmark/generator.h"
#include "xml/serializer.h"

namespace pathfinder::bench {

std::vector<double> ScaleFactors() {
  const char* env = std::getenv("PF_XMARK_SF_LIST");
  if (env == nullptr) return {0.0005, 0.002, 0.01, 0.05};
  std::vector<double> out;
  std::string s(env);
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(std::atof(s.substr(pos, comma - pos).c_str()));
    pos = comma + 1;
  }
  return out;
}

double TimeMs(const std::function<void()>& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double BestOfMs(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    double ms = TimeMs(fn);
    if (ms < best) best = ms;
  }
  return best;
}

namespace {

std::map<double, std::unique_ptr<xml::Database>>& DbCache() {
  static auto* cache = new std::map<double, std::unique_ptr<xml::Database>>();
  return *cache;
}

}  // namespace

xml::Database* XMarkDb(double sf) {
  auto& cache = DbCache();
  auto it = cache.find(sf);
  if (it != cache.end()) return it->second.get();
  auto db = std::make_unique<xml::Database>();
  auto doc = xmark::GenerateXMark(sf, 42, db->pool());
  if (!doc.ok()) {
    std::fprintf(stderr, "XMark generation failed: %s\n",
                 doc.status().ToString().c_str());
    std::exit(1);
  }
  db->AddDocument("auction.xml", std::move(*doc));
  xml::Database* ptr = db.get();
  cache.emplace(sf, std::move(db));
  return ptr;
}

size_t XMarkXmlBytes(double sf) {
  static auto* memo = new std::map<double, size_t>();
  auto it = memo->find(sf);
  if (it != memo->end()) return it->second;
  xml::Database* db = XMarkDb(sf);
  size_t bytes = xml::SerializeDocument(db->doc(0), *db->pool()).size();
  memo->emplace(sf, bytes);
  return bytes;
}

std::string FmtMs(double ms) {
  char buf[32];
  if (ms < 0) return "DNF";
  if (ms < 10) {
    std::snprintf(buf, sizeof(buf), "%.2f", ms);
  } else if (ms < 100) {
    std::snprintf(buf, sizeof(buf), "%.1f", ms);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", ms);
  }
  return buf;
}

std::string FmtFactor(double f) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", f);
  return buf;
}

}  // namespace pathfinder::bench
