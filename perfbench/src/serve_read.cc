// serve-read: an in-process serve::Server at default options under a
// closed-loop read load, over loopback.
//
// Corpus: kDocs XMark documents at sf kSf, each from its own seed. One
// reader connection sends (document, query) pairs over Q1..Q20 drawn
// from a Zipf law, one at a time: the next request goes out as soon as
// the answer to the previous one is in. The workload seed picks the
// documents; the stream of draws is the same for every seed. With three
// such connections time-sharing the run's one CPU, each read's latency
// depended on how the scheduler interleaved it with the other two:
// geomean_ms was twice that of one connection.
//
// The server does not set TCP_NODELAY, so the last partial segment of an
// answer waits until the client acknowledges the data before it. A plain
// client delays that ACK (by up to its delayed-ACK timeout), which would
// make read latency track that timer instead of the server. The reader
// therefore sets TCP_NODELAY on its own side and re-arms TCP_QUICKACK
// after every send (the kernel leaves quick-ACK mode on its own), so
// latency reflects admission, execution and serialization.
//
// The working set (kDocs x 20 plans and their subplan results) overflows
// both sections of the default 64 MiB cache while the Zipf head fits, so
// eviction and admission run while reads continue.
//
// No writer runs alongside the reader: a document published while a
// query that constructs nodes is running makes that query resolve its
// constructed nodes against the new snapshot (wrong answers, or a crash),
// so concurrent updates wait for that defect to be fixed.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "serve/client.h"
#include "serve/server.h"
#include "workloads.h"
#include "xmark/queries.h"
#include "xml/serializer.h"

namespace pfbench {

namespace pf = pathfinder;
using pf::serve::Client;
using pf::serve::JsonValue;

namespace {

// Fixed load shape (see perfbench/README.md).
constexpr int kDocs = 12;
constexpr double kSf = 0.01;
constexpr int kReaders = 1;     // connections, one request in flight each
constexpr double kZipfS = 1.0;  // skew over (document, query) pairs
// Seeds the reader's draws. The request stream is the same for every
// workload seed, which picks only the documents: the subplan section's
// cost-density eviction makes what stays cached depend on the order of
// the requests, and two streams drawn from the same Zipf law over the
// same documents moved geomean_ms by up to a quarter.
constexpr uint64_t kStreamSeed = 0x4EAD;
constexpr double kWarmupSeconds = 3.0;
constexpr int kSetupReps = 5;
constexpr int kCallTimeoutMs = 20000;

std::string DocName(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "auction-%02d.xml", i);
  return buf;
}

/// Zipf over kDocs x 20 ranks by exact CDF. Rank r maps to query r % 20
/// of document r / 20: the mapping is fixed so that every seed has the
/// same hot set shape (two documents' worth of plans at the head).
class PairSampler {
 public:
  explicit PairSampler(int pairs) {
    double total = 0;
    for (int r = 1; r <= pairs; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r), kZipfS);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  int Draw(pf::Rng* rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng->NextDouble());
    return static_cast<int>(
        std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                         cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

struct DocInfo {
  std::string name;
  std::string xml;
  std::vector<std::string> expected;  // Q1..Q20, from the baseline
};

/// A read as the client saw it.
struct Sample {
  double latency_ms;  // request sent -> answer read
  double exec_ms;     // the answer's server-side Pathfinder::Run time
  int query;          // 0..19
};

/// What one connection did.
struct ConnReport {
  std::vector<Sample> samples;  // timed phase only
  int64_t attempted = 0;        // timed phase only
  int64_t failed = 0;           // timed phase only
  int64_t wrong = 0;            // warm-up included
  std::string first_error;
};

bool Ok(const pf::Result<JsonValue>& r) {
  if (!r.ok()) return false;
  const JsonValue* ok = r->Find("ok");
  return ok != nullptr && ok->AsBool();
}

std::string Describe(const pf::Result<JsonValue>& r) {
  if (!r.ok()) return r.status().ToString();
  const JsonValue* e = r->Find("error");
  return e != nullptr ? std::string(e->AsString()) : "malformed response";
}

/// Ask the kernel to acknowledge the next incoming segments at once.
void QuickAck(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
}

void NoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Pins the calling thread, and so every thread it starts from then on,
/// to the CPU it is running on. Returns that CPU, or -1.
int PinToOneCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

Clock::time_point After(Clock::time_point t, double ms) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

bool RunServeRead(const Options& o, Tracer* tracer, RunResult* out) {
  const auto& queries = pf::xmark::XMarkQueries();
  const int nq = static_cast<int>(queries.size());
  // Server and client share one CPU. Spread over several, most handoffs
  // between the client and the server would wake an idle virtual CPU, and
  // on a shared host that wake-up time swung read throughput by half
  // between runs of the same seed minutes apart.
  const int cpu = PinToOneCpu();
  if (cpu < 0) {
    std::fprintf(stderr, "cannot pin the run to one CPU\n");
    return false;
  }

  // Corpus and reference answers, before anything is timed.
  Clock::time_point g0 = Clock::now();
  std::vector<DocInfo> docs(kDocs);
  double xml_bytes = 0;
  for (int i = 0; i < kDocs; ++i) {
    DocInfo& d = docs[static_cast<size_t>(i)];
    d.name = DocName(i);
    pf::Result<std::string> xml =
        XMarkXml(kSf, Mix(o.seed * 1000003ull + static_cast<uint64_t>(i)));
    if (!xml.ok()) {
      std::fprintf(stderr, "generate: %s\n", xml.status().ToString().c_str());
      return false;
    }
    d.xml = std::move(xml.value());
    xml_bytes += static_cast<double>(d.xml.size());
  }
  Clock::time_point g1 = Clock::now();
  for (DocInfo& d : docs) {
    pf::Result<std::vector<std::string>> ref = ReferenceAnswers(d.name, d.xml);
    if (!ref.ok()) {
      std::fprintf(stderr, "reference: %s\n", ref.status().ToString().c_str());
      return false;
    }
    d.expected = std::move(ref.value());
  }
  Clock::time_point g2 = Clock::now();

  // Direct LoadXml of the corpus (the per-layer xml.load_ms).
  double load_ms = 0;
  {
    pf::xml::Database direct;
    for (const DocInfo& d : docs) {
      Clock::time_point t0 = Clock::now();
      if (!direct.LoadXml(d.name, d.xml).ok()) return false;
      load_ms += MsBetween(t0, Clock::now());
    }
  }

  // Setup: Server::Start plus the wire register of every document, into
  // a fresh database each time; the last repetition stays up.
  std::unique_ptr<pf::xml::Database> db;
  std::unique_ptr<pf::serve::Server> srv;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    srv.reset();  // drains and joins the previous repetition's server
    db = std::make_unique<pf::xml::Database>();
    Clock::time_point t0 = Clock::now();
    srv = std::make_unique<pf::serve::Server>(
        db.get(), pf::serve::Server::Options::FromEnv());
    pf::Status st = srv->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "server start: %s\n", st.ToString().c_str());
      return false;
    }
    Client c;
    if (!c.Connect(srv->port()).ok()) return false;
    for (const DocInfo& d : docs) {
      pf::Result<JsonValue> r =
          c.Call(Client::RegisterFrame(d.name, d.xml), kCallTimeoutMs);
      if (!Ok(r)) {
        std::fprintf(stderr, "register %s: %s\n", d.name.c_str(),
                     Describe(r).c_str());
        return false;
      }
    }
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  const int port = srv->port();
  size_t summary_bytes = 0;
  const double storage = static_cast<double>(StorageBytes(*db, &summary_bytes));
  std::printf("corpus: %d docs at sf %g, %.0f XML bytes; generate %.2f s, "
              "reference %.2f s\n",
              kDocs, kSf, xml_bytes, MsBetween(g0, g1) / 1e3,
              MsBetween(g1, g2) / 1e3);
  std::printf("load: closed loop, %d connection(s), Zipf s=%g over %d "
              "(document, query) pairs, warm-up %.0f s, all threads on "
              "CPU %d\n",
              kReaders, kZipfS, kDocs * nq, kWarmupSeconds, cpu);

  // Traffic. Requests sent before `timed` are warm-up: their answers are
  // checked but they are not counted.
  const PairSampler sampler(kDocs * nq);
  const Clock::time_point timed = After(Clock::now(), kWarmupSeconds * 1e3);
  const Clock::time_point end = After(timed, o.seconds * 1e3);
  std::vector<ConnReport> reports(kReaders);
  std::vector<Tracer> tracers(kReaders);  // merged into `tracer` at the end

  auto reader = [&](int ci) {
    ConnReport& rep = reports[static_cast<size_t>(ci)];
    auto note = [&rep](const std::string& what) {
      if (rep.first_error.empty()) rep.first_error = what;
    };
    pf::Rng rng(Mix(kStreamSeed + static_cast<uint64_t>(ci)));
    Client c;
    if (!c.Connect(port).ok()) {
      ++rep.attempted;
      ++rep.failed;
      note("connect failed");
      return;
    }
    NoDelay(c.fd());
    for (int64_t i = 0; Clock::now() < end; ++i) {
      const int pair = sampler.Draw(&rng);
      const int q = pair % nq;
      const DocInfo& d = docs[static_cast<size_t>(pair / nq)];
      auto what = [&] { return d.name + " Q" + std::to_string(q + 1); };
      const std::string frame = Client::QueryFrame(
          std::to_string(i), queries[static_cast<size_t>(q)].text, d.name);
      const Clock::time_point sent = Clock::now();
      const bool counted = sent >= timed;
      pf::Status st = c.SendLine(frame);
      QuickAck(c.fd());
      pf::Result<std::string> line =
          st.ok() ? c.ReadLine(kCallTimeoutMs) : pf::Result<std::string>(st);
      const Clock::time_point got = Clock::now();
      if (!line.ok()) {
        // The connection is out of step or gone; it sends no more.
        if (counted) ++rep.attempted, ++rep.failed;
        note(what() + ": " + line.status().ToString());
        break;
      }
      pf::Result<JsonValue> r = pf::serve::ParseJson(line.value());
      const JsonValue* id = r.ok() ? r->Find("id") : nullptr;
      const bool right =
          Ok(r) && id != nullptr && id->AsString() == std::to_string(i) &&
          r->Find("result") != nullptr &&
          r->Find("result")->str == d.expected[static_cast<size_t>(q)];
      if (Ok(r) && !right) {
        ++rep.wrong;
        note(what() + ": answer differs from the baseline's");
      }
      if (!counted) continue;
      ++rep.attempted;
      if (!right) {
        ++rep.failed;
        if (!Ok(r)) note(what() + ": " + Describe(r));
        continue;
      }
      const JsonValue* ms = r->Find("ms");
      Sample s{MsBetween(sent, got), ms != nullptr ? ms->AsNumber() : 0, q};
      if (tracer != nullptr) {
        // Client-side spans: the request from its send, split by the
        // server's wall_ms into execution and everything else
        // (admission queue, framing, result serialization, socket).
        Tracer& t = tracers[static_cast<size_t>(ci)];
        const int64_t req = static_cast<int64_t>(ci) << 40 | i;
        const Clock::time_point exec_start = After(got, -s.exec_ms);
        const int root = t.Add("request", req, -1, sent, got);
        t.Add("serve.wait", req, root, sent, exec_start);
        t.Add("serve.exec", req, root, exec_start, got);
      }
      rep.samples.push_back(s);
    }
    c.Close();
  };

  pf::engine::QueryCache* cache = srv->engine()->cache();
  std::vector<std::thread> threads;
  for (int ci = 0; ci < kReaders; ++ci) threads.emplace_back(reader, ci);
  std::this_thread::sleep_until(timed);
  const pf::engine::CacheStats c0 = cache->Stats();
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "warning: cannot reset the RSS high-water mark\n");
  }
  for (std::thread& t : threads) t.join();
  const Clock::time_point done = Clock::now();
  const double peak_rss = PeakRssMb();
  const pf::engine::CacheStats c1 = cache->Stats();
  const double elapsed_s = MsBetween(timed, done) / 1e3;

  // The store must still serialize every document to its original bytes.
  int64_t drifted = 0;
  for (const DocInfo& d : docs) {
    pf::Result<pf::xml::FragId> id = db->FindDocument(d.name);
    if (!id.ok() ||
        pf::xml::SerializeDocument(db->doc(id.value()), *db->pool()) != d.xml) {
      std::fprintf(stderr, "%s no longer serializes to its original bytes\n",
                   d.name.c_str());
      ++drifted;
    }
  }
  srv.reset();

  std::vector<double> read_ms, exec_ms, wait_ms;
  std::vector<std::vector<double>> per_query(static_cast<size_t>(nq));
  int64_t wrong = 0;
  for (size_t ci = 0; ci < reports.size(); ++ci) {
    const ConnReport& rep = reports[ci];
    out->attempted += rep.attempted;
    out->failed += rep.failed;
    wrong += rep.wrong;
    if (!rep.first_error.empty()) {
      std::fprintf(stderr, "connection %zu: %lld failed, first: %s\n", ci,
                   static_cast<long long>(rep.failed),
                   rep.first_error.c_str());
    }
    for (const Sample& s : rep.samples) {
      read_ms.push_back(s.latency_ms);
      exec_ms.push_back(s.exec_ms);
      wait_ms.push_back(s.latency_ms - s.exec_ms);
      per_query[static_cast<size_t>(s.query)].push_back(s.latency_ms);
    }
  }
  if (tracer != nullptr) {
    for (const Tracer& t : tracers) tracer->Append(t);
  }
  out->correct = wrong == 0 && drifted == 0;

  std::printf("%-4s %6s %12s %12s\n", "q", "n", "median_ms", "p90_ms");
  for (int q = 0; q < nq; ++q) {
    const std::vector<double>& v = per_query[static_cast<size_t>(q)];
    std::printf("Q%-3d %6zu %12.4f %12.4f\n", q + 1, v.size(), Median(v),
                Percentile(v, 0.9));
  }
  std::printf("reads %zu: p50 %.3f ms, p99 %.3f ms%s; exec p50 %.3f ms; "
              "%.2f s timed\n",
              read_ms.size(), Median(read_ms), Percentile(read_ms, 0.99),
              read_ms.size() >= 1000 ? ""
                                     : " (fewer than 1000 reads: p99 has "
                                       "under ten samples beyond it)",
              Median(exec_ms), elapsed_s);

  auto delta = [](int64_t a, int64_t b) { return static_cast<double>(b - a); };
  auto rate = [](int64_t hits, int64_t misses) {
    return hits + misses > 0
               ? static_cast<double>(hits) / static_cast<double>(hits + misses)
               : 0.0;
  };
  const double plan_hit_rate =
      rate(c1.plan.hits - c0.plan.hits, c1.plan.misses - c0.plan.misses);
  const double subplan_hit_rate = rate(c1.subplan.hits - c0.subplan.hits,
                                       c1.subplan.misses - c0.subplan.misses);
  std::printf("cache: plan hit rate %.3f, subplan hit rate %.3f, %.0f plan "
              "and %.0f subplan evictions\n",
              plan_hit_rate, subplan_hit_rate,
              delta(c0.plan.evictions, c1.plan.evictions),
              delta(c0.subplan.evictions, c1.subplan.evictions));

  std::vector<Metric>& m = out->metrics;
  if (!o.trace) {
    m.push_back({"setup_s", Median(setup_s), "s"});
    m.push_back({"qps", static_cast<double>(read_ms.size()) / elapsed_s,
                 "req/s"});
    // Over every read rather than over per-query medians: a query's reads
    // mix cache hits and misses, and the median of a query that hits about
    // half the time jumps between the two.
    m.push_back({"geomean_ms", GeoMean(read_ms), "ms"});
    m.push_back({"peak_rss_mb", peak_rss, "MiB"});
    m.push_back({"storage_ratio", storage / xml_bytes, "ratio"});
    return true;
  }
  // The client-side spans are recorded after each answer has arrived and
  // split it by the answer's own `ms`, so they cost the reads nothing and
  // cover them by construction: trace.coverage and trace.overhead are not
  // measured here (run.py reports them as 0).
  m.push_back({"serve.read_p50_ms", Median(read_ms), "ms"});
  m.push_back({"serve.read_p99_ms", Percentile(read_ms, 0.99), "ms"});
  m.push_back({"serve.exec_p50_ms", Median(exec_ms), "ms"});
  m.push_back({"serve.exec_p99_ms", Percentile(exec_ms, 0.99), "ms"});
  m.push_back({"serve.wait_p50_ms", Median(wait_ms), "ms"});
  m.push_back({"serve.wait_p99_ms", Percentile(wait_ms, 0.99), "ms"});
  m.push_back({"engine.cache.plan_hit_rate", plan_hit_rate, "fraction"});
  m.push_back({"engine.cache.subplan_hit_rate", subplan_hit_rate, "fraction"});
  m.push_back({"engine.cache.plan_evictions",
               delta(c0.plan.evictions, c1.plan.evictions), "count"});
  m.push_back({"engine.cache.subplan_evictions",
               delta(c0.subplan.evictions, c1.subplan.evictions), "count"});
  m.push_back({"engine.cache.admission_rejects",
               delta(c0.admission_rejects, c1.admission_rejects), "count"});
  m.push_back({"engine.cache.mb",
               static_cast<double>(c1.plan.bytes + c1.subplan.bytes) /
                   (1 << 20),
               "MiB"});
  m.push_back({"xml.load_ms", load_ms, "ms"});
  m.push_back({"xml.store_mb",
               (storage - static_cast<double>(summary_bytes)) / (1 << 20),
               "MiB"});
  m.push_back({"xml.pathsum_mb", static_cast<double>(summary_bytes) / (1 << 20),
               "MiB"});
  return true;
}

}  // namespace pfbench
