#ifndef PATHFINDER_SERVE_SERVER_H_
#define PATHFINDER_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/pathfinder.h"
#include "serve/hooks.h"
#include "serve/protocol.h"
#include "xml/database.h"

namespace pathfinder::serve {

/// Cumulative server counters (a consistent-enough snapshot of atomics;
/// also exposed on the wire by the "stats" verb).
struct ServerStats {
  int64_t connections = 0;      // accepted TCP connections, ever
  int64_t live_sessions = 0;    // currently connected
  int64_t requests = 0;         // frames parsed or rejected
  int64_t protocol_errors = 0;  // malformed/oversized frames
  int64_t registers = 0;        // successful document registrations
  int64_t queries = 0;          // query frames admitted or rejected
  int64_t updates = 0;          // update frames admitted or rejected
  int64_t updates_applied = 0;  // updates that produced a new snapshot
  int64_t queued = 0;           // waiting in the admission queue (gauge)
  int64_t inflight = 0;         // executing right now (gauge)
  int64_t completed = 0;        // query responses with ok=true
  int64_t cancelled = 0;        // queries ended by cancellation
  int64_t timeouts = 0;         // queries ended by the wall-time budget
  int64_t mem_rejects = 0;      // queries ended by the memory budget
  int64_t busy_rejects = 0;     // admission-queue overflow replies
  int64_t failed = 0;           // other error responses (invalid_query, ...)
  int64_t disconnects = 0;      // sessions that ended
  int64_t plan_cache_hits = 0;  // across all completed queries
  int64_t subplan_cache_hits = 0;
};

/// A long-lived multi-client query server in front of api::Pathfinder:
/// newline-delimited JSON over TCP (see protocol.h), one reader thread
/// per connection, a bounded admission queue feeding `max_inflight`
/// executor workers (each of which runs morsel-parallel kernels on the
/// shared process thread pool), per-query wall-time and memory budgets
/// enforced through engine::CancelToken checkpoints, client-initiated
/// cancellation, and graceful drain: Shutdown() stops accepting work,
/// lets everything already admitted finish, then closes every
/// connection and joins every thread.
///
/// All clients share one xml::Database and one Pathfinder (hence one
/// cross-query plan/subplan cache — the cross-client hit rate it was
/// built for).
class Server {
 public:
  struct Options {
    /// TCP port to listen on (loopback). 0 = ephemeral; read the
    /// bound port from port() after Start().
    int port = 0;
    /// Concurrent-query cap: number of executor workers.
    int max_inflight = 4;
    /// Admission-queue depth beyond the inflight workers; a query
    /// arriving with the queue full gets a typed "busy" error.
    int queue_depth = 64;
    /// Per-query wall-time budget in ms (0 = unlimited).
    int64_t timeout_ms = 0;
    /// Per-query budget in MiB for materialized tables and constructed
    /// nodes (0 = unlimited).
    int64_t mem_mb = 0;
    /// Frame cap per request/response line.
    size_t max_line_bytes = kDefaultMaxLineBytes;
    /// Base options applied to every query (context_doc and the wire
    /// fields are overridden per request; timeout/mem/token/probe are
    /// owned by the server).
    QueryOptions query_options;
    /// Fault-injection seams (tests); not owned, may be nullptr.
    const ServeTestHooks* hooks = nullptr;

    /// Defaults overridden by PF_SERVE_MAX_INFLIGHT, PF_SERVE_QUEUE,
    /// PF_SERVE_TIMEOUT_MS, PF_SERVE_MEM_MB, PF_SERVE_MAX_LINE_MB.
    static Options FromEnv();
  };

  /// The database is shared and externally owned; registrations from
  /// any client are visible to all (and to direct API users).
  Server(xml::Database* db, Options opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and spawn the accept loop + worker pool.
  Status Start();

  /// Graceful drain: reject new connections and queries, finish the
  /// admitted ones, flush their responses, close every session, join
  /// every thread. Idempotent; also run by the destructor.
  void Shutdown();

  /// The bound TCP port (after Start()).
  int port() const { return port_; }

  ServerStats Stats() const;

  /// The shared engine (its cache() exposes cross-client hit counters).
  Pathfinder* engine() { return &pf_; }

 private:
  struct Session;
  struct Job;

  void AcceptLoop();
  void SessionLoop(std::shared_ptr<Session> s);
  void WorkerLoop();
  void HandleLine(const std::shared_ptr<Session>& s, std::string_view line);
  // Admits a query OR update frame to the shared job queue (both honor
  // the same inflight-id, busy and drain rules).
  void HandleQuery(const std::shared_ptr<Session>& s, Request req);
  // Executes the query and retires its id; returns the response line to
  // write (the caller writes it after dropping the inflight gauge, so a
  // client that has read a response observes inflight already down).
  std::string RunJob(Job& job, std::string* error_token);
  void WriteLine(Session& s, std::string_view line);

  xml::Database* db_;
  Options opts_;
  Pathfinder pf_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::mutex sessions_mu_;
  std::vector<std::shared_ptr<Session>> sessions_;
  std::vector<std::thread> session_threads_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;  // workers: job available / stop
  std::condition_variable drain_cv_;  // Shutdown: queue empty, inflight 0
  std::deque<Job> queue_;
  int64_t inflight_ = 0;     // guarded by queue_mu_
  bool workers_stop_ = false;  // guarded by queue_mu_

  // Counters (atomics so stats reads never block the data path).
  std::atomic<int64_t> connections_{0}, live_sessions_{0}, requests_{0},
      protocol_errors_{0}, registers_{0}, queries_{0}, updates_{0},
      updates_applied_{0}, completed_{0}, cancelled_{0}, timeouts_{0},
      mem_rejects_{0}, busy_rejects_{0}, failed_{0}, disconnects_{0},
      plan_cache_hits_{0}, subplan_cache_hits_{0};
};

}  // namespace pathfinder::serve

#endif  // PATHFINDER_SERVE_SERVER_H_
