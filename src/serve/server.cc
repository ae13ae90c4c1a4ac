#include "serve/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "xml/update.h"

namespace pathfinder::serve {

namespace {

int64_t EnvInt(const char* name, int64_t dflt) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return dflt;
  char* end = nullptr;
  long long parsed = std::strtoll(v, &end, 10);
  if (end == v) return dflt;
  return static_cast<int64_t>(parsed);
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// send() chunk size; the on_write fault hook fires once per chunk, so
/// close-at-byte injections resolve to this granularity.
constexpr size_t kWriteChunk = 4096;

}  // namespace

Server::Options Server::Options::FromEnv() {
  Options o;
  o.max_inflight =
      static_cast<int>(std::max<int64_t>(1, EnvInt("PF_SERVE_MAX_INFLIGHT", 4)));
  o.queue_depth =
      static_cast<int>(std::max<int64_t>(0, EnvInt("PF_SERVE_QUEUE", 64)));
  o.timeout_ms = std::max<int64_t>(0, EnvInt("PF_SERVE_TIMEOUT_MS", 0));
  o.mem_mb = std::max<int64_t>(0, EnvInt("PF_SERVE_MEM_MB", 0));
  o.max_line_bytes = static_cast<size_t>(std::max<int64_t>(
                         1, EnvInt("PF_SERVE_MAX_LINE_MB", 32)))
                     << 20;
  return o;
}

/// Per-connection state. The fd is owned here and closed by the
/// destructor (never earlier): workers may still hold the session via
/// their Job while the reader thread exits, and `dead` under write_mu
/// keeps them from touching a shut-down socket.
struct Server::Session {
  uint64_t id = 0;
  int fd = -1;

  std::mutex write_mu;        // guards dead, bytes_written, and fd sends
  bool dead = false;          // no further writes; results are discarded
  int64_t bytes_written = 0;  // cumulative, for close-at-byte injection

  std::mutex inflight_mu;
  std::unordered_map<std::string, std::shared_ptr<engine::CancelToken>>
      inflight;  // query id -> its cancel token, while queued/executing

  ~Session() {
    if (fd >= 0) ::close(fd);
  }

  /// Stop writes and wake any blocked socket call. Idempotent.
  void MarkDead() {
    std::lock_guard<std::mutex> lock(write_mu);
    if (dead) return;
    dead = true;
    ::shutdown(fd, SHUT_RDWR);
  }
};

struct Server::Job {
  std::shared_ptr<Session> session;
  std::string id;     // query/update id (client-chosen)
  std::string query;  // XQuery text
  std::string doc;    // context document / update target document
  std::shared_ptr<engine::CancelToken> token;
  // Update jobs carry the decoded node update instead of a query; they
  // ride the same queue so admission, cancellation-while-queued and
  // drain-on-shutdown behave identically.
  bool is_update = false;
  xml::NodeUpdate update;
};

Server::Server(xml::Database* db, Options opts)
    : db_(db), opts_(std::move(opts)), pf_(db) {}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::InvalidArgument("server already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(opts_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st = Status::Internal(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 128) < 0) {
    Status st =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  workers_.reserve(static_cast<size_t>(opts_.max_inflight));
  for (int i = 0; i < opts_.max_inflight; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::Shutdown() {
  if (!started_.load() || stopped_.exchange(true)) return;

  // 1. Stop admitting: new connections are turned away, new queries and
  //    registrations get a typed shutting_down error.
  draining_.store(true);
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);  // wakes accept()
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // 2. Drain: every already-admitted query runs to completion and its
  //    response is flushed before any connection is torn down.
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    drain_cv_.wait(lock, [this] { return queue_.empty() && inflight_ == 0; });
    workers_stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();

  // 3. Tear down sessions: wake blocked readers, join them, release.
  std::vector<std::shared_ptr<Session>> sessions;
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions.swap(sessions_);
    threads.swap(session_threads_);
  }
  for (auto& s : sessions) s->MarkDead();
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

ServerStats Server::Stats() const {
  ServerStats st;
  st.connections = connections_.load();
  st.live_sessions = live_sessions_.load();
  st.requests = requests_.load();
  st.protocol_errors = protocol_errors_.load();
  st.registers = registers_.load();
  st.queries = queries_.load();
  st.updates = updates_.load();
  st.updates_applied = updates_applied_.load();
  st.completed = completed_.load();
  st.cancelled = cancelled_.load();
  st.timeouts = timeouts_.load();
  st.mem_rejects = mem_rejects_.load();
  st.busy_rejects = busy_rejects_.load();
  st.failed = failed_.load();
  st.disconnects = disconnects_.load();
  st.plan_cache_hits = plan_cache_hits_.load();
  st.subplan_cache_hits = subplan_cache_hits_.load();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    st.queued = static_cast<int64_t>(queue_.size());
    st.inflight = inflight_;
  }
  return st;
}

void Server::AcceptLoop() {
  uint64_t next_id = 1;
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down: Shutdown() is in progress
    }
    if (draining_.load()) {
      ::close(fd);
      continue;
    }
    // WriteLine sends an answer in chunks; with Nagle's algorithm on,
    // each chunk after the first would wait for the client's ACK, which
    // a client that delays its ACKs holds back for its timer.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto s = std::make_shared<Session>();
    s->id = next_id++;
    s->fd = fd;
    connections_.fetch_add(1);
    live_sessions_.fetch_add(1);
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_.push_back(s);
    session_threads_.emplace_back([this, s] { SessionLoop(s); });
  }
}

void Server::SessionLoop(std::shared_ptr<Session> s) {
  const ServeTestHooks* hooks = opts_.hooks;
  std::string buf;
  char tmp[16384];
  bool fatal = false;
  while (!fatal) {
    if (hooks != nullptr && hooks->before_read) hooks->before_read(s->id);
    ssize_t n = ::recv(s->fd, tmp, sizeof(tmp), 0);
    if (n <= 0) break;  // EOF, error, or MarkDead()'s shutdown()
    buf.append(tmp, static_cast<size_t>(n));
    size_t start = 0;
    for (;;) {
      size_t nl = buf.find('\n', start);
      if (nl == std::string::npos) break;
      std::string_view line(buf.data() + start, nl - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (line.size() > opts_.max_line_bytes) {
        requests_.fetch_add(1);
        protocol_errors_.fetch_add(1);
        WriteLine(*s, ErrorResponse("", kErrProtocol, "frame too large"));
        fatal = true;
        break;
      }
      HandleLine(s, line);
      start = nl + 1;
    }
    buf.erase(0, start);
    if (!fatal && buf.size() > opts_.max_line_bytes) {
      // A frame exceeded the cap without ever ending: unrecoverable,
      // since resynchronizing on the stream is impossible.
      requests_.fetch_add(1);
      protocol_errors_.fetch_add(1);
      WriteLine(*s, ErrorResponse("", kErrProtocol, "frame too large"));
      fatal = true;
    }
  }

  s->MarkDead();
  // The client is gone: abort its in-flight queries so their slots free
  // up immediately. Workers discard results written to a dead session.
  {
    std::lock_guard<std::mutex> lock(s->inflight_mu);
    for (auto& [id, token] : s->inflight) token->Cancel();
  }
  live_sessions_.fetch_sub(1);
  disconnects_.fetch_add(1);
  if (hooks != nullptr && hooks->on_disconnect) hooks->on_disconnect(s->id);
}

void Server::HandleLine(const std::shared_ptr<Session>& s,
                        std::string_view line) {
  requests_.fetch_add(1);
  Result<Request> parsed = ParseRequest(line);
  if (!parsed.ok()) {
    protocol_errors_.fetch_add(1);
    WriteLine(*s, ErrorResponse("", kErrProtocol, parsed.status().message()));
    return;  // malformed frames don't kill the connection
  }
  Request& req = parsed.value();
  switch (req.verb) {
    case Verb::kPing:
      WriteLine(*s, PongResponse());
      return;
    case Verb::kRegister: {
      if (draining_.load()) {
        WriteLine(*s, ErrorResponse("", kErrShuttingDown,
                                    "server is shutting down"));
        return;
      }
      Result<xml::FragId> r = db_->LoadXml(req.name, req.xml);
      if (!r.ok()) {
        failed_.fetch_add(1);
        WriteLine(*s, ErrorResponse("", WireErrorName(r.status()),
                                    r.status().message()));
        return;
      }
      registers_.fetch_add(1);
      WriteLine(*s, RegisterResponse(req.name));
      return;
    }
    case Verb::kQuery:
    case Verb::kUpdate:
      HandleQuery(s, std::move(req));
      return;
    case Verb::kCancel: {
      std::shared_ptr<engine::CancelToken> token;
      {
        std::lock_guard<std::mutex> lock(s->inflight_mu);
        auto it = s->inflight.find(req.id);
        if (it != s->inflight.end()) token = it->second;
      }
      // Reply BEFORE firing: WriteLine serializes on the session's
      // write mutex and the query can only abort after the token
      // fires, so the cancel acknowledgement always precedes the
      // cancelled query's response on the wire — a deterministic order
      // the fault tests rely on.
      WriteLine(*s, CancelResponse(req.id, token != nullptr));
      if (token != nullptr) token->Cancel();
      return;
    }
    case Verb::kStats: {
      ServerStats st = Stats();
      std::string out = R"({"ok":true,"op":"stats")";
      auto field = [&out](const char* k, int64_t v) {
        out += ",\"";
        out += k;
        out += "\":";
        out += std::to_string(v);
      };
      field("connections", st.connections);
      field("live_sessions", st.live_sessions);
      field("requests", st.requests);
      field("protocol_errors", st.protocol_errors);
      field("registers", st.registers);
      field("queries", st.queries);
      field("updates", st.updates);
      field("updates_applied", st.updates_applied);
      field("queued", st.queued);
      field("inflight", st.inflight);
      field("completed", st.completed);
      field("cancelled", st.cancelled);
      field("timeouts", st.timeouts);
      field("mem_rejects", st.mem_rejects);
      field("busy_rejects", st.busy_rejects);
      field("failed", st.failed);
      field("disconnects", st.disconnects);
      field("plan_cache_hits", st.plan_cache_hits);
      field("subplan_cache_hits", st.subplan_cache_hits);
      out += '}';
      WriteLine(*s, out);
      return;
    }
  }
}

void Server::HandleQuery(const std::shared_ptr<Session>& s, Request req) {
  const bool is_update = req.verb == Verb::kUpdate;
  (is_update ? updates_ : queries_).fetch_add(1);
  if (draining_.load()) {
    WriteLine(*s, ErrorResponse(req.id, kErrShuttingDown,
                                "server is shutting down"));
    return;
  }
  Job job;
  job.session = s;
  job.id = std::move(req.id);
  job.query = std::move(req.query);
  job.doc = std::move(req.doc);
  job.token = std::make_shared<engine::CancelToken>();
  if (is_update) {
    job.is_update = true;
    job.update.kind = req.action == "insert"
                          ? xml::NodeUpdate::Kind::kInsertChild
                          : req.action == "delete"
                                ? xml::NodeUpdate::Kind::kDelete
                                : xml::NodeUpdate::Kind::kReplaceValue;
    job.update.target = static_cast<xml::Pre>(req.target);
    job.update.position = static_cast<int32_t>(req.position);
    job.update.xml = std::move(req.xml);
    job.update.value = std::move(req.value);
  }
  {
    std::lock_guard<std::mutex> lock(s->inflight_mu);
    if (!s->inflight.emplace(job.id, job.token).second) {
      protocol_errors_.fetch_add(1);
      WriteLine(*s, ErrorResponse(job.id, kErrProtocol,
                                  "duplicate in-flight query id"));
      return;
    }
  }
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (static_cast<int>(queue_.size()) < opts_.queue_depth) {
      queue_.push_back(std::move(job));
      admitted = true;
    }
  }
  if (admitted) {
    queue_cv_.notify_one();
    return;
  }
  busy_rejects_.fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(s->inflight_mu);
    s->inflight.erase(job.id);
  }
  WriteLine(*s, ErrorResponse(job.id, kErrBusy, "admission queue full"));
}

void Server::WorkerLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return workers_stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // workers_stop_ and nothing left
      job = std::move(queue_.front());
      queue_.pop_front();
      ++inflight_;
    }
    std::string error_token;
    std::string response = RunJob(job, &error_token);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --inflight_;
      if (queue_.empty() && inflight_ == 0) drain_cv_.notify_all();
    }
    // The gauge drops before the response goes out: a client that has
    // read its response and then asks for stats deterministically sees
    // this query gone from `inflight`. Shutdown joins workers before
    // killing sessions, so draining still flushes this write.
    WriteLine(*job.session, response);
    if (opts_.hooks != nullptr && opts_.hooks->on_query_done) {
      opts_.hooks->on_query_done(job.session->id, job.id, error_token);
    }
  }
}

std::string Server::RunJob(Job& job, std::string* error_token) {
  const ServeTestHooks* hooks = opts_.hooks;
  std::string response;

  // A query cancelled while still queued never starts executing.
  Status pre = job.token->Check();
  Status final_status = Status::OK();
  QueryResponseInfo info;
  std::string result_text;
  if (!pre.ok()) {
    final_status = pre;
  } else if (job.is_update) {
    // Updates serialize on the database's update lock; queries on other
    // workers keep reading the pre-update snapshot and are never
    // blocked. The shared engine's cache syncs (repairing value-free
    // entries across content-only updates) at its next BeginQuery.
    Result<xml::UpdateResult> r = xml::ApplyUpdate(db_, job.doc, job.update);
    if (r.ok()) {
      updates_applied_.fetch_add(1);
      response = UpdateResponse(job.id, job.doc, r.value().structural,
                                r.value().nodes_before,
                                r.value().nodes_after);
      std::lock_guard<std::mutex> lock(job.session->inflight_mu);
      job.session->inflight.erase(job.id);
      return response;
    }
    final_status = r.status();
  } else {
    QueryOptions qo = opts_.query_options;
    qo.context_doc = job.doc;
    qo.cancel_token = job.token.get();
    if (opts_.timeout_ms > 0) qo.timeout_ms = opts_.timeout_ms;
    if (opts_.mem_mb > 0) qo.mem_limit_bytes = opts_.mem_mb << 20;
    if (hooks != nullptr && hooks->at_operator) qo.op_probe = hooks->at_operator;

    double t0 = NowMs();
    Result<QueryResult> r = pf_.Run(job.query, qo);
    info.wall_ms = NowMs() - t0;
    if (r.ok()) {
      Result<std::string> text = r.value().Serialize();
      if (text.ok()) {
        result_text = std::move(text.value());
        info.plan_cache_hit = r.value().plan_cache_hit;
        info.subplan_cache_hits = r.value().subplan_cache_hits;
      } else {
        final_status = text.status();
      }
    } else {
      final_status = r.status();
    }
  }

  if (final_status.ok()) {
    completed_.fetch_add(1);
    if (info.plan_cache_hit) plan_cache_hits_.fetch_add(1);
    subplan_cache_hits_.fetch_add(info.subplan_cache_hits);
    response = QueryResponse(job.id, result_text, info);
  } else {
    switch (final_status.error_class()) {
      case ErrorClass::kCancelled:
        cancelled_.fetch_add(1);
        break;
      case ErrorClass::kTimeout:
        timeouts_.fetch_add(1);
        break;
      case ErrorClass::kResourceExhausted:
        mem_rejects_.fetch_add(1);
        break;
      default:
        failed_.fetch_add(1);
        break;
    }
    *error_token = WireErrorName(final_status);
    response = ErrorResponse(job.id, *error_token, final_status.message());
  }

  // Retire the id BEFORE the response goes out: once a client has read
  // a query's response, a cancel for that id deterministically answers
  // found:false.
  {
    std::lock_guard<std::mutex> lock(job.session->inflight_mu);
    job.session->inflight.erase(job.id);
  }
  return response;
}

void Server::WriteLine(Session& s, std::string_view line) {
  const ServeTestHooks* hooks = opts_.hooks;
  std::lock_guard<std::mutex> lock(s.write_mu);
  if (s.dead) return;  // client gone: discard the result
  std::string framed(line);
  framed += '\n';
  size_t off = 0;
  while (off < framed.size()) {
    size_t chunk = std::min(kWriteChunk, framed.size() - off);
    if (hooks != nullptr && hooks->on_write) {
      switch (hooks->on_write(s.id, s.bytes_written)) {
        case ServeTestHooks::WriteFault::kNone:
          break;
        case ServeTestHooks::WriteFault::kDrop:
          s.bytes_written += static_cast<int64_t>(chunk);
          off += chunk;
          continue;  // swallow this chunk, keep going
        case ServeTestHooks::WriteFault::kClose:
          s.dead = true;
          ::shutdown(s.fd, SHUT_RDWR);
          return;
      }
    }
    ssize_t n = ::send(s.fd, framed.data() + off, chunk, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      s.dead = true;
      ::shutdown(s.fd, SHUT_RDWR);
      return;
    }
    s.bytes_written += n;
    off += static_cast<size_t>(n);
  }
}

}  // namespace pathfinder::serve
