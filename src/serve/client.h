#ifndef PATHFINDER_SERVE_CLIENT_H_
#define PATHFINDER_SERVE_CLIENT_H_

#include <string>
#include <string_view>

#include "base/result.h"
#include "serve/json.h"

namespace pathfinder::serve {

/// Minimal blocking client for the pf_serve line protocol, used by the
/// serve tests and perfbench's serve-read workload. Reads are
/// poll()-timed so a server bug (or an injected fault) fails a test
/// with a Timeout status instead of hanging it.
class Client {
 public:
  Client() = default;
  ~Client() { Close(); }
  Client(Client&& o) noexcept : fd_(o.fd_), buf_(std::move(o.buf_)) {
    o.fd_ = -1;
  }
  Client& operator=(Client&&) = delete;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect to 127.0.0.1:port.
  Status Connect(int port);

  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Send one raw frame; '\n' is appended.
  Status SendLine(std::string_view line);

  /// Send exactly these bytes (no framing) — for mid-frame fault tests.
  Status SendRaw(std::string_view bytes);

  /// Read one '\n'-terminated frame (newline stripped). Times out with
  /// Status::Timeout; a server-side close yields Status::NotFound("eof").
  Result<std::string> ReadLine(int timeout_ms = 5000);

  /// SendLine + ReadLine + ParseJson of the response.
  Result<JsonValue> Call(std::string_view line, int timeout_ms = 5000);

  /// Full close (server sees the disconnect).
  void Close();

  // --- convenience request builders -------------------------------------

  static std::string PingFrame();
  static std::string RegisterFrame(std::string_view name,
                                   std::string_view xml);
  static std::string QueryFrame(std::string_view id, std::string_view query,
                                std::string_view doc = {});
  /// `action` is "insert" | "delete" | "replace"; `xml` rides with
  /// insert, `value` with replace, `position` < 0 means append.
  static std::string UpdateFrame(std::string_view id, std::string_view doc,
                                 std::string_view action, uint32_t target,
                                 int32_t position = -1,
                                 std::string_view xml = {},
                                 std::string_view value = {});
  static std::string CancelFrame(std::string_view id);
  static std::string StatsFrame();

 private:
  int fd_ = -1;
  std::string buf_;  // bytes read past the last returned frame
};

}  // namespace pathfinder::serve

#endif  // PATHFINDER_SERVE_CLIENT_H_
