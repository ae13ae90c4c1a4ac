// End-to-end test of the pf_serve executable itself: boot it on an
// ephemeral port, talk to it over the wire, then SIGTERM it and require
// a clean drain. The other serve suites run the Server class in
// process; this one covers main(): argument parsing, the listening
// line, signal handling and the exit status.

#include <gtest/gtest.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <string>

#include "api/pathfinder.h"
#include "serve/client.h"
#include "xml/database.h"

extern char** environ;

namespace pathfinder::serve {
namespace {

constexpr const char* kDocXml =
    "<site><p id=\"1\"><n>ann</n></p><p id=\"2\"><n>bob</n></p>"
    "<p id=\"3\"><n>cy</n></p></site>";

// One pf_serve child with its stdout on a pipe. The destructor kills
// and reaps a child the test did not shut down itself.
class ServerProcess {
 public:
  ~ServerProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (out_ >= 0) close(out_);
  }

  bool Spawn() {
    int fds[2];
    if (pipe(fds) != 0) return false;
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    char* argv[] = {const_cast<char*>(PF_SERVE_BIN),
                    const_cast<char*>("--port"), const_cast<char*>("0"),
                    nullptr};
    int rc = posix_spawn(&pid_, PF_SERVE_BIN, &fa, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    out_ = fds[0];
    if (rc != 0) pid_ = -1;
    return rc == 0;
  }

  /// The next stdout line, or "" on EOF or after `timeout_ms`.
  std::string ReadLine(int timeout_ms = 30000) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    for (;;) {
      size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      pollfd p{out_, POLLIN, 0};
      if (left.count() <= 0 ||
          poll(&p, 1, static_cast<int>(left.count())) <= 0) {
        return "";
      }
      char chunk[512];
      ssize_t n = read(out_, chunk, sizeof(chunk));
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// SIGTERM, then the exit status once the child has gone.
  int Terminate() {
    kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return status;
  }

 private:
  pid_t pid_ = -1;
  int out_ = -1;
  std::string buf_;
};

TEST(ServeBinaryTest, BootsAnswersAndDrainsOnSigterm) {
  ServerProcess server;
  ASSERT_TRUE(server.Spawn());
  const std::string banner = server.ReadLine();
  const std::string prefix = "listening on 127.0.0.1:";
  size_t at = banner.find(prefix);
  ASSERT_NE(at, std::string::npos) << "banner: " << banner;
  const int port = std::atoi(banner.c_str() + at + prefix.size());
  ASSERT_GT(port, 0) << "banner: " << banner;

  Client c;
  ASSERT_TRUE(c.Connect(port).ok());
  auto pong = c.Call(Client::PingFrame());
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->Find("op")->str, "pong");
  auto reg = c.Call(Client::RegisterFrame("d.xml", kDocXml));
  ASSERT_TRUE(reg.ok()) << reg.status().ToString();
  ASSERT_TRUE(reg->Find("ok")->AsBool());

  // The wire answers match an in-process run over the same document.
  xml::Database db;
  ASSERT_TRUE(db.LoadXml("d.xml", kDocXml).ok());
  Pathfinder pf(&db);
  QueryOptions o;
  o.context_doc = "d.xml";
  int id = 0;
  for (const char* q : {"count(/site/p)",
                        "for $p in /site/p where $p/@id > 1 "
                        "return <who>{$p/n/text()}</who>"}) {
    SCOPED_TRACE(q);
    auto want = pf.Run(q, o);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    auto want_bytes = want->Serialize();
    ASSERT_TRUE(want_bytes.ok());
    auto got = c.Call(Client::QueryFrame("q" + std::to_string(++id), q,
                                         "d.xml"));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got->Find("ok")->AsBool());
    EXPECT_EQ(got->Find("result")->str, *want_bytes);
  }
  c.Close();

  const int status = server.Terminate();
  ASSERT_TRUE(WIFEXITED(status)) << "status " << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);
  std::string rest;
  for (std::string line = server.ReadLine(); !line.empty();
       line = server.ReadLine()) {
    rest += line + "\n";
  }
  EXPECT_NE(rest.find("drained"), std::string::npos) << rest;
}

}  // namespace
}  // namespace pathfinder::serve
