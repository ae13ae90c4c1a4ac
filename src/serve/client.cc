#include "serve/client.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace pathfinder::serve {

Status Client::Connect(int port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st =
        Status::Internal(std::string("connect: ") + std::strerror(errno));
    Close();
    return st;
  }
  return Status::OK();
}

Status Client::SendLine(std::string_view line) {
  std::string framed(line);
  framed += '\n';
  return SendRaw(framed);
}

Status Client::SendRaw(std::string_view bytes) {
  if (fd_ < 0) return Status::Internal("client not connected");
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::Internal(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::string> Client::ReadLine(int timeout_ms) {
  if (fd_ < 0) return Status::Internal("client not connected");
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  for (;;) {
    size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now())
                    .count();
    if (left <= 0) return Status::Timeout("client read timed out");
    pollfd p{fd_, POLLIN, 0};
    int pr = ::poll(&p, 1, static_cast<int>(left));
    if (pr < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("poll: ") + std::strerror(errno));
    }
    if (pr == 0) return Status::Timeout("client read timed out");
    char tmp[16384];
    ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
    if (n == 0) return Status::NotFound("eof");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("recv: ") + std::strerror(errno));
    }
    buf_.append(tmp, static_cast<size_t>(n));
  }
}

Result<JsonValue> Client::Call(std::string_view line, int timeout_ms) {
  PF_RETURN_NOT_OK(SendLine(line));
  PF_ASSIGN_OR_RETURN(std::string reply, ReadLine(timeout_ms));
  return ParseJson(reply);
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buf_.clear();
}

std::string Client::PingFrame() { return R"({"op":"ping"})"; }

std::string Client::RegisterFrame(std::string_view name,
                                  std::string_view xml) {
  std::string out = R"({"op":"register","name":)";
  AppendJsonString(&out, name);
  out += ",\"xml\":";
  AppendJsonString(&out, xml);
  out += '}';
  return out;
}

std::string Client::QueryFrame(std::string_view id, std::string_view query,
                               std::string_view doc) {
  std::string out = R"({"op":"query","id":)";
  AppendJsonString(&out, id);
  out += ",\"q\":";
  AppendJsonString(&out, query);
  if (!doc.empty()) {
    out += ",\"doc\":";
    AppendJsonString(&out, doc);
  }
  out += '}';
  return out;
}

std::string Client::UpdateFrame(std::string_view id, std::string_view doc,
                                std::string_view action, uint32_t target,
                                int32_t position, std::string_view xml,
                                std::string_view value) {
  std::string out = R"({"op":"update","id":)";
  AppendJsonString(&out, id);
  out += ",\"doc\":";
  AppendJsonString(&out, doc);
  out += ",\"action\":";
  AppendJsonString(&out, action);
  out += ",\"target\":";
  out += std::to_string(target);
  if (position >= 0) {
    out += ",\"position\":";
    out += std::to_string(position);
  }
  if (!xml.empty()) {
    out += ",\"xml\":";
    AppendJsonString(&out, xml);
  }
  if (action == "replace") {
    out += ",\"value\":";
    AppendJsonString(&out, value);
  }
  out += '}';
  return out;
}

std::string Client::CancelFrame(std::string_view id) {
  std::string out = R"({"op":"cancel","id":)";
  AppendJsonString(&out, id);
  out += '}';
  return out;
}

std::string Client::StatsFrame() { return R"({"op":"stats"})"; }

}  // namespace pathfinder::serve
