#include "telemetry/http_server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "telemetry/metrics.hpp"

namespace artemis::telemetry {
namespace {

using Clock = std::chrono::steady_clock;

/// Total time one connection may take, request read and response write
/// together; a slower client is cut off so the next scrape is served.
constexpr std::chrono::milliseconds kConnectionDeadline{2000};

/// Waits until `fd` is ready for `events` or `deadline` passes.
bool wait_ready(int fd, short events, Clock::time_point deadline) {
  const auto left = std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now());
  if (left.count() <= 0) return false;
  pollfd p{};
  p.fd = fd;
  p.events = events;
  return ::poll(&p, 1, static_cast<int>(left.count())) > 0;
}

bool send_all(int fd, const void* data, std::size_t size, Clock::time_point deadline) {
  const char* p = static_cast<const char*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    if (!wait_ready(fd, POLLOUT, deadline)) return false;  // reader stalled
    const ssize_t n = ::send(fd, p + sent, size - sent, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return false;  // scraper went away — fine
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void send_response(int fd, int status, const char* reason, const char* content_type,
                   const std::string& body, Clock::time_point deadline) {
  std::string head = "HTTP/1.1 " + std::to_string(status) + " " + reason +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  if (send_all(fd, head.data(), head.size(), deadline)) {
    send_all(fd, body.data(), body.size(), deadline);
  }
}

}  // namespace

MetricsServer::MetricsServer(const MetricsRegistry& registry,
                             MetricsServerOptions options)
    : registry_(registry), options_(std::move(options)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("MetricsServer: socket failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 8) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("MetricsServer: cannot bind 127.0.0.1:" +
                             std::to_string(options_.port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  thread_ = std::thread([this] { serve_loop(); });
}

MetricsServer::~MetricsServer() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  write_snapshot();  // final state, never older than one interval
}

std::string MetricsServer::url_for(const std::string& path) const {
  return "http://127.0.0.1:" + std::to_string(port_) + path;
}

void MetricsServer::write_snapshot() const {
  if (options_.snapshot_path.empty()) return;
  const std::string text = registry_.snapshot_json().dump(2) + "\n";
  const std::string tmp = options_.snapshot_path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (ok) {
    std::rename(tmp.c_str(), options_.snapshot_path.c_str());
  } else {
    std::remove(tmp.c_str());
  }
}

void MetricsServer::serve_loop() {
  auto last_snapshot = std::chrono::steady_clock::now();
  while (!stop_.load()) {
    if (!options_.snapshot_path.empty()) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_snapshot >=
          std::chrono::milliseconds(options_.snapshot_interval_ms)) {
        write_snapshot();
        last_snapshot = now;
      }
    }
    pollfd p{};
    p.fd = listen_fd_;
    p.events = POLLIN;
    const int rc = ::poll(&p, 1, 50);
    if (rc <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    handle_connection(fd);
  }
}

void MetricsServer::handle_connection(int fd) {
  // One total deadline for the whole exchange: the server handles one
  // connection at a time, so a client trickling its request (or reading
  // the response) slowly must not hold /healthz and /metrics hostage.
  const Clock::time_point deadline = Clock::now() + kConnectionDeadline;
  // Requests are header-only; read to the blank line with a hard cap.
  std::string request;
  char buf[4096];
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.size() < (64u << 10)) {
    if (!wait_ready(fd, POLLIN, deadline)) break;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<std::size_t>(n));
  }
  if (request.find("\r\n\r\n") == std::string::npos) {
    ::close(fd);
    return;
  }

  // "GET /path HTTP/1.1" — ignore any query string.
  std::string method;
  std::string path;
  {
    const std::size_t sp1 = request.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : request.find(' ', sp1 + 1);
    if (sp1 != std::string::npos && sp2 != std::string::npos) {
      method = request.substr(0, sp1);
      path = request.substr(sp1 + 1, sp2 - sp1 - 1);
      const std::size_t q = path.find('?');
      if (q != std::string::npos) path.resize(q);
    }
  }

  if (method != "GET") {
    send_response(fd, 405, "Method Not Allowed", "text/plain",
                  "method not allowed\n", deadline);
  } else if (path == "/metrics") {
    send_response(fd, 200, "OK", "text/plain; version=0.0.4",
                  registry_.render_prometheus(), deadline);
  } else if (path == "/healthz") {
    HealthStatus health;
    if (options_.health) health = options_.health();
    if (health.ok) {
      send_response(fd, 200, "OK", "text/plain", health.body, deadline);
    } else {
      send_response(fd, 503, "Service Unavailable", "text/plain", health.body, deadline);
    }
  } else {
    send_response(fd, 404, "Not Found", "text/plain", "not found\n", deadline);
  }
  ::close(fd);
}

}  // namespace artemis::telemetry
