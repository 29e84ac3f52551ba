#include "live_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "trace.hpp"

namespace e2ebench {

namespace {

constexpr int kAcceptTimeoutMs = 30000;

bool wait_readable(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  return ::poll(&pfd, 1, timeout_ms) == 1;
}

}  // namespace

PacedServer::PacedServer(std::span<const std::uint8_t> body,
                         std::span<const RecordInfo> records,
                         double observations_per_second)
    : body_(body), records_(records) {
  std::uint64_t produced = 0;
  due_offset_ns_.reserve(records.size());
  for (const auto& r : records) {
    produced += r.observations;
    due_offset_ns_.push_back(
        static_cast<std::int64_t>(static_cast<double>(produced) * 1e9 / observations_per_second));
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof addr;
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 1) != 0 ||
      ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    throw std::runtime_error("listen on loopback: " + what);
  }
  port_ = ntohs(addr.sin_port);
}

PacedServer::~PacedServer() {
  if (thread_.joinable()) thread_.join();
  if (conn_fd_ >= 0) ::close(conn_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void PacedServer::start() {
  thread_ = std::thread([this] {
    try {
      serve();
    } catch (const std::exception& e) {
      error_ = e.what();
    }
    if (conn_fd_ >= 0) ::shutdown(conn_fd_, SHUT_RDWR);
  });
}

void PacedServer::join() {
  if (thread_.joinable()) thread_.join();
  if (!error_.empty()) throw std::runtime_error("live server: " + error_);
}

void PacedServer::send_all(const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(conn_fd_, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("send: " + std::string(std::strerror(errno)));
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

void PacedServer::serve() {
  if (!wait_readable(listen_fd_, kAcceptTimeoutMs)) throw std::runtime_error("no client");
  conn_fd_ = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (conn_fd_ < 0) throw std::runtime_error("accept: " + std::string(std::strerror(errno)));
  // Read the request head; the body is served whatever the target.
  std::string request;
  char buf[1024];
  while (request.find("\r\n\r\n") == std::string::npos) {
    if (!wait_readable(conn_fd_, kAcceptTimeoutMs)) throw std::runtime_error("request timeout");
    const ssize_t n = ::recv(conn_fd_, buf, sizeof buf, 0);
    if (n <= 0) throw std::runtime_error("client closed before the request ended");
    request.append(buf, static_cast<std::size_t>(n));
  }
  const std::string head = "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n"
                           "Content-Length: " + std::to_string(body_.size()) +
                           "\r\nConnection: close\r\n\r\n";
  send_all(reinterpret_cast<const std::uint8_t*>(head.data()), head.size());

  const std::int64_t start = now_ns();
  start_ns_.store(start, std::memory_order_release);
  std::size_t next = 0;
  std::uint64_t sent = 0;
  while (next < records_.size()) {
    const std::int64_t due = start + due_offset_ns_[next];
    std::int64_t now = now_ns();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = now_ns();
    }
    // Everything already due goes out in one write.
    std::size_t last = next;
    while (last + 1 < records_.size() && start + due_offset_ns_[last + 1] <= now) ++last;
    late_ns_.push_back(now - due);
    send_all(body_.data() + sent, records_[last].end - sent);
    sent = records_[last].end;
    next = last + 1;
  }
}

}  // namespace e2ebench
