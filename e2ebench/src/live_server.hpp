// Open-loop MRT feed for the live workload: a one-connection HTTP/1.1
// server on loopback that serves an identity-encoded MRT stream, each
// record sent when it is due at a fixed observation rate — whether or
// not the client keeps up (an open loop, so a stalled client sees the
// backlog arrive at once, and latency counts from the due time).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "generator.hpp"

namespace e2ebench {

class PacedServer {
 public:
  /// Record r (the bytes up to records[r].end) is due once the
  /// observations of records 0..r have been "produced" at
  /// `observations_per_second`, counted from the first body byte.
  PacedServer(std::span<const std::uint8_t> body, std::span<const RecordInfo> records,
              double observations_per_second);
  ~PacedServer();

  PacedServer(const PacedServer&) = delete;
  PacedServer& operator=(const PacedServer&) = delete;

  int port() const { return port_; }

  /// Serves one GET on a background thread.
  void start();
  /// Waits for the serving thread; throws if serving failed.
  void join();

  /// Steady-clock time the first body byte was due.
  std::int64_t start_ns() const { return start_ns_.load(std::memory_order_acquire); }
  /// Absolute steady-clock due time of record r (valid once the body has
  /// started, i.e. after the client saw its first byte).
  std::int64_t due_ns(std::size_t record) const {
    return start_ns() + due_offset_ns_[record];
  }
  /// How late each write went out, measured for the earliest record it
  /// carried (valid after join()).
  const std::vector<std::int64_t>& late_ns() const { return late_ns_; }

 private:
  void serve();
  void send_all(const std::uint8_t* data, std::size_t size);

  std::span<const std::uint8_t> body_;
  std::span<const RecordInfo> records_;
  std::vector<std::int64_t> due_offset_ns_;
  int listen_fd_ = -1;
  int port_ = 0;
  int conn_fd_ = -1;
  std::atomic<std::int64_t> start_ns_{0};
  std::vector<std::int64_t> late_ns_;
  std::string error_;
  std::thread thread_;  ///< declared last: it uses every member above
};

}  // namespace e2ebench
