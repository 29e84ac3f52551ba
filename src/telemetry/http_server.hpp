// MetricsServer: a minimal HTTP/1.1 endpoint for the telemetry registry.
//
// The operational peer of src/ingest/http.cpp's client: where that file
// speaks just enough HTTP to *fetch* archives, this one speaks just
// enough to *serve* two paths — `GET /metrics` (Prometheus text
// exposition of a MetricsRegistry) and `GET /healthz` (a liveness
// probe whose body and status come from a caller-supplied check, e.g.
// the ingest ledger invariant `converted == journaled + skipped +
// dropped`). Anything else is a 404.
//
// One accept thread, one connection at a time, 50 ms stop-poll — the
// same shape as the ingest test's FaultServer, because a scrape every
// few seconds needs nothing more. Each connection gets a 2 s total
// deadline (request read plus response write), so a client trickling
// its request cannot keep /healthz from answering. The serve thread
// never touches the data path: rendering takes the registry's
// registration mutex only.
//
// The server can also tick a periodic JSON snapshot of the registry to
// a file (tmp+rename), extending --stats-json from a terminal blob to
// a liveness artifact.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

namespace artemis::telemetry {

class MetricsRegistry;

/// Result of a health probe: `ok` selects 200 vs 503; `body` is served
/// as text/plain either way.
struct HealthStatus {
  bool ok = true;
  std::string body = "ok\n";
};
using HealthCheck = std::function<HealthStatus()>;

struct MetricsServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back via port()).
  int port = 0;
  /// Optional health probe backing /healthz; when absent /healthz is a
  /// bare 200 "ok".
  HealthCheck health;
  /// When non-empty, the serve thread writes the registry's JSON
  /// snapshot here (tmp+rename) every snapshot_interval_ms.
  std::string snapshot_path;
  int snapshot_interval_ms = 1000;
};

class MetricsServer {
 public:
  /// Binds and starts the serve thread; throws std::runtime_error when
  /// the port cannot be bound.
  MetricsServer(const MetricsRegistry& registry, MetricsServerOptions options);
  ~MetricsServer();

  MetricsServer(const MetricsServer&) = delete;
  MetricsServer& operator=(const MetricsServer&) = delete;

  /// The bound port (the ephemeral one when options.port was 0).
  int port() const { return port_; }

  std::string url_for(const std::string& path) const;

  /// Writes the snapshot file immediately (no-op without a path).
  /// Called by the serve thread on its tick and by owners at shutdown
  /// so the final snapshot is never older than one interval.
  void write_snapshot() const;

 private:
  void serve_loop();
  void handle_connection(int fd);

  const MetricsRegistry& registry_;
  MetricsServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
};

}  // namespace artemis::telemetry
