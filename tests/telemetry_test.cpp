// The telemetry subsystem (ISSUE 8): registry semantics, histogram
// math, Prometheus rendering, the /metrics + /healthz HTTP server, and
// the end-to-end ingest wiring against the scripted fault server.
//
// The load-bearing contracts:
//   * log2 bucketing is exact at the power-of-two boundaries and the
//     merged view of N cells equals one cell fed everything;
//   * quantile estimates are monotone and never exceed the exact max;
//   * /healthz turns 503 exactly when the no-silent-loss ledger is
//     violated (journaled + skipped + dropped > converted);
//   * a live artemis ingest run with telemetry serves parseable
//     Prometheus text whose counters equal the final stats report —
//     including a non-empty artemis_detection_delay_seconds histogram.
#include "telemetry/metrics.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "ingest/fault_server.hpp"
#include "ingest/fixture.hpp"
#include "ingest/http.hpp"
#include "ingest/supervisor.hpp"
#include "json/json.hpp"
#include "pipeline/sharded_detector.hpp"
#include "telemetry/http_server.hpp"

namespace artemis::telemetry {
namespace {

using ingest_test::Fault;
using ingest_test::FaultServer;
using ingest_test::fixture_window;
using ingest_test::fresh_dir;
using ingest_test::make_config;

// ------------------------------------------------------------ histogram

TEST(HistogramTest, BucketBoundariesAreExactPowersOfTwo) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("artemis_test_hist", "boundary test");
  h->record(0);                     // bucket 0: exactly zero
  h->record(1);                     // bucket 1: [1, 1]
  h->record(2);                     // bucket 2: [2, 3]
  h->record(3);                     // bucket 2
  h->record(4);                     // bucket 3: [4, 7]
  h->record((1ull << 20) - 1);      // bucket 20: [2^19, 2^20 - 1]
  h->record(1ull << 20);            // bucket 21
  h->record(~0ull);                 // bucket 64 (top of the range)

  const HistogramSnapshot snap = registry.histogram_snapshot("artemis_test_hist");
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 2u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.counts[20], 1u);
  EXPECT_EQ(snap.counts[21], 1u);
  EXPECT_EQ(snap.counts[64], 1u);
  EXPECT_EQ(snap.total, 8u);
  EXPECT_EQ(snap.max, ~0ull);

  EXPECT_EQ(HistogramSnapshot::bucket_upper(0), 0u);
  EXPECT_EQ(HistogramSnapshot::bucket_upper(1), 1u);
  EXPECT_EQ(HistogramSnapshot::bucket_upper(2), 3u);
  EXPECT_EQ(HistogramSnapshot::bucket_upper(20), (1ull << 20) - 1);
  EXPECT_EQ(HistogramSnapshot::bucket_upper(64), ~0ull);
}

TEST(HistogramTest, QuantilesAreMonotoneAndClampedByExactMax) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("artemis_test_q", "quantile test");
  std::uint64_t sum = 0;
  for (std::uint64_t v = 1; v <= 100; ++v) {
    h->record(v);
    sum += v;
  }
  const HistogramSnapshot snap = registry.histogram_snapshot("artemis_test_q");
  EXPECT_EQ(snap.total, 100u);
  EXPECT_EQ(snap.sum, sum);
  EXPECT_EQ(snap.max, 100u);

  const double p50 = snap.quantile(0.50);
  const double p95 = snap.quantile(0.95);
  const double p99 = snap.quantile(0.99);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // No estimate may exceed the tracked exact max, even though the last
  // bucket's nominal upper bound is 127.
  EXPECT_LE(p99, 100.0);
  EXPECT_LE(snap.quantile(1.0), 100.0);

  const HistogramSnapshot empty =
      registry.histogram_snapshot("artemis_test_absent");
  EXPECT_EQ(empty.total, 0u);
  EXPECT_EQ(empty.quantile(0.99), 0.0);
}

TEST(HistogramTest, MergeAcrossCellsEqualsOneCellFedEverything) {
  MetricsRegistry split;
  Histogram* a = split.histogram("artemis_test_m", "merge test");
  Histogram* b = split.histogram("artemis_test_m", "merge test");  // 2nd cell
  MetricsRegistry whole;
  Histogram* one = whole.histogram("artemis_test_m", "merge test");

  const std::vector<std::uint64_t> values = {0, 1, 5, 9, 127, 128, 5000};
  for (std::size_t i = 0; i < values.size(); ++i) {
    (i % 2 == 0 ? a : b)->record(values[i]);
    one->record(values[i]);
  }
  const HistogramSnapshot merged = split.histogram_snapshot("artemis_test_m");
  const HistogramSnapshot direct = whole.histogram_snapshot("artemis_test_m");
  EXPECT_EQ(merged.total, direct.total);
  EXPECT_EQ(merged.sum, direct.sum);
  EXPECT_EQ(merged.max, direct.max);
  for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
    EXPECT_EQ(merged.counts[i], direct.counts[i]) << "bucket " << i;
  }
  EXPECT_DOUBLE_EQ(merged.quantile(0.95), direct.quantile(0.95));
}

// ------------------------------------------------------------- registry

TEST(MetricsRegistryTest, CountersSumAndGaugesMaxOnRead) {
  MetricsRegistry registry;
  Counter* c1 = registry.counter("artemis_test_total", "counter merge");
  Counter* c2 = registry.counter("artemis_test_total", "counter merge");
  c1->add(2);
  c2->add(3);
  Gauge* g1 = registry.gauge("artemis_test_level", "gauge merge");
  Gauge* g2 = registry.gauge("artemis_test_level", "gauge merge");
  g1->set(7);
  g2->set(4);

  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("artemis_test_total 5\n"), std::string::npos) << text;
  EXPECT_NE(text.find("artemis_test_level 7\n"), std::string::npos) << text;

  const json::Value snap = registry.snapshot_json();
  EXPECT_EQ(snap.at("artemis_test_total").at("value").as_number(), 5.0);
  EXPECT_EQ(snap.at("artemis_test_level").at("value").as_number(), 7.0);
}

TEST(MetricsRegistryTest, LabeledCellsRenderSeparately) {
  MetricsRegistry registry;
  registry.counter("artemis_src_total", "per source", "source=\"a\"")->add(10);
  registry.counter("artemis_src_total", "per source", "source=\"b\"")->add(20);

  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("artemis_src_total{source=\"a\"} 10\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("artemis_src_total{source=\"b\"} 20\n"), std::string::npos)
      << text;
  // One HELP/TYPE pair for the series, not per cell.
  EXPECT_EQ(text.find("# TYPE artemis_src_total counter"),
            text.rfind("# TYPE artemis_src_total counter"));
}

/// Every non-comment line must be `name[{labels}] value` with a
/// parseable numeric value — the shape a Prometheus scraper accepts.
void expect_parseable_prometheus(const std::string& text) {
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name_part = line.substr(0, space);
    const std::string value_part = line.substr(space + 1);
    ASSERT_FALSE(name_part.empty()) << line;
    char* rest = nullptr;
    std::strtod(value_part.c_str(), &rest);
    EXPECT_EQ(*rest, '\0') << "unparseable value in: " << line;
    // Label bodies, when present, must be balanced and trailing.
    const std::size_t brace = name_part.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(name_part.back(), '}') << line;
    }
  }
}

TEST(MetricsRegistryTest, HistogramRenderIsCumulativeAndParseable) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("artemis_test_delay_seconds",
                                    "render test", 1e-6);
  h->record(0);
  h->record(3);     // bucket 2 (le 3)
  h->record(1000);  // bucket 10 (le 1023)

  const std::string text = registry.render_prometheus();
  expect_parseable_prometheus(text);
  EXPECT_NE(text.find("# TYPE artemis_test_delay_seconds histogram"),
            std::string::npos);
  // Cumulative counts: bucket 0 holds 1, by le=3 it is 2, +Inf is 3.
  EXPECT_NE(text.find("artemis_test_delay_seconds_bucket{le=\"0\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("artemis_test_delay_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("artemis_test_delay_seconds_count 3\n"), std::string::npos)
      << text;
  // The sum renders in scaled units: 1003 us = 0.001003 s.
  EXPECT_NE(text.find("artemis_test_delay_seconds_sum 0.001003"),
            std::string::npos)
      << text;
}

TEST(MetricsRegistryTest, SnapshotJsonCarriesHistogramPercentiles) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("artemis_test_delay_seconds",
                                    "snapshot test", 1e-6);
  for (int i = 0; i < 100; ++i) h->record(1'000'000);  // 1 s each
  const json::Value snap = registry.snapshot_json();
  const json::Value& entry = snap.at("artemis_test_delay_seconds");
  EXPECT_EQ(entry.at("count").as_number(), 100.0);
  EXPECT_NEAR(entry.at("max").as_number(), 1.0, 1e-9);
  EXPECT_LE(entry.at("p50").as_number(), 1.0);
  EXPECT_LE(entry.at("p99").as_number(), 1.0);
  EXPECT_GT(entry.at("p50").as_number(), 0.0);
}

// ------------------------------------------------------------- HTTP

struct FetchResult {
  int status = 0;
  std::string body;
};

FetchResult fetch(const std::string& url_text, int io_timeout_ms = 2000) {
  const auto url = ingest::parse_url(url_text);
  EXPECT_TRUE(url.has_value()) << url_text;
  FetchResult out;
  if (!url) return out;
  ingest::HttpGetOptions options;
  options.connect_timeout_ms = 2000;
  options.io_timeout_ms = io_timeout_ms;
  const ingest::HttpResult result =
      ingest::http_get(*url, options, [&](std::span<const std::uint8_t> chunk) {
        out.body.append(reinterpret_cast<const char*>(chunk.data()),
                        chunk.size());
      });
  out.status = result.status;
  return out;
}

TEST(MetricsServerTest, MetricsAndHealthzRoundTrip) {
  MetricsRegistry registry;
  registry.counter("artemis_test_total", "round trip")->add(42);

  MetricsServerOptions options;  // ephemeral port, default-ok health
  MetricsServer server(registry, options);
  ASSERT_GT(server.port(), 0);

  const FetchResult metrics = fetch(server.url_for("/metrics"));
  EXPECT_EQ(metrics.status, 200);
  expect_parseable_prometheus(metrics.body);
  EXPECT_NE(metrics.body.find("artemis_test_total 42\n"), std::string::npos);

  const FetchResult health = fetch(server.url_for("/healthz"));
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  const FetchResult missing = fetch(server.url_for("/nope"));
  EXPECT_EQ(missing.status, 404);
}

TEST(MetricsServerTest, HealthzReports503OnLedgerViolation) {
  MetricsRegistry registry;
  const IngestCounters ledger = register_ingest(registry);
  ledger.converted->add(10);
  ledger.journaled->add(11);  // accounted > converted: impossible in vivo

  MetricsServerOptions options;
  options.health = [&ledger]() {
    HealthStatus status;
    const std::uint64_t converted = ledger.converted->value();
    const std::uint64_t accounted = ledger.journaled->value() +
                                    ledger.skipped->value() +
                                    ledger.dropped->value();
    if (accounted > converted) {
      status.ok = false;
      status.body = "ledger violation\n";
    }
    return status;
  };
  MetricsServer server(registry, options);
  EXPECT_EQ(fetch(server.url_for("/healthz")).status, 503);

  ledger.converted->add(1);  // ledger balances again
  EXPECT_EQ(fetch(server.url_for("/healthz")).status, 200);
}

TEST(MetricsServerTest, HealthzAnswersWhileASlowClientTrickles) {
  // A client sending one request byte every 100 ms never trips a per-recv
  // poll; only the 2 s per-connection deadline stops it from holding the
  // single-threaded server for as long as it keeps trickling.
  MetricsRegistry registry;
  MetricsServer server(registry, MetricsServerOptions{});

  const int slow = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(slow, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(::connect(slow, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  // The whole request would take ~22 s to trickle in.
  const std::string request = "GET /metrics HTTP/1.1\r\nX-Pad: " + std::string(200, 'a');
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> sent{0};
  std::thread trickler([&] {
    for (std::size_t i = 0; i < request.size() && !stop.load(); ++i) {
      if (::send(slow, &request[i], 1, MSG_NOSIGNAL) != 1) break;
      sent.store(i + 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  // Let the server accept the slow connection first.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto start = std::chrono::steady_clock::now();
  const FetchResult health = fetch(server.url_for("/healthz"), 10000);
  const auto waited = std::chrono::steady_clock::now() - start;
  const std::size_t sent_by_then = sent.load();
  stop.store(true);
  trickler.join();
  ::close(slow);

  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");
  EXPECT_LT(sent_by_then, request.size());  // answered mid-trickle
  EXPECT_LT(waited, std::chrono::milliseconds(5000));
}

TEST(MetricsServerTest, PeriodicSnapshotFileIsWrittenAtomically) {
  MetricsRegistry registry;
  registry.counter("artemis_test_total", "snapshot file")->add(7);
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "artemis_snapshot.json")
          .string();
  std::filesystem::remove(path);
  {
    MetricsServerOptions options;
    options.snapshot_path = path;
    options.snapshot_interval_ms = 10;
    MetricsServer server(registry, options);
    // The destructor writes a final snapshot even if no tick elapsed.
  }
  const json::Value snap = json::parse_file(path);
  EXPECT_EQ(snap.at("artemis_test_total").at("value").as_number(), 7.0);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

// --------------------------------------------------- end-to-end ingest

TEST(TelemetryIngestTest, LiveIngestServesLedgerDelayAndHealth) {
  FaultServer archive;
  archive.add_file("/window.mrt", fixture_window(40));
  Fault fault;
  fault.kind = Fault::Kind::kStatus;
  fault.status = 503;  // one transient failure: retries + backoff count
  archive.push_fault(fault);

  MetricsRegistry registry;
  const core::Config config = make_config();
  pipeline::ShardedDetectorOptions detect_options;
  detect_options.shards = 2;
  detect_options.metrics = &registry;
  pipeline::ShardedDetector detector(config, detect_options);

  ingest::SupervisorOptions options;
  options.journal_dir = fresh_dir("telemetry_e2e");
  options.fetch.connect_timeout_ms = 2000;
  options.fetch.io_timeout_ms = 2000;
  options.fetch.backoff_ms = 1;
  options.fetch.max_backoff_ms = 2;
  options.sleep = [](std::int64_t) {};
  options.pipeline.metrics = &registry;
  options.pipeline.detection_tap =
      [&detector](std::span<const feeds::Observation> batch) {
        detector.submit_batch(batch);
      };
  ingest::IngestSupervisor supervisor(options,
                                      {archive.url_for("/window.mrt")});

  MetricsServerOptions server_options;
  const IngestCounters& ledger = supervisor.metrics();
  server_options.health = [&ledger]() {
    HealthStatus status;
    if (!ledger.enabled()) return status;
    const std::uint64_t converted = ledger.converted->value();
    const std::uint64_t accounted = ledger.journaled->value() +
                                    ledger.skipped->value() +
                                    ledger.dropped->value();
    if (accounted > converted) {
      status.ok = false;
      status.body = "ledger violation\n";
    }
    return status;
  };
  MetricsServer server(registry, server_options);

  const ingest::IngestReport report = supervisor.run();
  detector.flush();
  ASSERT_EQ(report.sources.size(), 1u);
  const ingest::SourceReport& sr = report.sources[0];
  ASSERT_EQ(sr.outcome, ingest::FetchOutcome::kOk);

  // The registry's ledger equals the stats report's, term by term.
  EXPECT_EQ(ledger.converted->value(), sr.feed.convert.observations);
  EXPECT_EQ(ledger.journaled->value(), sr.feed.observations_journaled);
  EXPECT_EQ(ledger.skipped->value(), sr.feed.observations_skipped);
  EXPECT_EQ(ledger.dropped->value(), sr.feed.observations_dropped);
  EXPECT_EQ(ledger.convert_records->value(), sr.feed.convert.records);
  EXPECT_EQ(ledger.bytes_fetched->value(), sr.fetch.bytes_fetched);
  EXPECT_GE(ledger.fetch_retries->value(), 1u);   // the scripted 503
  EXPECT_GE(ledger.backoff_waits->value(), 1u);   // its backoff sleep
  EXPECT_GE(ledger.cursor_persists->value(), 1u);

  // Detection fired on the fixture's hijacks, so the delay histogram is
  // non-empty and the per-shard detection counters add up.
  const HistogramSnapshot delay =
      registry.histogram_snapshot("artemis_detection_delay_seconds");
  EXPECT_GT(delay.total, 0u);
  EXPECT_EQ(delay.total, detector.merged_alerts().size());

  // Live Prometheus scrape: parseable, ledger visible, delay present.
  const FetchResult metrics = fetch(server.url_for("/metrics"));
  ASSERT_EQ(metrics.status, 200);
  expect_parseable_prometheus(metrics.body);
  EXPECT_NE(metrics.body.find("artemis_ingest_observations_converted_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("artemis_journal_records_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("artemis_detection_delay_seconds_bucket"),
            std::string::npos);
  // The histogram is non-empty, so the scraped count must not be zero.
  EXPECT_EQ(metrics.body.find("artemis_detection_delay_seconds_count 0\n"),
            std::string::npos);
  EXPECT_EQ(fetch(server.url_for("/healthz")).status, 200);
}

}  // namespace
}  // namespace artemis::telemetry
