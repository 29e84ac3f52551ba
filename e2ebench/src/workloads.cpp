#include "workloads.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "artemis/config.hpp"
#include "feeds/monitor_hub.hpp"
#include "generator.hpp"
#include "ingest/fetch_source.hpp"
#include "ingest/pipeline.hpp"
#include "journal/reader.hpp"
#include "journal/replay.hpp"
#include "journal/writer.hpp"
#include "live_server.hpp"
#include "mrt/observation_convert.hpp"
#include "mrt/stream_reader.hpp"
#include "pipeline/sharded_detector.hpp"
#include "telemetry/metrics.hpp"
#include "trace.hpp"

namespace e2ebench {

namespace {

namespace fs = std::filesystem;
using namespace artemis;

constexpr double kLiveObservationsPerSecond = 20000;
/// Compressed bytes per inflate call: a file read's worth.
constexpr std::size_t kArchiveChunkBytes = 64 * 1024;
/// Set-up repetitions in live_http, whose single run has one set-up.
constexpr int kLiveSetupRepeats = 30;
/// Measured iterations a run needs, however short --seconds is.
constexpr std::size_t kMinIterations = 3;

// Per-layer metrics. A layer a workload's measured path does not cross
// reports 0 there (e2ebench/README.md lists which).
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"mrt.inflate_ns_per_obs", "ns"},     {"mrt.convert_ns_per_obs", "ns"},
    {"mrt.obs_per_batch", "count"},       {"ingest.feed_ns_per_obs", "ns"},
    {"ingest.read_lag_ms_p50", "ms"},     {"ingest.read_lag_ms_p99", "ms"},
    {"ingest.batch_wait_ms_p50", "ms"},   {"ingest.batch_wait_ms_p99", "ms"},
    {"journal.append_ns_per_obs", "ns"},  {"journal.close_ms", "ms"},
    {"journal.bytes_per_obs", "bytes"},   {"journal.replay_ns_per_obs", "ns"},
    {"feeds.hub_ns_per_obs", "ns"},       {"pipeline.detect_ns_per_obs", "ns"},
    {"artemis.matched_share", "share"},   {"artemis.alerts", "count"},
    {"artemis.config_parse_ms", "ms"},    {"artemis.table_build_ms", "ms"},
    {"live.generator_late_ms_p99", "ms"}, {"unattributed_share", "share"},
    {"trace_overhead_share", "share"}};

// ----------------------------------------------------------------- utils

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

double best(const std::vector<double>& values, bool higher_is_better) {
  if (values.empty()) return 0;
  return higher_is_better ? *std::max_element(values.begin(), values.end())
                          : *std::min_element(values.begin(), values.end());
}

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

void write_file(const fs::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out.flush()) throw std::runtime_error("cannot write " + path.string());
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::vector<std::string> canonical_lines(const std::vector<core::HijackAlert>& alerts) {
  std::vector<std::string> lines;
  lines.reserve(alerts.size());
  for (const auto& alert : alerts) lines.push_back(canonical_line(alert));
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// (steady-clock ns, running byte or observation count) samples.
using ProgressLog = std::vector<std::pair<std::int64_t, std::uint64_t>>;

/// The first sample whose running count reached `count`.
ProgressLog::const_iterator reached(const ProgressLog& log, std::uint64_t count) {
  return std::lower_bound(log.begin(), log.end(), count,
                          [](const auto& entry, std::uint64_t n) { return entry.second < n; });
}

std::uint64_t directory_bytes(const fs::path& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

// ---------------------------------------------------------------- inputs

GenSpec spec_for(const std::string& workload, double scale, double seconds) {
  const auto scaled = [scale](double n) {
    return static_cast<std::uint64_t>(std::max(1.0, n * scale));
  };
  GenSpec spec;
  if (workload == "archive_gz") {
    spec.update_records = scaled(200000);
    spec.rib_entries = scaled(50000);
    spec.hijack_share = 0.005;
  } else if (workload == "replay_tenants") {
    spec.ownership = OwnershipShape::kTenants;
    spec.update_records = scaled(400000);
    spec.rib_entries = scaled(100000);
    spec.hijack_share = 0.004;
    // Owned records carry ~2.5 NLRI, background ones ~2.95 observations:
    // 28% of records gives ~1/4 of observations on owned prefixes.
    spec.owned_share = 0.28;
  } else {
    // One record carries ~2.4 observations; size the stream to last
    // `seconds` at the fixed rate. 1.4% hijacks gives > 10 samples past
    // p99 in a 10 s run.
    spec.update_records = static_cast<std::uint64_t>(kLiveObservationsPerSecond * seconds / 2.4);
    spec.hijack_share = 0.014;
  }
  return spec;
}

/// Runs in the child: generate, encode the workload's payload, write it.
void write_inputs(const RunOptions& o, const fs::path& dir) {
  const GeneratedInput input = generate(spec_for(o.workload, o.scale, o.seconds), o.seed);
  if (o.workload == "archive_gz") {
#ifdef ARTEMIS_HAVE_ZLIB
    const auto gz = mrt::gzip_compress(input.mrt, 6);  // the gzip(1) default level
    write_file(dir / "input.bin", {reinterpret_cast<const char*>(gz.data()), gz.size()});
#else
    throw std::runtime_error("archive_gz needs a zlib build");
#endif
  } else if (o.workload == "live_http") {
    write_file(dir / "input.bin",
               {reinterpret_cast<const char*>(input.mrt.data()), input.mrt.size()});
  } else {
    // replay_tenants replays a journal the library itself wrote.
    journal::JournalWriter writer((dir / "journal").string());
    mrt::ObservationConverter converter;
    const mrt::ConvertFileStats stats = converter.convert_file(input.mrt, writer.tap());
    writer.close();
    if (!stats.clean() || stats.observations != input.observations) {
      throw std::runtime_error("journal build converted " +
                               std::to_string(stats.observations) + " of " +
                               std::to_string(input.observations) + " observations");
    }
  }
  write_file(dir / "meta.txt", serialize_meta(input));
}

struct Inputs {
  GeneratedInput gen;  ///< gen.mrt holds the payload (gz / raw / empty)
  std::vector<std::string> truth;
  std::unordered_map<std::string, std::size_t> hijack_by_line;
};

Inputs prepare_inputs(const RunOptions& o) {
  const fs::path dir = o.work_dir;
  fs::create_directories(dir);
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int code = 0;
    try {
      write_inputs(o, dir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: input generation: %s\n", e.what());
      code = 1;
    }
    std::fflush(nullptr);
    ::_exit(code);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("input generation failed");
  }
  Inputs in;
  parse_meta(read_file(dir / "meta.txt"), in.gen);
  if (fs::exists(dir / "input.bin")) {
    const std::string payload = read_file(dir / "input.bin");
    in.gen.mrt.assign(payload.begin(), payload.end());
  }
  in.truth = expected_alerts(in.gen);
  for (std::size_t i = 0; i < in.gen.hijacks.size(); ++i) {
    in.hijack_by_line.emplace(in.gen.hijacks[i].alert_line, i);
  }
  return in;
}

// --------------------------------------------------------------- shared

/// What one run collects across its iterations.
struct Collector {
  explicit Collector(RunResult& r) : result(r) {}

  RunResult& result;
  std::vector<double> setup_s;
  std::vector<double> throughput;   ///< obs/s per measured iteration
  std::vector<double> latency_p50;  ///< per measured iteration, ms
  std::vector<double> latency_p99;
  std::vector<double> untraced_wall_s, traced_wall_s;

  void problem(const std::string& what) {
    result.correct = false;
    if (result.problems.size() < 8) result.problems.push_back(what);
  }

  /// The correctness gate shared by every workload.
  void check_alerts(const std::vector<core::HijackAlert>& alerts,
                    const std::vector<std::string>& truth, const char* where) {
    const auto lines = canonical_lines(alerts);
    if (lines == truth) return;
    std::vector<std::string> missing, extra;
    std::set_difference(truth.begin(), truth.end(), lines.begin(), lines.end(),
                        std::back_inserter(missing));
    std::set_difference(lines.begin(), lines.end(), truth.begin(), truth.end(),
                        std::back_inserter(extra));
    problem(std::string(where) + ": " + std::to_string(lines.size()) + " alerts vs " +
            std::to_string(truth.size()) + " expected (" + std::to_string(missing.size()) +
            " missing" + (missing.empty() ? "" : ", e.g. " + missing.front()) + "; " +
            std::to_string(extra.size()) + " unexpected" +
            (extra.empty() ? "" : ", e.g. " + extra.front()) + ")");
  }

  /// Closes one iteration's byte/record -> alert latency samples.
  void add_latencies(const std::vector<double>& ms) {
    latency_p50.push_back(quantile(ms, 0.50));
    latency_p99.push_back(quantile(ms, 0.99));
  }

  /// Observations offered vs the number the detector processed.
  void count(std::uint64_t offered, std::uint64_t detected) {
    result.attempted += offered;
    if (detected < offered) result.failed += offered - detected;
  }
};

/// The detector exactly as journal_alerts / artemis_ingest --detect build
/// it: default options (one inline shard, default detection checks).
std::unique_ptr<pipeline::ShardedDetector> make_detector(
    Tracer& tracer, const std::string& config_json, telemetry::MetricsRegistry* metrics) {
  core::Config config;
  {
    Tracer::Scope span(tracer, "artemis.config_parse");
    config = core::Config::from_json_text(config_json);
  }
  std::shared_ptr<const core::OwnershipTable> table;
  {
    Tracer::Scope span(tracer, "artemis.table_build");
    table = config.build_table();
  }
  Tracer::Scope span(tracer, "pipeline.init");
  pipeline::ShardedDetectorOptions options;
  options.metrics = metrics;
  return std::make_unique<pipeline::ShardedDetector>(std::move(table), options);
}

/// Replays `dir` through a MonitorHub into `detector`, the way
/// journal_alerts --no-prune does (every observation reaches detection).
std::uint64_t replay_journal(Tracer& tracer, journal::JournalReader& reader,
                             pipeline::ShardedDetector& detector) {
  feeds::MonitorHub hub;
  hub.subscribe_batch([&](std::span<const feeds::Observation> batch) {
    Tracer::Scope span(tracer, "pipeline.detect");
    detector.submit_batch(batch);
  });
  journal::ReplayFeed feed(reader);
  std::uint64_t replayed = 0;
  {
    Tracer::Scope span(tracer, "journal.replay");
    replayed = feed.replay_all([&](std::span<const feeds::Observation> batch) {
      Tracer::Scope hub_span(tracer, "feeds.hub");
      hub.publish_batch(batch);
    });
  }
  Tracer::Scope span(tracer, "pipeline.detect");
  detector.flush();
  return replayed;
}

/// Per-layer metrics common to every workload, from the traced spans.
std::map<std::string, Metric> layer_metrics(const Tracer& tracer,
                                            const std::map<std::string, double>& obs_through) {
  std::map<std::string, Metric> m;
  for (const auto& [name, unit] : kPerLayer) m[name] = Metric{0, unit};
  const auto totals = tracer.totals();
  const auto self_ns = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.self_ns);
  };
  const auto mean_ms = [&totals](const char* name) {
    const auto it = totals.find(name);
    if (it == totals.end() || it->second.count == 0) return 0.0;
    return static_cast<double>(it->second.total_ns) / 1e6 /
           static_cast<double>(it->second.count);
  };
  const auto per_obs = [&](const char* metric, const char* span) {
    const auto it = obs_through.find(span);
    if (it != obs_through.end() && it->second > 0) {
      m[metric].value = self_ns(span) / it->second;
    }
  };
  per_obs("mrt.inflate_ns_per_obs", "mrt.inflate");
  per_obs("mrt.convert_ns_per_obs", "mrt.convert");
  per_obs("ingest.feed_ns_per_obs", "ingest.feed");
  per_obs("journal.append_ns_per_obs", "journal.append");
  per_obs("journal.replay_ns_per_obs", "journal.replay");
  per_obs("feeds.hub_ns_per_obs", "feeds.hub");
  per_obs("pipeline.detect_ns_per_obs", "pipeline.detect");
  m["journal.close_ms"].value = mean_ms("journal.close");
  m["artemis.config_parse_ms"].value = mean_ms("artemis.config_parse");
  m["artemis.table_build_ms"].value = mean_ms("artemis.table_build");
  // The root span's self time is the wall no layer span covers.
  const auto root = totals.find("run");
  if (root != totals.end() && root->second.total_ns > 0) {
    m["unattributed_share"].value = static_cast<double>(root->second.self_ns) /
                                    static_cast<double>(root->second.total_ns);
  }
  return m;
}

void finish_run(const RunOptions& o, const Tracer& tracer, Collector& c,
                std::map<std::string, Metric> layers) {
  RunResult& r = c.result;
  if (o.trace) {
    if (!c.untraced_wall_s.empty() && !c.traced_wall_s.empty()) {
      layers["trace_overhead_share"].value =
          median(c.traced_wall_s) / median(c.untraced_wall_s) - 1.0;
    }
    r.metrics = std::move(layers);
    if (!o.trace_path.empty()) tracer.write_jsonl(o.trace_path);
    return;
  }
  // The best iteration: on a shared host co-tenant load switches whole
  // seconds between speed regimes up to ~35% apart, and it only ever adds
  // time (e2ebench/README.md, "Steadiness").
  r.metrics["throughput_obs_per_s"] = {best(c.throughput, true), "obs/s"};
  r.metrics["alert_latency_p50_ms"] = {best(c.latency_p50, false), "ms"};
  r.metrics["alert_latency_p99_ms"] = {best(c.latency_p99, false), "ms"};
  r.metrics["setup_s"] = {best(c.setup_s, false), "s"};
  r.metrics["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
}

/// Runs `iteration(traced)` until `seconds` have passed: one warm-up
/// first, then measured iterations — alternating traced and untraced in a
/// traced run, so the pair gives the tracing overhead.
template <typename Iteration>
void loop(const RunOptions& o, Tracer& tracer, Collector& c, Iteration&& iteration) {
  tracer.set_enabled(false);
  iteration(false);  // warm-up: page cache, allocator, lazy statics
  c.setup_s.clear();
  c.throughput.clear();
  c.latency_p50.clear();
  c.latency_p99.clear();
  c.result.attempted = c.result.failed = 0;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  for (std::size_t i = 0;; ++i) {
    const bool traced = o.trace && i % 2 == 1;
    tracer.set_enabled(traced);
    const std::int64_t start = now_ns();
    iteration(traced);
    (traced ? c.traced_wall_s : c.untraced_wall_s)
        .push_back(seconds_between(start, now_ns()));
    const std::size_t done = o.trace ? std::min(c.traced_wall_s.size(), c.untraced_wall_s.size())
                                     : i + 1;
    if (done >= kMinIterations && now_ns() >= deadline) break;
  }
  tracer.set_enabled(false);
}

// ------------------------------------------------------------ archive_gz

RunResult run_archive(const RunOptions& o, const Inputs& in) {
  RunResult result;
  Collector c(result);
  Tracer tracer;
  const fs::path journal_dir = fs::path(o.work_dir) / "journal";
  const auto& records = in.gen.records;
  std::uint64_t batches = 0, journal_bytes = 0, matched = 0, alerts = 0, traced_obs = 0;

  loop(o, tracer, c, [&](bool traced) {
    fs::remove_all(journal_dir);
    ProgressLog inflated;  // bytes out of the inflater
    std::vector<std::int64_t> alert_ns;
    inflated.reserve(in.gen.mrt.size() / 4096 + 16);
    alert_ns.reserve(in.truth.size());
    std::unique_ptr<pipeline::ShardedDetector> detector;
    std::optional<journal::JournalWriter> writer;
    std::optional<journal::JournalReader> reader;
    std::unique_ptr<mrt::ChunkDecompressor> inflater;
    mrt::ObservationConverter converter;
    mrt::ConvertFileStats stats;
    std::uint64_t replayed = 0;
    double setup = 0, path = 0;
    batches = 0;
    {
      Tracer::Scope run(tracer, "run");
      std::int64_t t = now_ns();
      detector = make_detector(tracer, in.gen.config_json, nullptr);
      detector->on_alert([&alert_ns](const core::HijackAlert&) { alert_ns.push_back(now_ns()); });
      {
        Tracer::Scope span(tracer, "journal.open");
        writer.emplace(journal_dir.string());
      }
      {
        Tracer::Scope span(tracer, "mrt.open");
        inflater = mrt::make_chunk_decompressor(mrt::Compression::kGzip);
      }
      setup += seconds_between(t, now_ns());

      // Import: inflate -> convert -> append, then close the journal.
      t = now_ns();
      std::uint64_t inflated_bytes = 0;
      const feeds::ObservationBatchHandler append = [&](std::span<const feeds::Observation> b) {
        Tracer::Scope span(tracer, "journal.append");
        writer->append_batch(b);
        ++batches;
      };
      const mrt::ChunkDecompressor::Output convert = [&](std::span<const std::uint8_t> bytes) {
        inflated_bytes += bytes.size();
        inflated.emplace_back(now_ns(), inflated_bytes);
        Tracer::Scope span(tracer, "mrt.convert");
        converter.feed(bytes, append);
      };
      converter.begin_file();
      const auto& gz = in.gen.mrt;
      for (std::size_t off = 0; off < gz.size(); off += kArchiveChunkBytes) {
        Tracer::Scope span(tracer, "mrt.inflate");
        inflater->feed({gz.data() + off, std::min(kArchiveChunkBytes, gz.size() - off)},
                       convert);
      }
      {
        Tracer::Scope span(tracer, "mrt.inflate");
        inflater->finish(convert);
      }
      {
        Tracer::Scope span(tracer, "mrt.convert");
        stats = converter.finish_file(append);
      }
      {
        Tracer::Scope span(tracer, "journal.close");
        writer->close();
      }
      path += seconds_between(t, now_ns());

      t = now_ns();
      {
        Tracer::Scope span(tracer, "journal.open");
        reader.emplace(journal_dir.string());
      }
      setup += seconds_between(t, now_ns());
      t = now_ns();
      replayed = replay_journal(tracer, *reader, *detector);
      path += seconds_between(t, now_ns());
    }

    // Ledger: every converted observation journaled, replayed, detected.
    const std::uint64_t processed = detector->observations_processed();
    if (inflater->truncated() || !stats.clean() || stats.observations != in.gen.observations ||
        stats.skipped_records != in.gen.skipped_records ||
        writer->records_written() != stats.observations || replayed != stats.observations) {
      c.problem("archive ledger: converted " + std::to_string(stats.observations) + "/" +
                std::to_string(in.gen.observations) + ", journaled " +
                std::to_string(writer->records_written()) + ", replayed " +
                std::to_string(replayed));
    }
    c.count(in.gen.observations, processed);
    const auto merged = detector->merged_alerts();
    c.check_alerts(merged, in.truth, "archive_gz");
    c.setup_s.push_back(setup);
    c.throughput.push_back(static_cast<double>(processed) / path);
    // Latency: the hijack record's last byte leaving the inflater -> alert.
    std::vector<double> latency_ms;
    const auto& emitted = detector->shard(0).alerts();
    for (std::size_t i = 0; i < emitted.size() && i < alert_ns.size(); ++i) {
      const auto h = in.hijack_by_line.find(canonical_line(emitted[i]));
      if (h == in.hijack_by_line.end()) continue;
      const std::uint64_t end = records[in.gen.hijacks[h->second].record].end;
      const auto fed = reached(inflated, end);
      if (fed != inflated.end()) {
        latency_ms.push_back(static_cast<double>(alert_ns[i] - fed->first) / 1e6);
      }
    }
    c.add_latencies(latency_ms);
    journal_bytes = writer->bytes_written();
    matched = detector->observations_matched();
    alerts = merged.size();
    if (traced) traced_obs += processed;
  });
  fs::remove_all(journal_dir);

  std::map<std::string, double> through;
  for (const char* span : {"mrt.inflate", "mrt.convert", "journal.append", "journal.replay",
                           "feeds.hub", "pipeline.detect"}) {
    through[span] = static_cast<double>(traced_obs);
  }
  auto layers = layer_metrics(tracer, through);
  const double obs = static_cast<double>(in.gen.observations);
  layers["mrt.obs_per_batch"].value = obs / static_cast<double>(std::max<std::uint64_t>(batches, 1));
  layers["journal.bytes_per_obs"].value = static_cast<double>(journal_bytes) / obs;
  layers["artemis.matched_share"].value = static_cast<double>(matched) / obs;
  layers["artemis.alerts"].value = static_cast<double>(alerts);
  finish_run(o, tracer, c, std::move(layers));
  return result;
}

// -------------------------------------------------------- replay_tenants

RunResult run_replay(const RunOptions& o, const Inputs& in) {
  RunResult result;
  Collector c(result);
  Tracer tracer;
  const fs::path journal_dir = fs::path(o.work_dir) / "journal";
  std::uint64_t matched = 0, alerts = 0, traced_obs = 0;

  loop(o, tracer, c, [&](bool traced) {
    std::vector<std::int64_t> alert_ns;
    alert_ns.reserve(in.truth.size());
    std::unique_ptr<pipeline::ShardedDetector> detector;
    std::optional<journal::JournalReader> reader;
    std::uint64_t replayed = 0;
    std::int64_t setup_start = 0, replay_start = 0, replay_end = 0;
    {
      Tracer::Scope run(tracer, "run");
      setup_start = now_ns();
      detector = make_detector(tracer, in.gen.config_json, nullptr);
      detector->on_alert([&alert_ns](const core::HijackAlert&) { alert_ns.push_back(now_ns()); });
      {
        Tracer::Scope span(tracer, "journal.open");
        reader.emplace(journal_dir.string());
      }
      replay_start = now_ns();
      replayed = replay_journal(tracer, *reader, *detector);
      replay_end = now_ns();
    }
    const std::uint64_t processed = detector->observations_processed();
    if (replayed != in.gen.observations || reader->truncated_tail()) {
      c.problem("replay ledger: replayed " + std::to_string(replayed) + " of " +
                std::to_string(in.gen.observations) + " journaled");
    }
    c.count(in.gen.observations, processed);
    const auto merged = detector->merged_alerts();
    c.check_alerts(merged, in.truth, "replay_tenants");
    c.setup_s.push_back(seconds_between(setup_start, replay_start));
    c.throughput.push_back(static_cast<double>(processed) /
                           seconds_between(replay_start, replay_end));
    // Latency: the journal is the input, so from replay start -> alert.
    std::vector<double> latency_ms;
    for (const std::int64_t at : alert_ns) {
      latency_ms.push_back(static_cast<double>(at - replay_start) / 1e6);
    }
    c.add_latencies(latency_ms);
    matched = detector->observations_matched();
    alerts = merged.size();
    if (traced) traced_obs += processed;
  });

  std::map<std::string, double> through;
  for (const char* span : {"journal.replay", "feeds.hub", "pipeline.detect"}) {
    through[span] = static_cast<double>(traced_obs);
  }
  auto layers = layer_metrics(tracer, through);
  const double obs = static_cast<double>(in.gen.observations);
  layers["journal.bytes_per_obs"].value = static_cast<double>(directory_bytes(journal_dir)) / obs;
  layers["artemis.matched_share"].value = static_cast<double>(matched) / obs;
  layers["artemis.alerts"].value = static_cast<double>(alerts);
  finish_run(o, tracer, c, std::move(layers));
  return result;
}

// ------------------------------------------------------------- live_http

/// The artemis_ingest --detect composition: writer, pipeline with the
/// detection tap, detector, one MetricsRegistry wired into all of them.
struct LiveRig {
  std::unique_ptr<telemetry::MetricsRegistry> registry;
  std::unique_ptr<pipeline::ShardedDetector> detector;
  std::unique_ptr<journal::JournalWriter> writer;
  std::unique_ptr<ingest::IngestPipeline> pipeline;

  void reset() {  // dependents first
    pipeline.reset();
    writer.reset();
    detector.reset();
    registry.reset();
  }
};

RunResult run_live(const RunOptions& o, const Inputs& in) {
  RunResult result;
  Collector c(result);
  Tracer tracer(o.trace);
  const auto& records = in.gen.records;
  std::vector<std::int64_t> alert_ns;
  ProgressLog taps;    // observations tapped before each batch
  ProgressLog chunks;  // bytes received
  alert_ns.reserve(in.truth.size());
  taps.reserve(in.gen.observations / 64 + 16);
  chunks.reserve(records.size() + 16);
  std::uint64_t tapped = 0;

  // Set-up, repeated so setup_s is a best-of like the other workloads'
  // per-iteration set-ups; the last rig runs.
  LiveRig rig;
  const fs::path journal_dir = fs::path(o.work_dir) / "journal";
  for (int k = 0; k < kLiveSetupRepeats; ++k) {
    rig.reset();
    fs::remove_all(journal_dir);
    const std::int64_t start = now_ns();
    rig.registry = std::make_unique<telemetry::MetricsRegistry>();
    rig.detector = make_detector(tracer, in.gen.config_json, rig.registry.get());
    {
      Tracer::Scope span(tracer, "journal.open");
      rig.writer = std::make_unique<journal::JournalWriter>(journal_dir.string());
    }
    ingest::PipelineOptions options;
    options.metrics = rig.registry.get();
    options.detection_tap = [&](std::span<const feeds::Observation> batch) {
      taps.emplace_back(now_ns(), tapped);
      tapped += batch.size();
      Tracer::Scope span(tracer, "pipeline.detect");
      rig.detector->submit_batch(batch);
    };
    rig.pipeline = std::make_unique<ingest::IngestPipeline>(*rig.writer, options);
    c.setup_s.push_back(seconds_between(start, now_ns()));
  }
  rig.detector->on_alert([&alert_ns](const core::HijackAlert&) { alert_ns.push_back(now_ns()); });

  PacedServer server(in.gen.mrt, records, kLiveObservationsPerSecond);
  ingest::FetchPolicy policy;
  policy.max_retries = 0;  // one connection; the server serves once
  policy.io_timeout_ms = 10000;
  ingest::FetchSource source("http://127.0.0.1:" + std::to_string(server.port()) + "/live.mrt",
                             policy, Rng(o.seed));
  std::uint64_t received = 0;
  const ingest::HttpBodySink sink = [&](std::span<const std::uint8_t> chunk) {
    received += chunk.size();
    chunks.emplace_back(now_ns(), received);
    Tracer::Scope span(tracer, "ingest.feed");
    rig.pipeline->feed(chunk);
  };
  ingest::FetchOutcome outcome = ingest::FetchOutcome::kTransient;
  ingest::SourceFeedStats stats;
  server.start();
  {
    Tracer::Scope run(tracer, "run");
    rig.pipeline->begin_source();
    {
      Tracer::Scope span(tracer, "ingest.fetch");
      outcome = source.run(sink, [](std::int64_t ms) {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      });
    }
    {
      Tracer::Scope span(tracer, "ingest.feed");
      stats = rig.pipeline->finish_source();
    }
    {
      Tracer::Scope span(tracer, "pipeline.detect");
      rig.detector->flush();
    }
    {
      Tracer::Scope span(tracer, "journal.close");
      rig.writer->close();
    }
  }
  const std::int64_t run_end = now_ns();
  try {
    server.join();
  } catch (const std::exception& e) {
    c.problem(e.what());
  }
  if (outcome != ingest::FetchOutcome::kOk) {
    c.problem("live fetch: " + source.stats().last_error);
  }

  // The /healthz ledger, read from the registry cells operators scrape.
  const telemetry::IngestCounters& ledger = rig.pipeline->metrics();
  const std::uint64_t converted = ledger.converted->value();
  const std::uint64_t accounted =
      ledger.journaled->value() + ledger.skipped->value() + ledger.dropped->value();
  const std::uint64_t processed = rig.detector->observations_processed();
  if (converted != accounted || converted != in.gen.observations ||
      stats.observations_journaled != converted || processed != converted) {
    c.problem("live ledger: converted " + std::to_string(converted) + "/" +
              std::to_string(in.gen.observations) + ", journaled+skipped+dropped " +
              std::to_string(accounted) + ", detected " + std::to_string(processed));
  }
  const auto merged = rig.detector->merged_alerts();
  c.check_alerts(merged, in.truth, "live_http");

  // A later replay of the live journal must raise the same alerts.
  {
    Tracer quiet;
    auto replay_detector = make_detector(quiet, in.gen.config_json, nullptr);
    journal::JournalReader reader(journal_dir.string());
    const std::uint64_t replayed = replay_journal(tracer, reader, *replay_detector);
    if (replayed != converted) c.problem("live journal replay: " + std::to_string(replayed));
    c.check_alerts(replay_detector->merged_alerts(), in.truth, "live_http journal replay");
  }

  // Byte -> alert latency, from the due time of the hijack record's last
  // byte. A hijack that never alerted counts as late as the run is long.
  std::vector<double> latency_ms;
  std::vector<bool> alerted(in.gen.hijacks.size(), false);
  const auto& emitted = rig.detector->shard(0).alerts();
  for (std::size_t i = 0; i < emitted.size() && i < alert_ns.size(); ++i) {
    const auto h = in.hijack_by_line.find(canonical_line(emitted[i]));
    if (h == in.hijack_by_line.end()) continue;
    alerted[h->second] = true;
    const auto due = server.due_ns(in.gen.hijacks[h->second].record);
    latency_ms.push_back(static_cast<double>(alert_ns[i] - due) / 1e6);
  }
  std::uint64_t expected = 0, missed = 0;
  std::vector<double> batch_wait_ms;
  for (std::size_t h = 0; h < in.gen.hijacks.size(); ++h) {
    const Hijack& hijack = in.gen.hijacks[h];
    if (!alerts_by_default(hijack.shape)) continue;
    ++expected;
    if (!alerted[h]) {
      ++missed;
      latency_ms.push_back(static_cast<double>(run_end - server.due_ns(hijack.record)) / 1e6);
      continue;
    }
    // Fed to IngestPipeline::feed -> seen by the detection tap.
    const auto fed = reached(chunks, records[hijack.record].end);
    const auto tap = std::upper_bound(
        taps.begin(), taps.end(), hijack.observation,
        [](std::uint64_t obs, const auto& entry) { return obs < entry.second; });
    if (fed != chunks.end() && tap != taps.begin()) {
      batch_wait_ms.push_back(static_cast<double>(std::prev(tap)->first - fed->first) / 1e6);
    }
  }
  c.add_latencies(latency_ms);
  c.count(in.gen.observations, processed);
  result.attempted += expected;
  result.failed += missed;
  // Offered-rate check: observations reaching detection per wall second.
  c.throughput.push_back(static_cast<double>(processed) /
                         seconds_between(server.start_ns(), run_end));

  std::map<std::string, double> through = {
      {"ingest.feed", static_cast<double>(converted)},
      {"journal.replay", static_cast<double>(converted)},
      {"feeds.hub", static_cast<double>(converted)},
      {"pipeline.detect", 2.0 * static_cast<double>(converted)}};  // live + replay check
  auto layers = layer_metrics(tracer, through);
  std::vector<double> read_lag_ms;
  read_lag_ms.reserve(chunks.size());
  for (const auto& [at, bytes] : chunks) {
    const auto record = std::lower_bound(
        records.begin(), records.end(), bytes,
        [](const RecordInfo& r, std::uint64_t b) { return r.end < b; });
    if (record == records.end()) continue;
    read_lag_ms.push_back(
        static_cast<double>(at - server.due_ns(static_cast<std::size_t>(record - records.begin()))) /
        1e6);
  }
  std::vector<double> late_ms;
  for (const std::int64_t ns : server.late_ns()) late_ms.push_back(static_cast<double>(ns) / 1e6);
  layers["ingest.read_lag_ms_p50"].value = quantile(read_lag_ms, 0.50);
  layers["ingest.read_lag_ms_p99"].value = quantile(read_lag_ms, 0.99);
  layers["ingest.batch_wait_ms_p50"].value = quantile(batch_wait_ms, 0.50);
  layers["ingest.batch_wait_ms_p99"].value = quantile(batch_wait_ms, 0.99);
  layers["live.generator_late_ms_p99"].value = quantile(late_ms, 0.99);
  layers["mrt.obs_per_batch"].value =
      static_cast<double>(tapped) / static_cast<double>(std::max<std::size_t>(taps.size(), 1));
  layers["journal.bytes_per_obs"].value =
      static_cast<double>(rig.writer->bytes_written()) / static_cast<double>(converted);
  layers["artemis.matched_share"].value =
      static_cast<double>(rig.detector->observations_matched()) / static_cast<double>(processed);
  layers["artemis.alerts"].value = static_cast<double>(merged.size());
  if (o.trace) {
    // One live run cannot be paired with an untraced twin; charge the
    // spans it recorded at their measured unit cost instead.
    Tracer probe(true);
    constexpr int kProbeSpans = 100000;
    const std::int64_t start = now_ns();
    for (int i = 0; i < kProbeSpans; ++i) Tracer::Scope span(probe, "probe");
    const double span_ns = static_cast<double>(now_ns() - start) / kProbeSpans;
    const auto totals = tracer.totals();
    const auto run = totals.find("run");
    if (run != totals.end()) {
      layers["trace_overhead_share"].value = span_ns * static_cast<double>(tracer.spans().size()) /
                                             static_cast<double>(run->second.total_ns);
    }
  }
  rig.reset();
  finish_run(o, tracer, c, std::move(layers));
  return result;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"archive_gz", "replay_tenants", "live_http"};
  return names;
}

RunResult run_workload(const RunOptions& options) {
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    throw std::invalid_argument("unknown workload " + options.workload);
  }
  const Inputs inputs = prepare_inputs(options);
  if (options.workload == "archive_gz") return run_archive(options, inputs);
  if (options.workload == "replay_tenants") return run_replay(options, inputs);
  return run_live(options, inputs);
}

}  // namespace e2ebench
