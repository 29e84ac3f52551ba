// The benchmark's three workloads, each run in one process:
//
//   archive_gz      gzip archive -> inflate -> convert -> JournalWriter ->
//                   close -> JournalReader/ReplayFeed -> MonitorHub ->
//                   detection, golden 3-prefix config
//   replay_tenants  journal replay -> hub -> detection against a 1k-tenant /
//                   100k-prefix v2 config loaded from JSON text
//   live_http       open-loop loopback HTTP feed at a fixed rate ->
//                   FetchSource -> IngestPipeline (journal + detection tap,
//                   MetricsRegistry wired), golden config
//
// See e2ebench/README.md for why each was chosen and what every metric
// should move.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;    ///< inputs and journals; removed by the caller
  std::string trace_path;  ///< a traced run writes its spans here ("" = not)
  double scale = 1.0;      ///< input size multiplier (the tests shrink it)
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> problems;  ///< why `correct` is false
};

const std::vector<std::string>& workload_names();

/// Generates the workload's inputs from the seed (in a child process, so
/// generator memory never counts toward peak_rss_mb), then measures for
/// `seconds` and checks every output against ground truth. Untraced runs
/// report the end-to-end metrics, traced runs the per-layer ones.
RunResult run_workload(const RunOptions& options);

}  // namespace e2ebench
