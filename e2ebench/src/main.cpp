// artemis_e2ebench: one workload of the end-to-end benchmark per process.
//
// Usage: artemis_e2ebench --workload NAME --seed N --seconds S --trace 0|1
//                         --workdir DIR [--trace-out FILE]
//
// Prints the environment, then one "metric <name> <value> <unit>" line
// per metric, then (last line) the JSON result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones. Exit 0 only when every output matched ground truth; 1 on a
// mismatch, 2 on a usage error. e2ebench/run.py builds and drives it.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "workloads.hpp"

namespace {

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr, "error: %s\n", what.c_str());
  std::fprintf(stderr,
               "usage: artemis_e2ebench --workload archive_gz|replay_tenants|live_http "
               "--seed N --seconds S --trace 0|1 --workdir DIR [--trace-out FILE]\n");
  std::exit(2);
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof regs);
    brand.erase(brand.find_last_not_of(std::string(" \0", 2)) + 1);
    brand.erase(0, brand.find_first_not_of(' '));
    return brand;
  }
#endif
  return "unknown";
}

double parse_number(const std::string& flag, const char* text, double min_value) {
  char* rest = nullptr;
  const double value = std::strtod(text, &rest);
  if (rest == text || *rest != '\0' || !(value >= min_value)) {
    usage_error(flag + " needs a number >= " + std::to_string(min_value));
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::RunOptions options;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage_error(arg + " needs a value");
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = static_cast<std::uint64_t>(parse_number(arg, value, 0));
    } else if (arg == "--seconds") {
      options.seconds = parse_number(arg, value, 0.1);
    } else if (arg == "--trace") {
      trace = std::strcmp(value, "1") == 0 ? 1 : std::strcmp(value, "0") == 0 ? 0 : -1;
      if (trace < 0) usage_error("--trace must be 0 or 1");
    } else if (arg == "--workdir") {
      options.work_dir = value;
    } else if (arg == "--trace-out") {
      options.trace_path = value;
    } else {
      usage_error("unknown argument " + arg);
    }
  }
  if (options.workload.empty() || options.work_dir.empty() || trace < 0) {
    usage_error("--workload, --workdir and --trace are required");
  }
  options.trace = trace == 1;

#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  std::printf("env nproc=%ld cpu=\"%s\" compiler=\"%s\"\n", sysconf(_SC_NPROCESSORS_ONLN),
              cpu_model().c_str(), compiler);
  e2ebench::RunResult result;
  try {
    result = e2ebench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::filesystem::remove_all(options.work_dir);
    return 1;
  }
  std::filesystem::remove_all(options.work_dir);

  for (const auto& problem : result.problems) {
    std::fprintf(stderr, "check failed: %s\n", problem.c_str());
  }
  std::string metrics;
  for (const auto& [name, metric] : result.metrics) {
    std::printf("metric %s %.12g %s\n", name.c_str(), metric.value, metric.unit.c_str());
    char value[64];
    std::snprintf(value, sizeof value, "%.12g", metric.value);
    metrics += (metrics.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": ") + value +
               ", \"unit\": \"" + metric.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return result.correct ? 0 : 1;
}
