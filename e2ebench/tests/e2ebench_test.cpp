// The benchmark's own tests: generator determinism, detector-vs-truth
// agreement for every hijack shape, and the printed metric set matching
// BENCHMARK.json. Run with `python3 e2ebench/run.py --test`.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "generator.hpp"
#include "json/json.hpp"
#include "mrt/observation_convert.hpp"
#include "pipeline/sharded_detector.hpp"
#include "workloads.hpp"

namespace {

using namespace e2ebench;
using namespace artemis;

GenSpec small_tenants() {
  GenSpec spec;
  spec.ownership = OwnershipShape::kTenants;
  spec.tenants = 20;
  spec.prefixes_per_tenant = 20;
  spec.update_records = 20000;
  spec.rib_entries = 2000;
  spec.hijack_share = 0.01;
  spec.owned_share = 0.28;
  return spec;
}

GenSpec small_golden() {
  GenSpec spec;
  spec.update_records = 20000;
  spec.rib_entries = 2000;
  spec.hijack_share = 0.01;
  return spec;
}

TEST(GeneratorTest, SameSeedGivesByteIdenticalInputsAndTruth) {
  for (const GenSpec& spec : {small_golden(), small_tenants()}) {
    const GeneratedInput a = generate(spec, 7);
    const GeneratedInput b = generate(spec, 7);
    EXPECT_EQ(a.mrt, b.mrt);
    EXPECT_EQ(serialize_meta(a), serialize_meta(b));
    EXPECT_EQ(expected_alerts(a), expected_alerts(b));

    const GeneratedInput c = generate(spec, 8);
    EXPECT_NE(a.mrt, c.mrt);
    EXPECT_NE(expected_alerts(a), expected_alerts(c));
  }
}

TEST(GeneratorTest, MetaRoundTrips) {
  const GeneratedInput a = generate(small_tenants(), 3);
  GeneratedInput b;
  parse_meta(serialize_meta(a), b);
  EXPECT_EQ(serialize_meta(a), serialize_meta(b));
  EXPECT_EQ(b.config_json, a.config_json);
  ASSERT_EQ(b.hijacks.size(), a.hijacks.size());
  EXPECT_EQ(b.hijacks.back().alert_line, a.hijacks.back().alert_line);
}

/// Converts the stream straight into a detector and returns its canonical
/// alert lines.
std::vector<std::string> detect(const GeneratedInput& input, bool fake_first_hop) {
  pipeline::ShardedDetectorOptions options;
  options.detection.detect_fake_first_hop = fake_first_hop;
  pipeline::ShardedDetector detector(
      core::Config::from_json_text(input.config_json).build_table(), options);
  mrt::ObservationConverter converter;
  const auto stats = converter.convert_file(
      input.mrt, [&](std::span<const feeds::Observation> b) { detector.submit_batch(b); });
  EXPECT_TRUE(stats.clean());
  EXPECT_EQ(stats.observations, input.observations);
  EXPECT_EQ(stats.skipped_records, input.skipped_records);
  EXPECT_EQ(detector.observations_processed(), input.observations);
  std::vector<std::string> lines;
  for (const auto& alert : detector.merged_alerts()) lines.push_back(canonical_line(alert));
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(GeneratorTest, DetectorAgreesWithTruthForEveryHijackShape) {
  const GeneratedInput tenants = generate(small_tenants(), 11);
  std::map<HijackShape, int> shapes;
  for (const auto& h : tenants.hijacks) ++shapes[h.shape];
  EXPECT_GT(shapes[HijackShape::kExactOrigin], 0);
  EXPECT_GT(shapes[HijackShape::kSubPrefix], 0);
  EXPECT_GT(shapes[HijackShape::kFakeFirstHop], 0);
  EXPECT_GT(tenants.skipped_records, 0u);

  // Default options (what the CLIs build): fake-first-hop stays silent.
  EXPECT_EQ(detect(tenants, false), expected_alerts(tenants, false));
  // With the first-hop check on, those hijacks alert too — and nothing
  // legitimate does.
  EXPECT_EQ(detect(tenants, true), expected_alerts(tenants, true));
  EXPECT_GT(expected_alerts(tenants, true).size(), expected_alerts(tenants, false).size());

  const GeneratedInput golden = generate(small_golden(), 11);
  EXPECT_FALSE(expected_alerts(golden).empty());
  EXPECT_EQ(detect(golden, false), expected_alerts(golden));
}

/// name -> unit of one BENCHMARK.json list.
std::map<std::string, std::string> spec_metrics(const char* list) {
  std::ifstream in(E2EBENCH_SPEC);
  std::stringstream text;
  text << in.rdbuf();
  const json::Value spec = json::parse(text.str());
  std::map<std::string, std::string> out;
  for (const auto& m : spec.at(list).as_array()) {
    out[m.at("name").as_string()] = m.get_string("unit", "");
  }
  return out;
}

TEST(WorkloadTest, EveryWorkloadPrintsEveryMetricWithItsUnitAndPassesItsChecks) {
  const auto end_to_end = spec_metrics("end_to_end");
  const auto per_layer = spec_metrics("per_layer");
  for (const auto& [gated, unused] : spec_metrics("workloads")) {
    EXPECT_NE(std::find(workload_names().begin(), workload_names().end(), gated),
              workload_names().end())
        << gated;
  }
  for (const auto& workload : workload_names()) {
    for (const bool trace : {false, true}) {
      RunOptions options;
      options.workload = workload;
      options.seed = 5;
      options.seconds = workload == "live_http" ? 1.0 : 0.2;
      options.scale = 0.02;
      options.trace = trace;
      options.work_dir = (std::filesystem::current_path() / ("test-work-" + workload)).string();
      const RunResult result = run_workload(options);
      std::filesystem::remove_all(options.work_dir);
      SCOPED_TRACE(workload + (trace ? " traced" : ""));
      for (const auto& problem : result.problems) ADD_FAILURE() << problem;
      EXPECT_TRUE(result.correct);
      EXPECT_GT(result.attempted, 0u);
      EXPECT_EQ(result.failed, 0u);
      std::map<std::string, std::string> printed;
      for (const auto& [name, metric] : result.metrics) printed[name] = metric.unit;
      EXPECT_EQ(printed, trace ? per_layer : end_to_end);
      if (!trace) {
        for (const auto& [name, metric] : result.metrics) {
          EXPECT_GT(metric.value, 0) << name;
        }
      }
    }
  }
}

}  // namespace
