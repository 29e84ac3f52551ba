// Seeded input generator for the end-to-end benchmark.
//
// Emits a RIS/RouteViews-shaped MRT stream with the library's own
// encoders, an ownership config as JSON text, and the exact alert set a
// correct detector must raise on it. The same (spec, seed) always yields
// byte-identical output.
//
// Ground truth is exact by construction: background prefixes never
// overlap owned space (owned space sits in 10/8, 192.0.2/24, 32/5-ish
// tenant blocks, 2001:db8::/32 and 2a00::/16; background in 64.0.0.0/2
// and 2400::/12), owned prefixes are otherwise announced only by their
// legitimate origins through their legitimate neighbours, and every
// injected hijack carries a fresh offender ASN, so each one has its own
// alert key.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "artemis/alert.hpp"

namespace e2ebench {

enum class OwnershipShape : std::uint8_t {
  kGolden,   ///< 10.0.0.0/23=65001 192.0.2.0/24=65002 2001:db8::/32=65003 (v1)
  kTenants,  ///< `tenants` x `prefixes_per_tenant`, schema v2
};

struct GenSpec {
  OwnershipShape ownership = OwnershipShape::kGolden;
  std::uint64_t update_records = 10000;
  /// Entries of a leading TABLE_DUMP_V2 snapshot (0 = no snapshot).
  std::size_t rib_entries = 0;
  std::size_t tenants = 1000;
  std::size_t prefixes_per_tenant = 100;
  /// Share of update records that inject a new hijack.
  double hijack_share = 0.001;
  /// Share of update records that announce owned prefixes legitimately.
  double owned_share = 0.01;
};

enum class HijackShape : std::uint8_t { kExactOrigin, kSubPrefix, kFakeFirstHop };

/// One MRT record of the stream (a TABLE_DUMP_V2 snapshot counts as one).
struct RecordInfo {
  std::uint64_t end = 0;            ///< byte offset just past the record
  std::uint32_t observations = 0;   ///< observations it converts to
};

struct Hijack {
  HijackShape shape = HijackShape::kExactOrigin;
  std::uint64_t record = 0;       ///< index of the first record carrying it
  std::uint64_t observation = 0;  ///< stream index of its first observation
  std::string alert_line;         ///< canonical_line() of the alert it raises
};

struct GeneratedInput {
  std::vector<std::uint8_t> mrt;  ///< uncompressed MRT bytes
  std::vector<RecordInfo> records;
  std::uint64_t observations = 0;     ///< what a correct converter emits
  std::uint64_t skipped_records = 0;  ///< AS_SET records (skipped whole)
  std::vector<Hijack> hijacks;
  std::string config_json;
};

GeneratedInput generate(const GenSpec& spec, std::uint64_t seed);

/// The sorted canonical alert lines a detector with default options
/// raises on `input`; fake-first-hop hijacks alert only when that check
/// is turned on.
std::vector<std::string> expected_alerts(const GeneratedInput& input,
                                         bool fake_first_hop_detection = false);

/// Whether a detector with default options alerts on this shape.
bool alerts_by_default(HijackShape shape);

/// Alert identity without the per-run fields (first vantage, time): the
/// form ground truth and detector output are compared in.
std::string canonical_line(const artemis::core::HijackAlert& alert);

/// Text round trip of everything but `mrt`, for handing inputs from the
/// generating process to the measuring one.
std::string serialize_meta(const GeneratedInput& input);
void parse_meta(const std::string& text, GeneratedInput& input);

}  // namespace e2ebench
