#include "generator.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "mrt/mrt.hpp"
#include "util/rng.hpp"

namespace e2ebench {

namespace {

using namespace artemis;

struct Peer {
  bgp::Asn asn;
  bool as2;  ///< pre-RFC 6793 speaker: 2-byte AS_PATH + AS4_PATH
};

// 16 collector peers; the last four speak 2-byte ASNs.
constexpr Peer kPeers[] = {
    {3356, false},  {1299, false}, {174, false},  {6939, false},
    {2914, false},  {3257, false}, {6453, false}, {6762, false},
    {7018, false},  {3130, false}, {37100, false}, {263237, false},
    {8220, true},   {12956, true}, {1273, true},  {9002, true}};
constexpr bgp::Asn kTransit[] = {3356, 1299, 174,  6939, 2914, 3257, 6453, 6762,
                                 7018, 3491, 5511, 6461, 4637, 7473, 2497, 196610};
constexpr std::size_t kBackgroundPool = 50000;

struct OwnedEntry {
  net::Prefix prefix;
  bgp::Asn origin = bgp::kNoAsn;
  bgp::Asn neighbor = bgp::kNoAsn;  ///< kNoAsn: the entry lists no neighbours
  std::string tenant;
};

/// A hijacked route still to be re-announced from another peer, so the
/// detector's dedup sees the same alert key more than once.
struct Echo {
  net::Prefix prefix;
  std::vector<bgp::Asn> tail;  ///< path suffix after the peer + transit hops
};

std::string_view shape_name(HijackShape shape) {
  switch (shape) {
    case HijackShape::kExactOrigin: return core::to_string(core::HijackType::kExactOrigin);
    case HijackShape::kSubPrefix: return core::to_string(core::HijackType::kSubPrefix);
    case HijackShape::kFakeFirstHop: return core::to_string(core::HijackType::kFakeFirstHop);
  }
  return "?";
}

std::string line_for(HijackShape shape, const net::Prefix& observed,
                     const OwnedEntry& owned, bgp::Asn offender) {
  std::string out(shape_name(shape));
  out += ' ' + observed.to_string() + " owned=" + owned.prefix.to_string() +
         " offender=AS" + std::to_string(offender) + " tenant=" + owned.tenant;
  return out;
}

class Builder {
 public:
  Builder(const GenSpec& spec, std::uint64_t seed) : spec_(spec), rng_(seed) {}

  GeneratedInput run() {
    build_owned();
    build_background();
    if (spec_.rib_entries > 0) emit_snapshot();
    for (std::uint64_t u = 0; u < spec_.update_records; ++u) emit_update(u);
    out_.config_json = config_json();
    return std::move(out_);
  }

 private:
  void build_owned() {
    if (spec_.ownership == OwnershipShape::kGolden) {
      owned_ = {{net::Prefix::must_parse("10.0.0.0/23"), 65001, bgp::kNoAsn, "default"},
                {net::Prefix::must_parse("192.0.2.0/24"), 65002, bgp::kNoAsn, "default"},
                {net::Prefix::must_parse("2001:db8::/32"), 65003, bgp::kNoAsn, "default"}};
      return;
    }
    Rng rng = rng_.fork("owned");
    const std::size_t v4_per_tenant = spec_.prefixes_per_tenant * 9 / 10;
    for (std::size_t t = 0; t < spec_.tenants; ++t) {
      char name[32];
      std::snprintf(name, sizeof name, "tenant-%04zu", t);
      for (std::size_t j = 0; j < spec_.prefixes_per_tenant; ++j) {
        const std::uint64_t idx = t * spec_.prefixes_per_tenant + j;
        OwnedEntry entry;
        if (j < v4_per_tenant) {
          // One private /22 block per entry from 32.0.0.0 up: entries can
          // never overlap each other, whatever length they pick.
          const auto block = static_cast<std::uint32_t>(0x20000000u + idx * 1024u);
          entry.prefix = net::Prefix(net::IpAddress::v4(block),
                                     22 + static_cast<int>(rng.uniform_u64(3)));
        } else {
          entry.prefix = net::Prefix(
              net::IpAddress::v6(0x2a00000000000000ull | (idx << 16), 0), 48);
        }
        entry.origin = static_cast<bgp::Asn>(100000 + t);
        if (j % 10 == 0) entry.neighbor = static_cast<bgp::Asn>(200000 + t);
        entry.tenant = name;
        owned_.push_back(std::move(entry));
      }
    }
    for (std::size_t i = 0; i < owned_.size(); ++i) {
      if (owned_[i].neighbor != bgp::kNoAsn) with_neighbor_.push_back(i);
    }
  }

  void build_background() {
    Rng rng = rng_.fork("background");
    background_.reserve(kBackgroundPool);
    for (std::size_t i = 0; i < kBackgroundPool; ++i) {
      if (rng.chance(0.8)) {
        const auto addr = static_cast<std::uint32_t>(0x40000000u | (rng.next_u64() & 0x3FFFFFFFu));
        background_.emplace_back(net::IpAddress::v4(addr),
                                 16 + static_cast<int>(rng.uniform_u64(9)));
      } else {
        const std::uint64_t hi = 0x2400000000000000ull | (rng.next_u64() & 0x000FFFFFFFFFFFFFull);
        background_.emplace_back(net::IpAddress::v6(hi, 0),
                                 32 + static_cast<int>(rng.uniform_u64(17)));
      }
    }
  }

  const net::Prefix& any_background() {
    return background_[rng_.uniform_u64(background_.size())];
  }

  bgp::Asn background_origin() {
    return rng_.chance(0.7) ? static_cast<bgp::Asn>(1000 + rng_.uniform_u64(29000))
                            : static_cast<bgp::Asn>(131072 + rng_.uniform_u64(60000));
  }

  /// [peer, 0-3 transit hops, tail...]
  std::vector<bgp::Asn> path(bgp::Asn peer, const std::vector<bgp::Asn>& tail) {
    std::vector<bgp::Asn> hops{peer};
    const std::size_t transit = rng_.uniform_u64(4);
    for (std::size_t i = 0; i < transit; ++i) {
      hops.push_back(kTransit[rng_.uniform_u64(std::size(kTransit))]);
    }
    hops.insert(hops.end(), tail.begin(), tail.end());
    return hops;
  }

  std::vector<bgp::Asn> legit_tail(const OwnedEntry& owned) {
    if (owned.neighbor != bgp::kNoAsn) return {owned.neighbor, owned.origin};
    return {owned.origin};
  }

  void push_record(const std::vector<std::uint8_t>& bytes, std::uint32_t observations) {
    out_.mrt.insert(out_.mrt.end(), bytes.begin(), bytes.end());
    out_.records.push_back({out_.mrt.size(), observations});
    out_.observations += observations;
  }

  void emit_snapshot() {
    std::vector<mrt::RibEntryRecord> entries;
    entries.reserve(spec_.rib_entries);
    const SimTime at = SimTime::at_seconds(1000);
    while (entries.size() < spec_.rib_entries) {
      // One prefix seen from 1-3 peers: the collector's record shape.
      net::Prefix prefix;
      std::vector<bgp::Asn> tail;
      if (rng_.chance(0.1)) {
        const OwnedEntry& owned = owned_[rng_.uniform_u64(owned_.size())];
        prefix = owned.prefix;
        tail = legit_tail(owned);
      } else {
        prefix = any_background();
        tail = {background_origin()};
      }
      const std::size_t views = 1 + rng_.uniform_u64(3);
      for (std::size_t v = 0; v < views && entries.size() < spec_.rib_entries; ++v) {
        mrt::RibEntryRecord entry;
        entry.peer_asn = kPeers[rng_.uniform_u64(std::size(kPeers))].asn;
        entry.timestamp = at;
        entry.route.prefix = prefix;
        entry.route.attrs.as_path = bgp::AsPath(path(entry.peer_asn, tail));
        entries.push_back(std::move(entry));
      }
    }
    push_record(mrt::encode_table_dump(entries, at),
                static_cast<std::uint32_t>(entries.size()));
  }

  void emit_update(std::uint64_t u) {
    const Peer& peer = kPeers[rng_.uniform_u64(std::size(kPeers))];
    mrt::UpdateRecord rec;
    rec.peer_asn = peer.asn;
    rec.local_asn = 12654;
    rec.peer_ip = net::IpAddress::v4(0xC0A80000u | static_cast<std::uint32_t>(peer.asn & 0xFFFF));
    rec.timestamp = SimTime::at_seconds(2000.0 + static_cast<double>(u) * 0.01);
    rec.update.sender = peer.asn;
    auto& update = rec.update;

    bool as_set = false;
    const auto echo = echoes_.begin();
    if (echo != echoes_.end() && echo->first <= u) {
      update.announced.push_back(echo->second.prefix);
      update.attrs.as_path = bgp::AsPath(path(peer.asn, echo->second.tail));
      echoes_.erase(echo);
    } else if (rng_.chance(spec_.hijack_share)) {
      inject_hijack(rec, u);
    } else if (rng_.chance(spec_.owned_share)) {
      // Legitimate announcements of owned space: one origin per record,
      // through the owner's neighbour where its entries list one.
      const OwnedEntry& first = owned_[rng_.uniform_u64(owned_.size())];
      std::vector<bgp::Asn> tail = legit_tail(first);
      if (spec_.ownership == OwnershipShape::kGolden) {
        // The exact prefix or a more-specific of it.
        const int extra = static_cast<int>(rng_.uniform_u64(3));
        update.announced.emplace_back(first.prefix.address(),
                                      first.prefix.length() + extra);
      } else {
        // Up to 4 prefixes of the same tenant. Its entry 0 lists the
        // tenant's neighbour, legitimate for every entry that lists one.
        const auto first_index = static_cast<std::size_t>(&first - owned_.data());
        const std::size_t base =
            first_index / spec_.prefixes_per_tenant * spec_.prefixes_per_tenant;
        const std::size_t n = 1 + rng_.uniform_u64(4);
        for (std::size_t i = 0; i < n; ++i) {
          update.announced.push_back(
              owned_[base + rng_.uniform_u64(spec_.prefixes_per_tenant)].prefix);
        }
        tail = legit_tail(owned_[base]);
      }
      update.attrs.as_path = bgp::AsPath(path(peer.asn, tail));
    } else {
      // Background churn: 1-4 NLRI (dual-stack), sometimes withdrawals,
      // sometimes withdraw-only, rarely an AS_SET aggregate.
      as_set = rng_.chance(0.002);
      if (as_set || !rng_.chance(0.05)) {
        const std::size_t n = 1 + rng_.uniform_u64(4);
        for (std::size_t i = 0; i < n; ++i) update.announced.push_back(any_background());
        update.attrs.as_path = bgp::AsPath(path(peer.asn, {background_origin()}));
      }
      if (update.announced.empty() || rng_.chance(0.3)) {
        const std::size_t n = 1 + rng_.uniform_u64(2);
        for (std::size_t i = 0; i < n; ++i) update.withdrawn.push_back(any_background());
      }
    }

    mrt::UpdateEncodeOptions options;
    options.mp_next_hop_len = (peer.asn & 1) ? 32 : 16;
    if (as_set) {
      push_record(mrt::encode_update_record_as_set(rec), 0);
      ++out_.skipped_records;
      return;
    }
    const auto observations =
        static_cast<std::uint32_t>(update.announced.size() + update.withdrawn.size());
    push_record(peer.as2 ? mrt::encode_update_record_as2(rec, options)
                         : mrt::encode_update_record(rec, options),
                observations);
  }

  void inject_hijack(mrt::UpdateRecord& rec, std::uint64_t u) {
    const std::uint64_t h = out_.hijacks.size();
    if (h >= 60000) throw std::invalid_argument("too many hijacks for unique offenders");
    HijackShape shape = rng_.chance(0.5) ? HijackShape::kExactOrigin
                                         : HijackShape::kSubPrefix;
    if (!with_neighbor_.empty() && rng_.chance(0.2)) shape = HijackShape::kFakeFirstHop;

    const OwnedEntry& owned =
        shape == HijackShape::kFakeFirstHop
            ? owned_[with_neighbor_[rng_.uniform_u64(with_neighbor_.size())]]
            : owned_[rng_.uniform_u64(owned_.size())];
    // A fresh offender per hijack gives every hijack its own alert key;
    // odd ones are 2-byte ASNs (AS_PATH proper), even ones 4-byte (AS4_PATH
    // through the 2-byte speakers).
    const bgp::Asn offender =
        shape == HijackShape::kFakeFirstHop
            ? static_cast<bgp::Asn>(4100000000u + h)
            : static_cast<bgp::Asn>((h & 1) ? 30000 + (h >> 1) : 4200000000u + (h >> 1));

    net::Prefix observed = owned.prefix;
    if (shape == HijackShape::kSubPrefix) {
      const int max_len = owned.prefix.family() == net::IpFamily::kIpv4 ? 32 : 128;
      const int len = std::min(max_len, owned.prefix.length() + 1 +
                                            static_cast<int>(rng_.uniform_u64(4)));
      // Random bits below the owned length pick which more-specific.
      net::IpAddress addr = owned.prefix.address();
      for (int bit = owned.prefix.length(); bit < len; ++bit) {
        addr = addr.with_bit(bit, rng_.chance(0.5));
      }
      observed = net::Prefix(addr, len);
    }
    const std::vector<bgp::Asn> tail =
        shape == HijackShape::kFakeFirstHop ? std::vector<bgp::Asn>{offender, owned.origin}
                                            : std::vector<bgp::Asn>{offender};
    rec.update.announced.push_back(observed);
    rec.update.attrs.as_path = bgp::AsPath(path(rec.peer_asn, tail));

    Hijack hijack;
    hijack.shape = shape;
    hijack.record = out_.records.size();
    hijack.observation = out_.observations;
    hijack.alert_line = line_for(shape, observed, owned, offender);
    out_.hijacks.push_back(std::move(hijack));

    // Seen again from 0-2 more peers a little later (same alert key).
    const std::size_t echoes = rng_.uniform_u64(3);
    for (std::size_t i = 0; i < echoes; ++i) {
      echoes_.emplace(u + 1 + rng_.uniform_u64(200), Echo{observed, tail});
    }
  }

  std::string config_json() const {
    const auto entry = [](std::string& out, const OwnedEntry& owned) {
      out += "{\"prefix\":\"" + owned.prefix.to_string() + "\",\"origins\":[" +
             std::to_string(owned.origin) + "]";
      if (owned.neighbor != bgp::kNoAsn) {
        out += ",\"neighbors\":[" + std::to_string(owned.neighbor) + "]";
      }
      out += '}';
    };
    std::string out;
    if (spec_.ownership == OwnershipShape::kGolden) {
      out = "{\"prefixes\":[";
      for (std::size_t i = 0; i < owned_.size(); ++i) {
        if (i > 0) out += ',';
        entry(out, owned_[i]);
      }
      return out + "]}";
    }
    out = "{\"schema_version\":2,\"tenants\":[";
    for (std::size_t i = 0; i < owned_.size(); ++i) {
      const bool first_of_tenant = i % spec_.prefixes_per_tenant == 0;
      if (first_of_tenant) {
        if (i > 0) out += "]},";
        out += "{\"name\":\"" + owned_[i].tenant + "\",\"prefixes\":[";
      } else {
        out += ',';
      }
      entry(out, owned_[i]);
    }
    return out + "]}]}";
  }

  const GenSpec& spec_;
  Rng rng_;
  GeneratedInput out_;
  std::vector<OwnedEntry> owned_;
  std::vector<std::size_t> with_neighbor_;  ///< owned_ indices listing neighbours
  std::vector<net::Prefix> background_;
  std::multimap<std::uint64_t, Echo> echoes_;  ///< due record -> re-announcement
};

}  // namespace

GeneratedInput generate(const GenSpec& spec, std::uint64_t seed) {
  return Builder(spec, seed).run();
}

bool alerts_by_default(HijackShape shape) {
  // DetectionOptions defaults: sub/super-prefix checks on, first-hop off.
  return shape != HijackShape::kFakeFirstHop;
}

std::vector<std::string> expected_alerts(const GeneratedInput& input,
                                         bool fake_first_hop_detection) {
  std::vector<std::string> lines;
  for (const auto& hijack : input.hijacks) {
    if (alerts_by_default(hijack.shape) || fake_first_hop_detection) {
      lines.push_back(hijack.alert_line);
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

std::string canonical_line(const core::HijackAlert& alert) {
  std::string out(core::to_string(alert.type));
  out += ' ' + alert.observed_prefix.to_string() +
         " owned=" + alert.owned_prefix.to_string() + " offender=AS" +
         std::to_string(alert.offender) + " tenant=" + alert.tenant_name;
  return out;
}

std::string serialize_meta(const GeneratedInput& input) {
  std::ostringstream out;
  out << "e2ebench-meta 1\n"
      << "observations " << input.observations << '\n'
      << "skipped_records " << input.skipped_records << '\n'
      << "records " << input.records.size() << '\n';
  for (const auto& r : input.records) out << r.end << ' ' << r.observations << '\n';
  out << "hijacks " << input.hijacks.size() << '\n';
  for (const auto& h : input.hijacks) {
    out << static_cast<int>(h.shape) << ' ' << h.record << ' ' << h.observation << ' '
        << h.alert_line << '\n';
  }
  out << "config " << input.config_json.size() << '\n' << input.config_json;
  return out.str();
}

void parse_meta(const std::string& text, GeneratedInput& input) {
  std::istringstream in(text);
  std::string word;
  std::size_t count = 0;
  const auto expect = [&in, &word](const char* key) {
    if (!(in >> word) || word != key) {
      throw std::runtime_error(std::string("meta: expected ") + key);
    }
  };
  int version = 0;
  expect("e2ebench-meta");
  in >> version;
  expect("observations");
  in >> input.observations;
  expect("skipped_records");
  in >> input.skipped_records;
  expect("records");
  in >> count;
  input.records.resize(count);
  for (auto& r : input.records) in >> r.end >> r.observations;
  expect("hijacks");
  in >> count;
  input.hijacks.resize(count);
  for (auto& h : input.hijacks) {
    int shape = 0;
    in >> shape >> h.record >> h.observation;
    h.shape = static_cast<HijackShape>(shape);
    in.get();
    std::getline(in, h.alert_line);
  }
  expect("config");
  in >> count;
  in.get();
  input.config_json.resize(count);
  in.read(input.config_json.data(), static_cast<std::streamsize>(count));
  if (!in || version != 1) throw std::runtime_error("meta: malformed");
}

}  // namespace e2ebench
