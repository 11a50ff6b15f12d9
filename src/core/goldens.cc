#include "core/goldens.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "netbase/sha256.h"
#include "sim/scenario.h"

namespace originscan::core {
namespace {

std::string dotted(net::Ipv4Addr addr) {
  const std::uint32_t v = addr.value();
  return std::to_string((v >> 24) & 255) + "." + std::to_string((v >> 16) & 255) +
         "." + std::to_string((v >> 8) & 255) + "." + std::to_string(v & 255);
}

std::optional<proto::Protocol> protocol_from_name(std::string_view name) {
  for (proto::Protocol p : proto::kAllProtocols) {
    if (proto::name_of(p) == name) return p;
  }
  return std::nullopt;
}

// ---- Scenario worlds ------------------------------------------------

// The clean world: three ASes, full service coverage, zero loss, zero
// outages, no policies, no MaxStartups. Nothing in it depends on the
// virtual time or attempt index of a handshake, which is what upgrades
// "the retry ladder absorbed the fault" to "the output is byte-identical".
sim::World build_clean_world() {
  sim::World world;
  world.seed = 0xC1EA5ULL;
  constexpr std::uint32_t kBlocksPerAs = 4;
  world.universe_size = 3 * kBlocksPerAs * 256;

  auto make_origin = [&](const char* code, sim::CountryCode country, int ips,
                         int index) {
    sim::OriginSpec spec;
    spec.code = code;
    spec.display_name = code;
    spec.country = country;
    for (int i = 0; i < ips; ++i) {
      spec.source_ips.emplace_back(
          world.universe_size + static_cast<std::uint32_t>(256 * index + i + 10));
    }
    return spec;
  };
  world.origins.push_back(make_origin("ONE", sim::country::kUS, 1, 0));
  world.origins.push_back(make_origin("FOUR", sim::country::kDE, 4, 1));

  const char* names[3] = {"Alpha", "Beta", "Gamma"};
  const sim::CountryCode countries[3] = {sim::country::kUS, sim::country::kJP,
                                         sim::country::kCN};
  // Every AS: 90% of addresses host, each host runs every service.
  sim::HostGenParams params;
  params.density = 0.9;
  std::uint32_t block = 0;
  for (int a = 0; a < 3; ++a) {
    const sim::AsId as = world.topology.add_as(names[a], countries[a]);
    for (std::uint32_t b = 0; b < kBlocksPerAs; ++b) {
      world.topology.add_prefix(as, net::Prefix(net::Ipv4Addr(block * 256), 24));
      ++block;
    }
    world.host_params.push_back(params);
  }
  world.topology.freeze();

  sim::PathProfile clean;
  clean.good_loss = 0;
  clean.bad_loss = 0;
  clean.bad_fraction = 0;
  world.paths.set_default_profile(clean);
  world.outages.pair_rate = 0;
  world.outages.wide_event_probability = 0;
  return world;
}

std::vector<scan::ScanResult> run_clean_small(
    int jobs, const fault::FaultInjector* faults) {
  static const sim::World world = build_clean_world();
  sim::PersistentState persistent;

  sim::TrialContext context;
  context.trial = 0;
  context.experiment_seed = world.seed;
  context.simultaneous_origins = static_cast<int>(world.origins.size());
  context.scan_duration = net::VirtualTime::from_hours(1);
  sim::Internet internet(&world, context, &persistent);
  internet.set_fault_injector(faults);

  scan::ScanOptions options;
  options.probes = 2;
  // Retry budget sized to absorb any clause the differential tests
  // inject (attempts <= 3), including banner-level failures. The golden
  // run uses the *same* options: the retry ladder only engages when a
  // fault fires, so the fault-free run is untouched by the headroom.
  options.l7_retries = 3;
  options.retry_banner_failures = true;
  options.keep_banners = true;
  options.scan_duration = context.scan_duration;
  options.jobs = jobs;
  options.faults = faults;

  std::vector<scan::ScanResult> results;
  for (sim::OriginId origin = 0; origin < world.origins.size(); ++origin) {
    for (proto::Protocol protocol : proto::kAllProtocols) {
      results.push_back(scan::run_scan(internet, origin, protocol, options));
    }
  }
  return results;
}

std::vector<scan::ScanResult> run_paper_small(
    int jobs, const fault::FaultInjector* faults) {
  ExperimentConfig config = paper_small_config();
  config.jobs = jobs;
  config.faults = faults;
  Experiment experiment(config);
  experiment.run();
  return experiment.all_results();
}

}  // namespace

ExperimentConfig paper_small_config() {
  ExperimentConfig config;
  config.scenario = sim::ScenarioConfig::paper_default();
  config.scenario.universe_size = 1u << 13;
  config.trials = 2;
  config.protocols = {proto::Protocol::kHttp, proto::Protocol::kSsh};
  config.l7_retries = 1;
  return config;
}

// ---- Digests --------------------------------------------------------

ResultDigest digest_of(const scan::ScanResult& result) {
  ResultDigest digest;
  digest.origin_code = result.origin_code;
  digest.trial = result.trial;
  digest.protocol = result.protocol;
  digest.record_count = result.records.size();
  digest.completed = result.completed_count();
  digest.synacks = result.l4_stats.synacks;

  net::Sha256 record_hash;
  for (const auto& record : result.records) {
    const std::uint32_t addr = record.addr.value();
    const std::uint32_t second = record.probe_second;
    const std::uint8_t packed[12] = {
        static_cast<std::uint8_t>(addr >> 24),
        static_cast<std::uint8_t>(addr >> 16),
        static_cast<std::uint8_t>(addr >> 8),
        static_cast<std::uint8_t>(addr),
        record.synack_mask,
        record.rst_mask,
        static_cast<std::uint8_t>(record.l7),
        static_cast<std::uint8_t>(record.explicit_close ? 1 : 0),
        static_cast<std::uint8_t>(second >> 24),
        static_cast<std::uint8_t>(second >> 16),
        static_cast<std::uint8_t>(second >> 8),
        static_cast<std::uint8_t>(second),
    };
    record_hash.update(packed);
  }
  digest.record_sha256 = net::Sha256::hex(record_hash.finish());

  if (!result.banners.empty()) {
    net::Sha256 banner_hash;
    for (const auto& banner : result.banners) {
      banner_hash.update(std::span(
          reinterpret_cast<const std::uint8_t*>(banner.data()), banner.size()));
      const std::uint8_t separator = '\n';
      banner_hash.update(std::span(&separator, 1));
    }
    digest.banner_sha256 = net::Sha256::hex(banner_hash.finish());
  }
  return digest;
}

std::vector<ResultDigest> digest_all(
    const std::vector<scan::ScanResult>& results) {
  std::vector<ResultDigest> digests;
  digests.reserve(results.size());
  for (const auto& result : results) digests.push_back(digest_of(result));
  return digests;
}

// ---- JSON -----------------------------------------------------------

namespace {

void append_escaped(std::string& out, std::string_view text) {
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

// Minimal parser for the exact shape to_json emits: objects, arrays,
// strings (with \" and \\ escapes), and non-negative integers.
struct JsonCursor {
  std::string_view text;
  std::size_t pos = 0;
  bool failed = false;

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    failed = true;
    return false;
  }
  bool peek(char c) {
    skip_ws();
    return pos < text.size() && text[pos] == c;
  }
  std::string string() {
    if (!eat('"')) return {};
    std::string out;
    while (pos < text.size() && text[pos] != '"') {
      char c = text[pos++];
      if (c == '\\' && pos < text.size()) c = text[pos++];
      out.push_back(c);
    }
    if (pos >= text.size()) {
      failed = true;
      return {};
    }
    ++pos;  // closing quote
    return out;
  }
  std::uint64_t number() {
    skip_ws();
    std::uint64_t value = 0;
    bool any = false;
    while (pos < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[pos]))) {
      value = value * 10 + static_cast<std::uint64_t>(text[pos] - '0');
      ++pos;
      any = true;
    }
    if (!any) failed = true;
    return value;
  }
};

}  // namespace

std::string GoldenFile::to_json() const {
  std::string out = "{\n  \"scenario\": \"";
  append_escaped(out, scenario);
  out += "\",\n  \"digests\": [\n";
  for (std::size_t i = 0; i < digests.size(); ++i) {
    const ResultDigest& d = digests[i];
    out += "    {\"origin\": \"";
    append_escaped(out, d.origin_code);
    out += "\", \"trial\": " + std::to_string(d.trial);
    out += ", \"protocol\": \"";
    out += proto::name_of(d.protocol);
    out += "\", \"records\": " + std::to_string(d.record_count);
    out += ", \"completed\": " + std::to_string(d.completed);
    out += ", \"synacks\": " + std::to_string(d.synacks);
    out += ", \"record_sha256\": \"" + d.record_sha256 + "\"";
    out += ", \"banner_sha256\": \"" + d.banner_sha256 + "\"}";
    if (i + 1 < digests.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::optional<GoldenFile> GoldenFile::from_json(std::string_view text) {
  JsonCursor cursor{text};
  GoldenFile golden;
  if (!cursor.eat('{')) return std::nullopt;
  bool first_key = true;
  while (!cursor.peek('}')) {
    if (!first_key && !cursor.eat(',')) return std::nullopt;
    first_key = false;
    const std::string key = cursor.string();
    if (!cursor.eat(':')) return std::nullopt;
    if (key == "scenario") {
      golden.scenario = cursor.string();
    } else if (key == "digests") {
      if (!cursor.eat('[')) return std::nullopt;
      bool first_entry = true;
      while (!cursor.peek(']')) {
        if (!first_entry && !cursor.eat(',')) return std::nullopt;
        first_entry = false;
        if (!cursor.eat('{')) return std::nullopt;
        ResultDigest digest;
        bool first_field = true;
        while (!cursor.peek('}')) {
          if (!first_field && !cursor.eat(',')) return std::nullopt;
          first_field = false;
          const std::string field = cursor.string();
          if (!cursor.eat(':')) return std::nullopt;
          if (field == "origin") {
            digest.origin_code = cursor.string();
          } else if (field == "trial") {
            digest.trial = static_cast<int>(cursor.number());
          } else if (field == "protocol") {
            const auto protocol = protocol_from_name(cursor.string());
            if (!protocol) return std::nullopt;
            digest.protocol = *protocol;
          } else if (field == "records") {
            digest.record_count = cursor.number();
          } else if (field == "completed") {
            digest.completed = cursor.number();
          } else if (field == "synacks") {
            digest.synacks = cursor.number();
          } else if (field == "record_sha256") {
            digest.record_sha256 = cursor.string();
          } else if (field == "banner_sha256") {
            digest.banner_sha256 = cursor.string();
          } else {
            return std::nullopt;  // unknown field: not our format
          }
          if (cursor.failed) return std::nullopt;
        }
        if (!cursor.eat('}')) return std::nullopt;
        golden.digests.push_back(std::move(digest));
      }
      if (!cursor.eat(']')) return std::nullopt;
    } else {
      return std::nullopt;
    }
    if (cursor.failed) return std::nullopt;
  }
  if (!cursor.eat('}')) return std::nullopt;
  cursor.skip_ws();
  if (cursor.pos != text.size()) return std::nullopt;
  return golden;
}

// ---- Scenario registry ----------------------------------------------

std::vector<std::string_view> golden_scenario_names() {
  return {"clean_small", "paper_small"};
}

std::vector<scan::ScanResult> run_golden_scenario(
    std::string_view name, int jobs, const fault::FaultInjector* faults) {
  if (name == "clean_small") return run_clean_small(jobs, faults);
  if (name == "paper_small") return run_paper_small(jobs, faults);
  throw std::invalid_argument("unknown golden scenario: " + std::string(name));
}

// ---- Differential comparison ----------------------------------------

std::string_view degradation_name(DegradationClass klass) {
  switch (klass) {
    case DegradationClass::kIdentical:
      return "identical";
    case DegradationClass::kL4Loss:
      return "l4_loss";
    case DegradationClass::kL7Degradation:
      return "l7_degradation";
    case DegradationClass::kMixed:
      return "mixed";
    case DegradationClass::kStructural:
      return "structural";
  }
  return "unknown";
}

namespace {

std::string describe_record(const scan::ScanRecord& record) {
  return "{synack_mask=" + std::to_string(record.synack_mask) +
         " rst_mask=" + std::to_string(record.rst_mask) +
         " l7=" + std::string(sim::to_string(record.l7)) +
         " explicit_close=" + std::to_string(record.explicit_close ? 1 : 0) +
         " probe_second=" + std::to_string(record.probe_second) + "}";
}

constexpr std::size_t kMaxDivergences = 8;

void add_divergence(DifferentialReport& report, std::size_t result_index,
                    const scan::ScanResult& golden, std::string description) {
  if (report.divergences.size() >= kMaxDivergences) return;
  RecordDivergence divergence;
  divergence.result_index = result_index;
  divergence.origin_code = golden.origin_code;
  divergence.trial = golden.trial;
  divergence.protocol = golden.protocol;
  divergence.description = std::move(description);
  report.divergences.push_back(std::move(divergence));
}

}  // namespace

DifferentialReport compare_results(
    const std::vector<scan::ScanResult>& golden,
    const std::vector<scan::ScanResult>& actual) {
  DifferentialReport report;
  if (golden.size() != actual.size()) {
    report.klass = DegradationClass::kStructural;
    RecordDivergence divergence;
    divergence.description =
        "result grid mismatch: golden has " + std::to_string(golden.size()) +
        " results, actual has " + std::to_string(actual.size());
    report.divergences.push_back(std::move(divergence));
    return report;
  }

  bool structural = false;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const scan::ScanResult& g = golden[i];
    const scan::ScanResult& a = actual[i];
    if (g.origin_code != a.origin_code || g.trial != a.trial ||
        g.protocol != a.protocol) {
      structural = true;
      add_divergence(report, i, g,
                     "result identity mismatch: golden (" + g.origin_code +
                         ", trial " + std::to_string(g.trial) + ", " +
                         std::string(proto::name_of(g.protocol)) +
                         ") vs actual (" + a.origin_code + ", trial " +
                         std::to_string(a.trial) + ", " +
                         std::string(proto::name_of(a.protocol)) + ")");
      continue;
    }
    report.records_golden += g.records.size();
    report.records_actual += a.records.size();

    // Both record lists are address-sorted (the orchestrator's canonical
    // order): a linear merge join finds every divergence.
    std::size_t gi = 0, ai = 0;
    while (gi < g.records.size() || ai < a.records.size()) {
      if (ai >= a.records.size() ||
          (gi < g.records.size() &&
           g.records[gi].addr < a.records[ai].addr)) {
        ++report.missing_records;
        add_divergence(report, i, g,
                       "record " + dotted(g.records[gi].addr) +
                           " present in golden " +
                           describe_record(g.records[gi]) +
                           ", missing from actual");
        ++gi;
        continue;
      }
      if (gi >= g.records.size() || a.records[ai].addr < g.records[gi].addr) {
        ++report.extra_records;
        add_divergence(report, i, g,
                       "record " + dotted(a.records[ai].addr) +
                           " absent from golden, present in actual " +
                           describe_record(a.records[ai]));
        ++ai;
        continue;
      }
      const scan::ScanRecord& gr = g.records[gi];
      const scan::ScanRecord& ar = a.records[ai];
      if (!(gr == ar)) {
        const bool l4_diff = gr.synack_mask != ar.synack_mask ||
                             gr.rst_mask != ar.rst_mask ||
                             gr.probe_second != ar.probe_second;
        const bool l7_diff =
            gr.l7 != ar.l7 || gr.explicit_close != ar.explicit_close;
        if (l4_diff) ++report.l4_diffs;
        if (l7_diff) ++report.l7_diffs;
        add_divergence(report, i, g,
                       "record " + dotted(gr.addr) + " diverges: golden " +
                           describe_record(gr) + " vs actual " +
                           describe_record(ar));
      } else if (!g.banners.empty() && !a.banners.empty() &&
                 gi < g.banners.size() && ai < a.banners.size() &&
                 g.banners[gi] != a.banners[ai]) {
        ++report.l7_diffs;
        add_divergence(report, i, g,
                       "record " + dotted(gr.addr) + " banner diverges: \"" +
                           g.banners[gi] + "\" vs \"" + a.banners[ai] + "\"");
      }
      ++gi;
      ++ai;
    }
  }

  const std::uint64_t l4_damage =
      report.missing_records + report.extra_records + report.l4_diffs;
  if (structural) {
    report.klass = DegradationClass::kStructural;
  } else if (l4_damage > 0 && report.l7_diffs > 0) {
    report.klass = DegradationClass::kMixed;
  } else if (l4_damage > 0) {
    report.klass = DegradationClass::kL4Loss;
  } else if (report.l7_diffs > 0) {
    report.klass = DegradationClass::kL7Degradation;
  } else {
    report.klass = DegradationClass::kIdentical;
  }
  return report;
}

std::string DifferentialReport::summary() const {
  std::string out = "class=" + std::string(degradation_name(klass)) +
                    " golden_records=" + std::to_string(records_golden) +
                    " actual_records=" + std::to_string(records_actual) +
                    " missing=" + std::to_string(missing_records) +
                    " extra=" + std::to_string(extra_records) +
                    " l4_diffs=" + std::to_string(l4_diffs) +
                    " l7_diffs=" + std::to_string(l7_diffs);
  if (!divergences.empty()) {
    out += "\nfirst divergence (" + divergences.front().origin_code +
           ", trial " + std::to_string(divergences.front().trial) + ", " +
           std::string(proto::name_of(divergences.front().protocol)) +
           "): " + divergences.front().description;
  }
  return out;
}

std::optional<std::string> compare_digests(
    const std::vector<ResultDigest>& golden,
    const std::vector<ResultDigest>& actual) {
  if (golden.size() != actual.size()) {
    return "digest count mismatch: golden has " +
           std::to_string(golden.size()) + ", actual has " +
           std::to_string(actual.size());
  }
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const ResultDigest& g = golden[i];
    const ResultDigest& a = actual[i];
    if (g == a) continue;
    std::string out = "digest mismatch at entry " + std::to_string(i) + " (" +
                      g.origin_code + ", trial " + std::to_string(g.trial) +
                      ", " + std::string(proto::name_of(g.protocol)) + "):";
    if (g.origin_code != a.origin_code || g.trial != a.trial ||
        g.protocol != a.protocol) {
      out += " identity differs (actual: " + a.origin_code + ", trial " +
             std::to_string(a.trial) + ", " +
             std::string(proto::name_of(a.protocol)) + ")";
      return out;
    }
    if (g.record_count != a.record_count) {
      out += " records " + std::to_string(g.record_count) + " -> " +
             std::to_string(a.record_count);
    }
    if (g.completed != a.completed) {
      out += " completed " + std::to_string(g.completed) + " -> " +
             std::to_string(a.completed);
    }
    if (g.synacks != a.synacks) {
      out += " synacks " + std::to_string(g.synacks) + " -> " +
             std::to_string(a.synacks);
    }
    if (g.record_sha256 != a.record_sha256) out += " record_sha256 differs";
    if (g.banner_sha256 != a.banner_sha256) out += " banner_sha256 differs";
    return out;
  }
  return std::nullopt;
}

}  // namespace originscan::core
