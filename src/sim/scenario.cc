#include "sim/scenario.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "netbase/rng.h"
#include "sim/hostgen.h"

namespace originscan::sim {
namespace {

using net::Ipv4Addr;
using net::Prefix;
using net::Rng;

// ------------------------------------------------------------- origins --

OriginSpec make_origin(std::string code, std::string name, CountryCode country,
                       OriginKind kind, Ipv4Addr first_source_ip, int ip_count,
                       double reputation, double loss_multiplier) {
  OriginSpec spec;
  spec.code = std::move(code);
  spec.display_name = std::move(name);
  spec.country = country;
  spec.kind = kind;
  for (int i = 0; i < ip_count; ++i) {
    spec.source_ips.emplace_back(first_source_ip.value() +
                                 static_cast<std::uint32_t>(i));
  }
  spec.scan_reputation = reputation;
  spec.loss_multiplier = loss_multiplier;
  return spec;
}

// Source blocks sit in their own /24s just above the universe.
Ipv4Addr source_block(std::uint32_t universe_size, int index) {
  return Ipv4Addr(universe_size + 256u * static_cast<std::uint32_t>(index) +
                  10u);
}

// ---------------------------------------------------------- AS catalog --

struct ProfileTag {
  // Identifiers for the path profile classes used below.
  enum Kind {
    kStandard,
    kChina,        // lossy and unstable (Zhu et al. bottleneck)
    kFlipProne,    // long Bad periods: best origin flips to worst
    kWildVariance, // very long Bad periods, high fraction (ABCDE archetype)
  };
  Kind kind = kStandard;
};

struct GeoSplit {
  double fraction = 1.0;
  CountryCode country;  // geolocation of this share of the AS's space
};

struct AsSpec {
  std::string name;
  CountryCode country;
  int blocks = 1;        // /24 count at reference scale (2048 blocks)
  double density = 0.3;  // host density inside prefixes
  ProfileTag::Kind profile = ProfileTag::kStandard;
  std::vector<GeoSplit> geo;  // empty = all space geolocates to `country`

  // Service shares; negative = use scenario defaults.
  double http = -1, https = -1, ssh = -1;

  // SSH daemon guard: share of SSH hosts with MaxStartups, and whether
  // they use the aggressive triple (5:60:30) instead of OpenSSH's
  // default (10:30:100).
  double maxstartups_share = -1;
  bool aggressive_maxstartups = false;

  bool must_exist = false;  // keep even at tiny scales
};

constexpr int kReferenceBlocks = 2048;  // the sizes below assume 2^19 space

PathProfile standard_profile() {
  // Calibrated so that (a) when one back-to-back probe is lost the other
  // nearly always is too (paper: > 93%), and (b) single-origin transient
  // loss lands near the paper's ~1.4%/trial: loss lives almost entirely
  // in Bad periods, and the Good state is nearly lossless.
  PathProfile p;
  p.good_loss = 0.0002;
  p.bad_loss = 0.9975;
  p.bad_fraction = 0.004;
  p.mean_bad_duration_s = 300;
  return p;
}

PathProfile china_profile(Rng& rng) {
  PathProfile p;
  p.good_loss = rng.uniform(0.008, 0.02);
  p.bad_loss = 0.95;
  p.bad_fraction = rng.uniform(0.015, 0.05);
  p.mean_bad_duration_s = 900;
  p.latency_ms = 230;
  return p;
}

PathProfile flip_prone_profile(Rng& rng) {
  PathProfile p;
  p.good_loss = 0.0003;
  p.bad_loss = 0.99;
  p.bad_fraction = rng.uniform(0.006, 0.016);
  p.mean_bad_duration_s = 2700;  // one Bad period dominates a trial
  return p;
}

PathProfile wild_variance_profile(Rng& rng) {
  PathProfile p;
  p.good_loss = 0.002;
  p.bad_loss = 0.97;
  p.bad_fraction = rng.uniform(0.08, 0.18);
  p.mean_bad_duration_s = 7200;
  return p;
}

// Country sampling weights, shared by the generic fill and the
// procedural catalog (roughly the routed-space distribution).
struct CountryWeight {
  CountryCode cc;
  double weight;
};
const CountryWeight kCountryWeights[] = {
    {country::kUS, 0.215}, {country::kCN, 0.09},  {country::kJP, 0.05},
    {country::kDE, 0.055}, {country::kGB, 0.045}, {country::kKR, 0.03},
    {country::kRU, 0.035}, {country::kFR, 0.035}, {country::kNL, 0.025},
    {country::kBR, 0.035}, {country::kAU, 0.02},  {country::kIT, 0.015},
    {country::kCA, 0.02},  {country::kIN, 0.02},  {country::kVN, 0.015},
    {country::kID, 0.015}, {country::kTR, 0.015}, {country::kPL, 0.015},
    {country::kES, 0.015}, {country::kSE, 0.012}, {country::kTW, 0.012},
    {country::kSG, 0.012}, {country::kTH, 0.01},  {country::kMX, 0.01},
    {country::kAR, 0.008}, {country::kCO, 0.008}, {country::kCL, 0.008},
    {country::kUA, 0.012}, {country::kRO, 0.01},  {country::kAT, 0.008},
    {country::kCZ, 0.008}, {country::kCH, 0.008}, {country::kHK, 0.01},
    {country::kZA, 0.009}, {country::kBD, 0.011}, {country::kEG, 0.006},
    {country::kNG, 0.005}, {country::kPE, 0.005}, {country::kVE, 0.004},
    {country::kEC, 0.003}, {country::kEE, 0.006}, {country::kKZ, 0.004},
    {country::kAM, 0.002}, {country::kAL, 0.002}, {country::kUY, 0.003},
};

double total_country_weight() {
  double total = 0;
  for (const auto& w : kCountryWeights) total += w.weight;
  return total;
}

CountryCode sample_country(Rng& rng, double total_weight) {
  double draw = rng.uniform() * total_weight;
  for (const auto& w : kCountryWeights) {
    draw -= w.weight;
    if (draw <= 0) return w.cc;
  }
  return country::kUS;
}

// ----------------------------------------------------------- builder ----

class Builder {
 public:
  Builder(const ScenarioConfig& config, std::vector<OriginSpec> origins)
      : config_(config), rng_(net::mix_u64(config.seed, 0xB01DE4ULL)) {
    assert(config.universe_size % 256 == 0);
    world_.seed = config.seed;
    world_.universe_size = config.universe_size;
    world_.origins = std::move(origins);
    // In procedural mode the named scenario occupies only the override
    // region; the catalog owns everything above it.
    const std::uint32_t named_span =
        config.procedural ? config.procedural_override : config.universe_size;
    assert(!config.procedural ||
           (config.procedural_override % 256 == 0 &&
            config.procedural_override <= config.universe_size));
    total_blocks_ = named_span / 256;
    scale_ = static_cast<double>(total_blocks_) / kReferenceBlocks;
    world_.paths.set_default_profile(standard_profile());
    for (OriginId i = 0; i < world_.origins.size(); ++i) {
      world_.paths.set_origin_multiplier(i,
                                         world_.origins[i].loss_multiplier);
    }
  }

  World build();

 private:
  // Number of /24 blocks actually allocated for a reference-scale size.
  // Fractional parts are resolved by a deterministic coin flip so that
  // the expected share of every archetype is preserved at any scale
  // (plain rounding would over-represent 1-block ASes below reference
  // scale: lround(0.5) keeps all of them).
  int scaled_blocks(int reference, bool must_exist) {
    const double exact = reference * scale_;
    const int base = static_cast<int>(exact);
    const double fraction = exact - base;
    int scaled = base;
    if (fraction > 0 && rng_.bernoulli(fraction)) ++scaled;
    if (scaled > 0) return scaled;
    return must_exist ? 1 : 0;
  }

  // Allocates the AS and its prefixes, and records its host parameters.
  // Returns kNoAs when the AS scales away entirely.
  AsId add(const AsSpec& spec) {
    return add_impl(spec, scaled_blocks(spec.blocks, spec.must_exist));
  }  // NOLINT(readability-make-member-function-const): draws from rng_
  AsId add_impl(const AsSpec& spec, int blocks);

  [[nodiscard]] int remaining_blocks() const {
    return static_cast<int>(total_blocks_ - next_block_);
  }

  OriginMask by_code(std::initializer_list<std::string_view> codes) const {
    return mask_of(world_.origins, codes);
  }
  OriginMask except_code(std::initializer_list<std::string_view> codes) const {
    return mask_all_except(world_.origins, codes);
  }
  OriginMask non_us() const {
    OriginMask mask = 0;
    for (OriginId i = 0; i < world_.origins.size(); ++i) {
      if (world_.origins[i].country != country::kUS) mask |= origin_bit(i);
    }
    return mask;
  }
  OriginMask country_mask(CountryCode c, bool invert) const {
    OriginMask mask = 0;
    for (OriginId i = 0; i < world_.origins.size(); ++i) {
      if ((world_.origins[i].country == c) != invert) mask |= origin_bit(i);
    }
    return mask;
  }

  void add_block_rule(AsId as, OriginMask origins, BlockMode mode,
                      double fraction = 1.0, int start_trial = 0,
                      std::optional<proto::Protocol> protocol = std::nullopt) {
    if (as == kNoAs || origins == 0) return;
    BlockRule rule;
    rule.origins = origins;
    rule.mode = mode;
    rule.host_fraction = fraction;
    rule.start_trial = start_trial;
    rule.protocol = protocol;
    world_.policies.edit(as).blocks.push_back(rule);
  }

  void add_special_ases();
  void add_generic_fill();
  void build_catalog();

  // Resolves an AS's spec (scenario defaults vs per-AS overrides, plus
  // the per-AS flaky coin) into its World::host_params entry. ASes are
  // registered in AsId order, so this appends.
  void add_host_params(AsId as, const AsSpec& spec);

  // Applies the reputation-driven blocking draws for one generic AS
  // (full-AS blocks and partial per-origin host blocks). Shared by the
  // generic fill and the procedural catalog; draws from rng_.
  void add_reputation_rules(AsId as);


  const ScenarioConfig& config_;
  World world_;
  Rng rng_;
  std::uint32_t total_blocks_ = 0;
  std::uint32_t next_block_ = 0;
  double scale_ = 1.0;
};

void Builder::add_host_params(AsId as, const AsSpec& spec) {
  assert(as == world_.host_params.size());
  HostGenParams params;
  params.density = spec.density;
  params.http = spec.http >= 0 ? spec.http : config_.http_share;
  params.https = spec.https >= 0 ? spec.https : config_.https_share;
  params.ssh = spec.ssh >= 0 ? spec.ssh : config_.ssh_share;
  params.middlebox_share = config_.middlebox_share;
  // Flakiness clusters by network: most ASes have none, a third carry
  // the whole population (so per-AS transient rates can be *identical*
  // — zero — across origins for the majority of ASes, as in Fig 9).
  const bool flaky_as = net::mix_u64(config_.seed, as, 0xF1AB5u) % 100 < 35;
  params.flaky_share = flaky_as ? config_.flaky_host_share / 0.35 : 0.0;
  params.flaky_live_percent = config_.flaky_live_percent;
  params.churny_share = config_.churny_host_share;
  params.churny_live_percent = config_.churny_live_percent;
  params.maxstartups_share = spec.maxstartups_share >= 0
                                 ? spec.maxstartups_share
                                 : config_.maxstartups_share;
  if (spec.aggressive_maxstartups) params.maxstartups = {5, 60, 30};
  world_.host_params.push_back(params);
}

AsId Builder::add_impl(const AsSpec& spec, int blocks) {
  if (blocks == 0 || remaining_blocks() < blocks) return kNoAs;

  const AsId as = world_.topology.add_as(spec.name, spec.country);

  // Carve the block count into prefixes, honouring geo splits at /24
  // granularity.
  std::vector<std::pair<int, CountryCode>> shares;
  if (spec.geo.empty()) {
    shares.emplace_back(blocks, spec.country);
  } else {
    int assigned = 0;
    for (std::size_t i = 0; i < spec.geo.size(); ++i) {
      int share = (i + 1 == spec.geo.size())
                      ? blocks - assigned
                      : static_cast<int>(std::lround(blocks *
                                                     spec.geo[i].fraction));
      share = std::clamp(share, 0, blocks - assigned);
      if (share > 0) shares.emplace_back(share, spec.geo[i].country);
      assigned += share;
    }
    if (assigned < blocks && !shares.empty()) {
      shares.back().first += blocks - assigned;
    }
  }
  for (const auto& [count, geo_country] : shares) {
    for (int i = 0; i < count; ++i) {
      const Prefix prefix(Ipv4Addr(next_block_ * 256u), 24);
      world_.topology.add_prefix(as, prefix, geo_country);
      ++next_block_;
    }
  }

  // Path profile.
  Rng profile_rng(net::mix_u64(config_.seed, as, 0x9F0F11Eu));
  switch (spec.profile) {
    case ProfileTag::kStandard:
      break;  // table default
    case ProfileTag::kChina:
      world_.paths.set_as_profile(as, china_profile(profile_rng));
      break;
    case ProfileTag::kFlipProne:
      world_.paths.set_as_profile(as, flip_prone_profile(profile_rng));
      break;
    case ProfileTag::kWildVariance:
      world_.paths.set_as_profile(as, wild_variance_profile(profile_rng));
      break;
  }

  add_host_params(as, spec);
  return as;
}

void Builder::add_special_ases() {
  namespace c = country;
  const auto kStd = ProfileTag::kStandard;
  const auto kChinaP = ProfileTag::kChina;
  const auto kFlip = ProfileTag::kFlipProne;
  const auto kWild = ProfileTag::kWildVariance;

  // ---- Censys-blocking hosting providers (Section 4.1) ----------------
  {
    AsSpec spec{.name = "DXTL Tseung Kwan O Service",
                .country = c::kHK,
                .blocks = 20,
                .density = 0.5,
                .profile = kStd,
                .geo = {{0.40, c::kHK}, {0.30, c::kBD}, {0.30, c::kZA}},
                .http = 0.95,
                .https = 0.28,
                .ssh = 0.30,
                .must_exist = true};
    const AsId as = add(spec);
    add_block_rule(as, by_code({"CEN"}), BlockMode::kL4Drop);
  }
  {
    AsSpec spec{.name = "EGI Hosting",
                .country = c::kUS,
                .blocks = 8,
                .density = 0.45,
                .http = 0.92,
                .https = 0.30,
                .ssh = 0.40,
                .maxstartups_share = 0.85,
                .aggressive_maxstartups = true,
                .must_exist = true};
    const AsId as = add(spec);
    // 90% blocked in trials 1-2; completely blocked by trial 3.
    add_block_rule(as, by_code({"CEN"}), BlockMode::kL4Drop, 0.9, 0);
    add_block_rule(as, by_code({"CEN"}), BlockMode::kL4Drop, 1.0, 2);
  }
  {
    AsSpec spec{.name = "Enzu",
                .country = c::kUS,
                .blocks = 6,
                .density = 0.45,
                .http = 0.92,
                .https = 0.30,
                .ssh = 0.25,
                .must_exist = true};
    add_block_rule(add(spec), by_code({"CEN"}), BlockMode::kL4Drop);
  }

  // ---- Italy: persistent lossy paths from Germany (Section 4.2) -------
  {
    AsSpec spec{.name = "Telecom Italia",
                .country = c::kIT,
                .blocks = 20,
                .density = 0.4,
                .must_exist = true};
    const AsId as = add(spec);
    PathProfile base;
    base.good_loss = 0.008;
    base.bad_loss = 0.92;
    base.bad_fraction = 0.14;
    base.mean_bad_duration_s = 1800;
    base.latency_ms = 120;
    world_.paths.set_as_profile(as, base);
    PathProfile from_de = base;
    from_de.good_loss = 0.02;
    from_de.bad_loss = 0.99;
    from_de.bad_fraction = 0.72;
    from_de.mean_bad_duration_s = 5400;
    PathProfile from_br;  // TIM Brasil subsidiary: clean path
    from_br.good_loss = 0.0003;
    from_br.bad_fraction = 0.001;
    from_br.latency_ms = 180;
    const OriginId de = world_.origin_id("DE");
    const OriginId br = world_.origin_id("BR");
    if (de != ~OriginId{0}) world_.paths.set_pair_override(de, as, from_de);
    if (br != ~OriginId{0}) world_.paths.set_pair_override(br, as, from_br);
    add_block_rule(as, by_code({"CEN"}), BlockMode::kL4Drop, 0.06);
  }
  {
    AsSpec spec{.name = "Telecom Italia Sparkle",
                .country = c::kIT,
                .blocks = 12,
                .density = 0.4,
                .must_exist = true};
    const AsId as = add(spec);
    PathProfile base;
    base.good_loss = 0.006;
    base.bad_loss = 0.92;
    base.bad_fraction = 0.10;
    base.mean_bad_duration_s = 1800;
    base.latency_ms = 120;
    world_.paths.set_as_profile(as, base);
    PathProfile from_de = base;
    from_de.good_loss = 0.03;
    from_de.bad_loss = 0.995;
    from_de.bad_fraction = 0.78;
    from_de.mean_bad_duration_s = 7200;
    PathProfile from_br;
    from_br.good_loss = 0.0003;
    from_br.bad_fraction = 0.001;
    from_br.latency_ms = 180;
    const OriginId de = world_.origin_id("DE");
    const OriginId br = world_.origin_id("BR");
    if (de != ~OriginId{0}) world_.paths.set_pair_override(de, as, from_de);
    if (br != ~OriginId{0}) world_.paths.set_pair_override(br, as, from_br);
  }

  // ---- Akamai: huge CDN, high absolute transient counts ---------------
  {
    AsSpec spec{.name = "Akamai",
                .country = c::kUS,
                .blocks = 30,
                .density = 0.55,
                .profile = kFlip,
                .must_exist = true};
    const AsId as = add(spec);
    const OriginId de = world_.origin_id("DE");
    if (de != ~OriginId{0}) {
      add_block_rule(as, origin_bit(de), BlockMode::kL4Drop, 0.008);
    }
  }

  // ---- China (Section 5.2, Table 3, Section 6) ------------------------
  {
    AsSpec spec{.name = "Alibaba",
                .country = c::kCN,
                .blocks = 24,
                .density = 0.45,
                .profile = kChinaP,
                .http = 0.55,
                .https = 0.4,
                .ssh = 0.6,
                .must_exist = true};
    const AsId as = add(spec);
    if (as != kNoAs) {
      world_.policies.edit(as).temporal_rst = TemporalRstRule{};
    }
  }
  {
    AsSpec spec{.name = "HZ Alibaba Advertisement",
                .country = c::kCN,
                .blocks = 20,
                .density = 0.45,
                .profile = kChinaP,
                .http = 0.6,
                .https = 0.45,
                .ssh = 0.55,
                .must_exist = true};
    const AsId as = add(spec);
    if (as != kNoAs) {
      // Biggest transient spread in Table 3: long unstable Bad periods.
      Rng r(net::mix_u64(config_.seed, as, 0xA1B2u));
      PathProfile p = china_profile(r);
      p.bad_fraction = 0.16;
      p.mean_bad_duration_s = 4800;
      world_.paths.set_as_profile(as, p);
      world_.policies.edit(as).temporal_rst = TemporalRstRule{};
    }
  }
  add({.name = "Tencent", .country = c::kCN, .blocks = 16, .density = 0.4,
       .profile = kChinaP, .must_exist = true});
  add({.name = "China Telecom", .country = c::kCN, .blocks = 40,
       .density = 0.25, .profile = kChinaP, .must_exist = true});
  add({.name = "China Unicom", .country = c::kCN, .blocks = 30,
       .density = 0.25, .profile = kChinaP});
  add({.name = "Baidu", .country = c::kCN, .blocks = 8, .density = 0.4,
       .profile = kChinaP});

  // ---- ABCDE Group: blocks US space + wild transients (Sections 4.2/5.1)
  {
    AsSpec spec{.name = "ABCDE Group Co.",
                .country = c::kHK,
                .blocks = 16,
                .density = 0.5,
                .profile = kWild,
                .must_exist = true};
    const AsId as = add(spec);
    add_block_rule(as, by_code({"US1", "US64", "BR", "CEN"}),
                   BlockMode::kL4Drop, 0.4);
  }
  {
    AsSpec spec{.name = "Psychz Networks",
                .country = c::kUS,
                .blocks = 10,
                .density = 0.45,
                .profile = kWild,
                .maxstartups_share = 0.85,
                .aggressive_maxstartups = true,
                .must_exist = true};
    add(spec);
  }

  // ---- Eastern-European hosters that block the fresh-IP origins -------
  for (const auto& [name, cc, blocks] :
       std::initializer_list<std::tuple<const char*, CountryCode, int>>{
           {"SantaPlus", c::kEE, 2},
           {"Baltic Hosting", c::kEE, 1},
           {"VolgaHost", c::kRU, 1},
           {"SibirServers", c::kRU, 1},
           {"KyivColo", c::kUA, 1},
           {"BucharestBox", c::kRO, 1}}) {
    AsSpec spec{.name = name, .country = cc, .blocks = blocks,
                .density = 0.5, .must_exist = (cc == c::kEE)};
    add_block_rule(add(spec), by_code({"BR", "JP"}), BlockMode::kL4Drop);
  }

  // ---- American niche networks (Section 4.2, Fig 5) -------------------
  // Finance/health companies that block Brazil outright.
  for (int i = 0; i < 14; ++i) {
    static constexpr const char* kNames[] = {
        "First Commerce Bancshares", "Heartland Health Net",
        "Prairie Mutual Insurance",  "Summit Medical Systems",
        "Lakeside Credit Union",     "Pinnacle Care Partners"};
    AsSpec spec{.name = std::string(kNames[i % 6]) + " " +
                        std::to_string(i / 6 + 1),
                .country = c::kUS,
                .blocks = 1,
                .density = 0.18};
    add_block_rule(add(spec), by_code({"BR"}), BlockMode::kL4Drop);
  }
  // Tegna Inc.: digital media group blocking every non-US origin.
  for (int i = 0; i < 6; ++i) {
    AsSpec spec{.name = "Tegna Station " + std::to_string(i + 1),
                .country = c::kUS,
                .blocks = 1,
                .density = 0.3};
    add_block_rule(add(spec), non_us(), BlockMode::kL4Drop);
  }
  // Government networks (40% of the full-AS Censys blocks) and consumer
  // businesses (22%, the Jack-in-the-Box pattern).
  for (int i = 0; i < 12; ++i) {
    AsSpec spec{.name = "US Federal Agency " + std::to_string(i + 1),
                .country = c::kUS,
                .blocks = 1,
                .density = 0.18};
    add_block_rule(add(spec), by_code({"CEN"}), BlockMode::kL4Drop);
  }
  for (int i = 0; i < 6; ++i) {
    static constexpr const char* kBiz[] = {
        "Jack in the Box", "Retail Chain Net", "Dine Brands Digital",
        "Parcel Logistics Co"};
    AsSpec spec{.name = std::string(kBiz[i % 4]) + (i < 4 ? "" : " 2"),
                .country = c::kUS,
                .blocks = 1,
                .density = 0.25};
    add_block_rule(add(spec), by_code({"CEN"}), BlockMode::kL4Drop);
  }

  // ---- Rate-detecting IDSes (Section 4.3) ------------------------------
  {
    AsSpec spec{.name = "Ruhr-Universitaet Bochum",
                .country = c::kDE,
                .blocks = 4,
                .density = 0.35,
                .must_exist = true};
    const AsId as = add(spec);
    if (as != kNoAs) {
      RateIdsRule ids;
      // Trips roughly two hours into the first 2-probe scan.
      ids.probe_threshold = static_cast<std::uint32_t>(
          world_.topology.as_info(as).address_count() * 2 * 2.0 / 21.0);
      world_.policies.edit(as).rate_ids = ids;
    }
  }
  {
    AsSpec spec{.name = "SK Broadband",
                .country = c::kKR,
                .blocks = 12,
                .density = 0.35,
                .ssh = 0.5,
                .must_exist = true};
    const AsId as = add(spec);
    if (as != kNoAs) {
      RateIdsRule ids;
      ids.protocol = proto::Protocol::kSsh;
      ids.probe_threshold = static_cast<std::uint32_t>(
          world_.topology.as_info(as).address_count() * 2 * 1.5 / 21.0);
      world_.policies.edit(as).rate_ids = ids;
    }
  }

  // ---- Japan: in-country-only access (Section 4.4) --------------------
  {
    AsSpec spec{.name = "Bekkoame Internet",
                .country = c::kJP,
                .blocks = 8,
                .density = 0.5,
                .http = 0.95,
                .must_exist = true};
    const AsId as = add(spec);
    if (as != kNoAs) {
      world_.policies.edit(as).geo =
          GeoRestriction{.allowed_countries = {c::kJP}, .host_fraction = 0.10};
    }
  }
  {
    AsSpec spec{.name = "NTT Communications",
                .country = c::kJP,
                .blocks = 30,
                .density = 0.4,
                .must_exist = true};
    const AsId as = add(spec);
    if (as != kNoAs) {
      world_.policies.edit(as).geo =
          GeoRestriction{.allowed_countries = {c::kJP}, .host_fraction = 0.02};
    }
  }
  add({.name = "IIJ", .country = c::kJP, .blocks = 12, .density = 0.35});
  add({.name = "SoftBank", .country = c::kJP, .blocks = 14, .density = 0.3});
  add({.name = "KDDI", .country = c::kJP, .blocks = 12, .density = 0.3});
  {
    // Registered in Japan, space geolocating to the US, JP-only access.
    AsSpec spec{.name = "Gateway Inc",
                .country = c::kJP,
                .blocks = 3,
                .density = 0.45,
                .geo = {{1.0, c::kUS}},
                .must_exist = true};
    const AsId as = add(spec);
    if (as != kNoAs) {
      world_.policies.edit(as).geo =
          GeoRestriction{.allowed_countries = {c::kJP}, .host_fraction = 0.25};
    }
  }
  for (int i = 0; i < 5; ++i) {
    AsSpec spec{.name = "JP Hosting " + std::to_string(i + 1),
                .country = c::kJP,
                .blocks = 1,
                .density = 0.4};
    const AsId as = add(spec);
    if (as != kNoAs) {
      world_.policies.edit(as).geo =
          GeoRestriction{.allowed_countries = {c::kJP}, .host_fraction = 0.06};
    }
  }

  // ---- Australia -------------------------------------------------------
  add({.name = "Telstra", .country = c::kAU, .blocks = 14, .density = 0.3});
  add({.name = "Optus", .country = c::kAU, .blocks = 10, .density = 0.3});
  add({.name = "TPG Telecom", .country = c::kAU, .blocks = 8, .density = 0.3});
  add({.name = "AARNet", .country = c::kAU, .blocks = 4, .density = 0.25});
  {
    AsSpec spec{.name = "WebCentral",
                .country = c::kAU,
                .blocks = 3,
                .density = 0.5,
                .http = 0.95,
                .must_exist = true};
    const AsId as = add(spec);
    if (as != kNoAs) {
      world_.policies.edit(as).geo =
          GeoRestriction{.allowed_countries = {c::kAU}, .host_fraction = 0.35};
    }
  }
  {
    // Cloudflare anycast misconfiguration: one quarter of this space is
    // reachable only from Australia while geolocating to Europe/US.
    AsSpec spec{.name = "Cloudflare",
                .country = c::kUS,
                .blocks = 10,
                .density = 0.6,
                .geo = {{0.30, c::kUS},
                        {0.20, c::kDE},
                        {0.20, c::kGB},
                        {0.15, c::kNL},
                        {0.15, c::kFR}},
                .must_exist = true};
    const AsId as = add(spec);
    if (as != kNoAs) {
      world_.policies.edit(as).geo =
          GeoRestriction{.allowed_countries = {c::kAU}, .host_fraction = 0.02};
    }
  }

  // ---- WA K-20: serves Brazil a "Blocked Site" page (Section 4.4) -----
  {
    AsSpec spec{.name = "WA K-20 Telecommunications",
                .country = c::kUS,
                .blocks = 4,
                .density = 0.35,
                .http = 0.95,
                .https = 0.05,
                .ssh = 0.02,
                .must_exist = true};
    const AsId as = add(spec);
    add_block_rule(as, by_code({"BR"}), BlockMode::kServeBlockPage, 1.0, 0,
                   proto::Protocol::kHttp);
    add_block_rule(as, except_code({"BR"}), BlockMode::kL7Drop);
  }

  // ---- Paths that are consistently worst from Australia (Section 5.1) -
  const OriginId au = world_.origin_id("AU");
  auto au_worst = [&](AsId as) {
    if (as == kNoAs || au == ~OriginId{0}) return;
    PathProfile p;
    p.good_loss = 0.015;
    p.bad_loss = 0.95;
    p.bad_fraction = 0.10;
    p.mean_bad_duration_s = 2400;
    p.latency_ms = 320;
    world_.paths.set_pair_override(au, as, p);
  };
  {
    AsSpec spec{.name = "Kazakhtelecom", .country = c::kKZ, .blocks = 8,
                .density = 0.3, .must_exist = true};
    au_worst(add(spec));
  }
  au_worst(add({.name = "Rostelecom", .country = c::kRU, .blocks = 20,
                .density = 0.3}));
  au_worst(add({.name = "MTS", .country = c::kRU, .blocks = 10,
                .density = 0.3}));
  add({.name = "VimpelCom", .country = c::kRU, .blocks = 8, .density = 0.3});
  au_worst(add({.name = "CenturyLink", .country = c::kUS, .blocks = 10,
                .density = 0.25}));
  au_worst(add({.name = "Frontier Communications", .country = c::kUS,
                .blocks = 8, .density = 0.25}));
  au_worst(add({.name = "Windstream", .country = c::kUS, .blocks = 6,
                .density = 0.25}));

  // ---- Large flip-prone clouds/ISPs (Section 5.1) ----------------------
  add({.name = "Amazon", .country = c::kUS, .blocks = 40, .density = 0.45,
       .profile = kFlip, .must_exist = true});
  add({.name = "Google", .country = c::kUS, .blocks = 24, .density = 0.4,
       .profile = kFlip, .must_exist = true});
  add({.name = "Microsoft", .country = c::kUS, .blocks = 20, .density = 0.4,
       .profile = kFlip});
  add({.name = "Digital Ocean", .country = c::kUS, .blocks = 16,
       .density = 0.5, .profile = kFlip, .must_exist = true});
  add({.name = "OVH", .country = c::kFR, .blocks = 14, .density = 0.5,
       .profile = kFlip});
  add({.name = "Hetzner", .country = c::kDE, .blocks = 12, .density = 0.5,
       .profile = kFlip});
  add({.name = "Comcast", .country = c::kUS, .blocks = 30, .density = 0.2});
  add({.name = "Charter", .country = c::kUS, .blocks = 20, .density = 0.2});
  add({.name = "AT&T", .country = c::kUS, .blocks = 24, .density = 0.2});
  add({.name = "Verizon", .country = c::kUS, .blocks = 20, .density = 0.2});
  add({.name = "Level3", .country = c::kUS, .blocks = 12, .density = 0.25});

  // ---- Niche-country dominant ISPs (Table 2 / Table 5) -----------------
  struct Niche {
    const char* name;
    CountryCode cc;
    int blocks;
    std::vector<std::string_view> blocked;
    double fraction;
  };
  const std::vector<Niche> niches = {
           Niche{"Telecom Argentina", c::kAR, 8, {"DE"}, 0.10},
           Niche{"CANTV", c::kVE, 5, {"DE"}, 0.08},
           Niche{"Telconet", c::kEC, 4, {"DE", "CEN", "US1"}, 0.10},
           Niche{"Armentel", c::kAM, 3, {"DE"}, 0.125},
           Niche{"Libya Telecom", c::kLY, 1, {"DE"}, 0.5},
           Niche{"LTT Libya", c::kLY, 1, {"CEN"}, 0.35},
           Niche{"Sudatel", c::kSD, 2, {"DE"}, 0.35},
           Niche{"MobiCom Mongolia", c::kMN, 2, {"CEN"}, 0.32},
           Niche{"Onatel Burkina", c::kBF, 1, {"JP", "US1", "CEN"}, 0.38},
           Niche{"Malawi Net", c::kMW, 1, {"JP", "US1", "CEN"}, 0.28},
           Niche{"Albtelecom", c::kAL, 2, {"BR", "JP"}, 0.10},
           Niche{"A1 Telekom Austria", c::kAT, 6, {"BR", "JP"}, 0.078},
  };
  for (const Niche& n : niches) {
    AsSpec spec{.name = n.name, .country = n.cc, .blocks = n.blocks,
                .density = 0.35};
    add_block_rule(add(spec), mask_of(world_.origins, n.blocked),
                   BlockMode::kL4Drop, n.fraction);
  }
  // Libya's third network, unblocked, so no single ISP dominates there.
  add({.name = "Libyan Spider", .country = c::kLY, .blocks = 1,
       .density = 0.35});
  // Bangladesh's own carriers: the country must not consist solely of
  // DXTL's announced space, or its Censys cell degenerates to 100%.
  add({.name = "Bangladesh Telecom", .country = c::kBD, .blocks = 8,
       .density = 0.3, .must_exist = true});
  add({.name = "Grameenphone", .country = c::kBD, .blocks = 4,
       .density = 0.3});
  // Sudan/CEN partial block lives on a second network.
  add_block_rule(add({.name = "Canar Telecom", .country = c::kSD, .blocks = 1,
                      .density = 0.35}),
                 by_code({"CEN"}), BlockMode::kL4Drop, 0.30);
}

void Builder::add_reputation_rules(AsId as) {
  // Reputation-driven blocking: full-AS blocks (rare, mostly Censys)
  // and partial per-origin host blocks (ordinary firewall decisions).
  for (OriginId o = 0; o < world_.origins.size(); ++o) {
    const double rep = world_.origins[o].scan_reputation;
    const double p_full = 0.0004 + 0.009 * rep * rep;
    const double p_partial = 0.006 + 0.045 * rep;
    if (rng_.bernoulli(p_full)) {
      add_block_rule(as, origin_bit(o), BlockMode::kL4Drop);
    } else if (rng_.bernoulli(p_partial)) {
      const double fraction = rng_.uniform(0.02, 0.15);
      const BlockMode mode =
          rng_.bernoulli(0.85) ? BlockMode::kL4Drop : BlockMode::kL7Drop;
      std::optional<proto::Protocol> protocol;
      if (rng_.bernoulli(0.25)) {
        protocol = proto::kAllProtocols[rng_.below(3)];
      }
      add_block_rule(as, origin_bit(o), mode, fraction, 0, protocol);
    }
  }
}

void Builder::add_generic_fill() {
  namespace c = country;
  const double total_weight = total_country_weight();

  int counter = 0;
  while (remaining_blocks() > 0) {
    const CountryCode cc = sample_country(rng_, total_weight);
    int blocks = static_cast<int>(std::lround(rng_.lognormal(1.0, 1.0)));
    blocks = std::clamp(blocks, 1, std::max(1, remaining_blocks()));
    blocks = std::min(blocks, 40);

    AsSpec spec;
    spec.name = "ISP " + cc.to_string() + "-" + std::to_string(++counter);
    spec.country = cc;
    spec.density = rng_.uniform(0.15, 0.55);
    spec.profile = cc == c::kCN ? ProfileTag::kChina
                                : (rng_.bernoulli(0.06)
                                       ? ProfileTag::kFlipProne
                                       : ProfileTag::kStandard);
    // A few networks are SSH-fragile (aggressive MaxStartups fleets).
    if (rng_.bernoulli(0.03)) {
      spec.maxstartups_share = 0.85;
      spec.aggressive_maxstartups = true;
    }
    const AsId as = add_impl(spec, blocks);
    if (as == kNoAs) break;
    add_reputation_rules(as);
  }
}

void Builder::build_catalog() {
  namespace c = country;
  // The catalog: generic AS archetypes that own the procedural space.
  // Registered as ordinary (prefix-less) ASes so path profiles, outage
  // schedules, and block policies attach through the existing engines;
  // only *stateless* policies are drawn here — rate-IDS and temporal-RST
  // rules stay confined to the override region, which is what lets the
  // parallel executor's deferred lane stay bounded at full-IPv4 scale.
  constexpr int kCatalogEntries = 192;
  const double total_weight = total_country_weight();

  world_.procedural.configure(config_.seed, config_.procedural_override,
                              config_.universe_size);
  for (int i = 0; i < kCatalogEntries; ++i) {
    const CountryCode cc = sample_country(rng_, total_weight);
    const AsId as = world_.topology.add_as(
        "Procedural " + cc.to_string() + "-" + std::to_string(i + 1), cc);

    int weight = static_cast<int>(std::lround(rng_.lognormal(1.0, 1.0)));
    weight = std::clamp(weight, 1, 40);

    AsSpec spec;
    spec.density = rng_.uniform(0.15, 0.55);
    if (rng_.bernoulli(0.03)) {
      spec.maxstartups_share = 0.85;
      spec.aggressive_maxstartups = true;
    }
    add_host_params(as, spec);

    // Same profile classes, same per-AS substream, as add_impl.
    Rng profile_rng(net::mix_u64(config_.seed, as, 0x9F0F11Eu));
    if (cc == c::kCN) {
      world_.paths.set_as_profile(as, china_profile(profile_rng));
    } else if (rng_.bernoulli(0.06)) {
      world_.paths.set_as_profile(as, flip_prone_profile(profile_rng));
    }

    add_reputation_rules(as);

    world_.procedural.add_entry(
        {as, cc, static_cast<std::uint32_t>(weight)});
  }
  world_.procedural.freeze();
}

World Builder::build() {
  world_.flaky_miss_probability = config_.flaky_miss_probability;
  add_special_ases();
  add_generic_fill();
  if (config_.procedural) build_catalog();
  world_.topology.freeze();

  // Outage configuration: Australia is burst-prone.
  world_.outages.origin_rate_multiplier.assign(world_.origins.size(), 1.0);
  for (OriginId i = 0; i < world_.origins.size(); ++i) {
    if (world_.origins[i].code == "AU") {
      world_.outages.origin_rate_multiplier[i] = 2.5;
    }
  }
  return std::move(world_);
}

}  // namespace

std::vector<OriginSpec> paper_origins(std::uint32_t universe_size) {
  namespace c = country;
  std::vector<OriginSpec> origins;
  origins.push_back(make_origin("AU", "Australia", c::kAU,
                                OriginKind::kAcademic,
                                source_block(universe_size, 0), 1, 0.30, 1.6));
  origins.push_back(make_origin("BR", "Brazil", c::kBR, OriginKind::kAcademic,
                                source_block(universe_size, 1), 1, 0.0, 1.15));
  origins.push_back(make_origin("DE", "Germany", c::kDE, OriginKind::kAcademic,
                                source_block(universe_size, 2), 1, 0.30, 1.0));
  origins.push_back(make_origin("JP", "Japan", c::kJP, OriginKind::kAcademic,
                                source_block(universe_size, 3), 1, 0.0, 1.0));
  origins.push_back(make_origin("US1", "US 1 IP", c::kUS,
                                OriginKind::kAcademic,
                                source_block(universe_size, 4), 1, 0.15, 0.9));
  origins.push_back(make_origin("US64", "US 64 IPs", c::kUS,
                                OriginKind::kAcademic,
                                source_block(universe_size, 5), 64, 0.15,
                                0.9));
  origins.push_back(make_origin("CEN", "Censys", c::kUS,
                                OriginKind::kCommercial,
                                source_block(universe_size, 6), 1, 1.0, 1.0));
  return origins;
}

std::vector<OriginSpec> paper_origins_with_carinet(
    std::uint32_t universe_size) {
  auto origins = paper_origins(universe_size);
  origins.push_back(make_origin("CAR", "Carinet", country::kUS,
                                OriginKind::kCloud,
                                source_block(universe_size, 7), 1, 0.5, 1.0));
  return origins;
}

std::vector<OriginSpec> colocated_origins(std::uint32_t universe_size) {
  namespace c = country;
  std::vector<OriginSpec> origins;
  origins.push_back(make_origin("AU", "Australia", c::kAU,
                                OriginKind::kAcademic,
                                source_block(universe_size, 0), 1, 0.30, 1.6));
  origins.push_back(make_origin("DE", "Germany", c::kDE, OriginKind::kAcademic,
                                source_block(universe_size, 2), 1, 0.30, 1.0));
  origins.push_back(make_origin("JP", "Japan", c::kJP, OriginKind::kAcademic,
                                source_block(universe_size, 3), 1, 0.0, 1.0));
  origins.push_back(make_origin("US1", "US 1 IP", c::kUS,
                                OriginKind::kAcademic,
                                source_block(universe_size, 4), 1, 0.15, 0.9));
  // Fresh address range: the DXTL/EGI/Enzu rules key on the old "CEN"
  // identity and do not follow the new block (Section 7's confirmation).
  origins.push_back(make_origin("CEN*", "Censys (new IPs)", c::kUS,
                                OriginKind::kCommercial,
                                source_block(universe_size, 8), 1, 0.10, 1.0));
  // The three colocated Tier-1s: fresh /24s, shared data center.
  OriginSpec he = make_origin("HE", "Hurricane Electric", c::kUS,
                              OriginKind::kCloud,
                              source_block(universe_size, 9), 1, 0.0, 0.98);
  he.colocation_group = 0;
  OriginSpec ntt = make_origin("NTT", "NTT America", c::kUS,
                               OriginKind::kCloud,
                               source_block(universe_size, 10), 1, 0.0, 1.0);
  ntt.colocation_group = 0;
  OriginSpec telia = make_origin("TELIA", "Telia Carrier", c::kUS,
                                 OriginKind::kCloud,
                                 source_block(universe_size, 11), 1, 0.0,
                                 1.02);
  telia.colocation_group = 0;
  origins.push_back(std::move(he));
  origins.push_back(std::move(ntt));
  origins.push_back(std::move(telia));
  return origins;
}

OriginMask mask_of(const std::vector<OriginSpec>& origins,
                   std::span<const std::string_view> codes) {
  OriginMask mask = 0;
  for (std::string_view code : codes) {
    for (std::size_t i = 0; i < origins.size(); ++i) {
      if (origins[i].code == code) mask |= origin_bit(static_cast<OriginId>(i));
    }
  }
  return mask;
}

OriginMask mask_of(const std::vector<OriginSpec>& origins,
                   std::initializer_list<std::string_view> codes) {
  return mask_of(origins, std::span<const std::string_view>(codes.begin(),
                                                            codes.size()));
}

OriginMask mask_all_except(const std::vector<OriginSpec>& origins,
                           std::initializer_list<std::string_view> codes) {
  OriginMask mask = 0;
  for (std::size_t i = 0; i < origins.size(); ++i) {
    bool excluded = false;
    for (std::string_view code : codes) {
      if (origins[i].code == code) excluded = true;
    }
    if (!excluded) mask |= origin_bit(static_cast<OriginId>(i));
  }
  return mask;
}

World build_world(const ScenarioConfig& config,
                  std::vector<OriginSpec> origins) {
  Builder builder(config, std::move(origins));
  return builder.build();
}

}  // namespace originscan::sim
