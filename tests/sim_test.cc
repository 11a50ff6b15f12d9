#include <gtest/gtest.h>

#include "netbase/byteio.h"
#include "netbase/rng.h"
#include "proto/http.h"
#include "sim/internet.h"
#include "sim/outage.h"
#include "sim/path.h"
#include "sim/scenario.h"
#include "sim/topology.h"
#include "tests/test_world.h"

namespace originscan::sim {
namespace {

using originscan::testing::MiniWorldOptions;
using originscan::testing::make_mini_world;
using originscan::testing::probe_one;

// --------------------------------------------------------------- country --

TEST(Country, PackAndFormat) {
  EXPECT_EQ(country::kUS.to_string(), "US");
  EXPECT_EQ(CountryCode::from("jp").to_string(), "jp");
  EXPECT_FALSE(CountryCode().valid());
  EXPECT_EQ(CountryCode().to_string(), "??");
  EXPECT_EQ(CountryCode::from("USA"), CountryCode());
}

// -------------------------------------------------------------- topology --

std::optional<AsId> as_at(const Topology& topology, net::Ipv4Addr addr) {
  const AsId as = topology.block_facts(addr.value() >> 8).as;
  if (as == kNoAs) return std::nullopt;
  return as;
}

CountryCode country_at(const Topology& topology, net::Ipv4Addr addr) {
  return topology.block_facts(addr.value() >> 8).country;
}

TEST(Topology, AsAndCountryLookup) {
  Topology topology;
  const AsId a = topology.add_as("Alpha", country::kUS);
  const AsId b = topology.add_as("Beta", country::kJP);
  topology.add_prefix(a, *net::Prefix::parse("10.0.0.0/24"));
  topology.add_prefix(a, *net::Prefix::parse("10.0.2.0/24"), country::kBD);
  topology.add_prefix(b, *net::Prefix::parse("10.0.1.0/24"));
  topology.freeze();

  EXPECT_EQ(as_at(topology, net::Ipv4Addr(10, 0, 0, 5)), a);
  EXPECT_EQ(as_at(topology, net::Ipv4Addr(10, 0, 1, 5)), b);
  EXPECT_EQ(as_at(topology, net::Ipv4Addr(10, 0, 2, 5)), a);
  EXPECT_FALSE(as_at(topology, net::Ipv4Addr(10, 0, 3, 5)).has_value());

  // Registration country vs prefix geolocation.
  EXPECT_EQ(topology.as_info(a).country, country::kUS);
  EXPECT_EQ(country_at(topology, net::Ipv4Addr(10, 0, 0, 5)), country::kUS);
  EXPECT_EQ(country_at(topology, net::Ipv4Addr(10, 0, 2, 5)), country::kBD);

  EXPECT_EQ(topology.find_as("Beta"), b);
  EXPECT_EQ(topology.find_as("Missing"), kNoAs);
  EXPECT_EQ(topology.as_info(a).address_count(), 512u);

  // A second world on the per-/24 table's edges: a /22 filling four
  // slots, an unrouted gap between routed blocks, a geo override, and
  // space below the first and above the last routed block.
  Topology wide;
  const AsId c = wide.add_as("Gamma", country::kDE);
  const AsId d = wide.add_as("Delta", country::kAU);
  wide.add_prefix(c, *net::Prefix::parse("0.0.4.0/22"));            // 4-7
  wide.add_prefix(d, *net::Prefix::parse("0.0.9.0/24"), country::kZA);
  wide.add_prefix(d, *net::Prefix::parse("0.0.10.0/24"));
  wide.freeze();

  struct Expect {
    std::uint32_t block;
    std::optional<AsId> as;
    CountryCode country;
  };
  const Expect expected[] = {
      {3, std::nullopt, CountryCode()},  // below the table
      {4, c, country::kDE},              {5, c, country::kDE},
      {6, c, country::kDE},              {7, c, country::kDE},
      {8, std::nullopt, CountryCode()},  // gap
      {9, d, country::kZA},              // geo override
      {10, d, country::kAU},
      {11, std::nullopt, CountryCode()},  // above the table
  };
  for (const Expect& row : expected) {
    for (const std::uint32_t offset : {0u, 1u, 128u, 255u}) {
      const net::Ipv4Addr addr(row.block * 256u + offset);
      EXPECT_EQ(as_at(wide, addr), row.as) << addr.to_string();
      EXPECT_EQ(country_at(wide, addr), row.country) << addr.to_string();
    }
  }
  EXPECT_EQ(wide.as_info(c).address_count(), 1024u);
}

TEST(TopologyDeathTest, FreezeRejectsOverlapAndSubBlockPrefixes) {
  EXPECT_DEATH(
      {
        Topology topology;
        const AsId a = topology.add_as("Alpha", country::kUS);
        const AsId b = topology.add_as("Beta", country::kJP);
        topology.add_prefix(a, *net::Prefix::parse("10.0.0.0/22"));
        topology.add_prefix(b, *net::Prefix::parse("10.0.3.0/24"));
        topology.freeze();
      },
      "overlapping prefixes");
  EXPECT_DEATH(
      {
        Topology topology;
        const AsId a = topology.add_as("Alpha", country::kUS);
        topology.add_prefix(a, *net::Prefix::parse("10.0.0.0/25"));
        topology.freeze();
      },
      "longer than /24");
}

// ------------------------------------------------------------------ host --

TEST(Host, LivenessIsDeterministicPerTrial) {
  Host host;
  host.addr = net::Ipv4Addr(1, 2, 3, 4);
  host.live_percent = 50;
  host.seed = 99;

  // Liveness is deterministic and varies across trials/seeds.
  int live = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const bool first = live_in_trial(host, trial, 7);
    EXPECT_EQ(first, live_in_trial(host, trial, 7));
    if (first) ++live;
  }
  EXPECT_GT(live, 25);
  EXPECT_LT(live, 75);
}

// ------------------------------------------------------------------ path --

// Property: the realized loss of the Gilbert-Elliott process approaches
// its configured stationary rate.
class PathLossStationary : public ::testing::TestWithParam<double> {};

TEST_P(PathLossStationary, RealizedLossMatchesStationary) {
  PathProfile profile;
  profile.good_loss = 0.001;
  profile.bad_loss = 0.95;
  profile.bad_fraction = GetParam();
  profile.mean_bad_duration_s = 60;

  const auto horizon = net::VirtualTime::from_hours(21);
  // Average over many independent timelines to tighten the estimate.
  double drops = 0;
  constexpr int kTimelines = 40;
  constexpr int kProbes = 2000;
  for (int timeline = 0; timeline < kTimelines; ++timeline) {
    PathLossModel model(profile, net::mix_u64(5, timeline), horizon);
    for (int i = 0; i < kProbes; ++i) {
      const auto t = net::VirtualTime::from_seconds(
          horizon.seconds() * (i + 0.5) / kProbes);
      if (model.drop(t, net::mix_u64(timeline, i))) drops += 1;
    }
  }
  const double realized = drops / (kTimelines * kProbes);
  EXPECT_NEAR(realized, profile.stationary_loss(),
              0.25 * profile.stationary_loss() + 0.002);
}

INSTANTIATE_TEST_SUITE_P(Fractions, PathLossStationary,
                         ::testing::Values(0.01, 0.05, 0.15, 0.4));

TEST(PathLoss, BackToBackProbesShareFate) {
  // In a lossy-bad-state world, when one of two back-to-back probes is
  // lost the other should nearly always be lost too (paper: > 93%).
  PathProfile profile;
  profile.good_loss = 0.00025;
  profile.bad_loss = 0.995;
  profile.bad_fraction = 0.01;
  profile.mean_bad_duration_s = 120;

  const auto horizon = net::VirtualTime::from_hours(21);
  std::uint64_t one_lost = 0, both_lost = 0;
  for (int timeline = 0; timeline < 30; ++timeline) {
    PathLossModel model(profile, net::mix_u64(17, timeline), horizon);
    for (int i = 0; i < 20000; ++i) {
      const auto t = net::VirtualTime::from_seconds(
          horizon.seconds() * (i + 0.5) / 20000);
      const bool drop0 = model.drop(t, net::mix_u64(i, 0, timeline));
      const bool drop1 = model.drop(t, net::mix_u64(i, 1, timeline));
      if (drop0 || drop1) {
        ++one_lost;
        if (drop0 && drop1) ++both_lost;
      }
    }
  }
  ASSERT_GT(one_lost, 100u);
  EXPECT_GT(static_cast<double>(both_lost) / static_cast<double>(one_lost),
            0.90);
}

TEST(PathLoss, ZeroFractionNeverBad) {
  PathProfile profile;
  profile.bad_fraction = 0;
  PathLossModel model(profile, 3, net::VirtualTime::from_hours(21));
  EXPECT_EQ(model.total_bad_time().micros(), 0);
}

TEST(PathTable, LayeringAndMultipliers) {
  PathTable table;
  PathProfile base;
  base.good_loss = 0.001;
  base.bad_fraction = 0.01;
  table.set_default_profile(base);

  PathProfile china = base;
  china.bad_fraction = 0.05;
  table.set_as_profile(7, china);

  PathProfile override_pair = base;
  override_pair.bad_fraction = 0.70;
  table.set_pair_override(2, 7, override_pair);

  table.set_origin_multiplier(1, 2.0);

  EXPECT_DOUBLE_EQ(table.profile(0, 3).bad_fraction, 0.01);
  EXPECT_DOUBLE_EQ(table.profile(0, 7).bad_fraction, 0.05);
  EXPECT_DOUBLE_EQ(table.profile(1, 3).bad_fraction, 0.02);   // multiplied
  EXPECT_DOUBLE_EQ(table.profile(1, 7).bad_fraction, 0.10);   // multiplied
  EXPECT_DOUBLE_EQ(table.profile(2, 7).bad_fraction, 0.70);   // pair override
  // Overrides are exact: multiplier must not stack on them.
  table.set_origin_multiplier(2, 3.0);
  EXPECT_DOUBLE_EQ(table.profile(2, 7).bad_fraction, 0.70);
}

// ---------------------------------------------------------------- outage --

TEST(Outage, ZeroRateNeverOutages) {
  OutageConfig config;
  config.pair_rate = 0;
  config.wide_event_probability = 0;
  OutageSchedule schedule(config, 0, 10, 42,
                          net::VirtualTime::from_hours(21));
  for (int as = 0; as < 10; ++as) {
    for (int hour = 0; hour < 21; ++hour) {
      EXPECT_FALSE(schedule.in_outage(static_cast<AsId>(as),
                                      net::VirtualTime::from_hours(hour)));
    }
  }
}

TEST(Outage, HighRateProducesWindows) {
  OutageConfig config;
  config.pair_rate = 3.0;
  config.wide_event_probability = 0;
  OutageSchedule schedule(config, 0, 5, 42, net::VirtualTime::from_hours(21));
  bool any = false;
  for (int as = 0; as < 5; ++as) {
    if (!schedule.pair_windows(static_cast<AsId>(as)).empty()) any = true;
  }
  EXPECT_TRUE(any);
}

TEST(Outage, WideEventHitsManyAses) {
  OutageConfig config;
  config.pair_rate = 0;
  config.wide_event_probability = 1.0;
  config.wide_event_as_fraction = 0.5;
  OutageSchedule schedule(config, 0, 400, 42,
                          net::VirtualTime::from_hours(21));
  ASSERT_TRUE(schedule.has_wide_event());
  const auto window = schedule.wide_event();
  const auto mid = net::VirtualTime::from_micros(
      (window.start_us + window.end_us) / 2);
  int affected = 0;
  for (int as = 0; as < 400; ++as) {
    if (schedule.in_outage(static_cast<AsId>(as), mid)) ++affected;
  }
  EXPECT_GT(affected, 120);
  EXPECT_LT(affected, 280);
}

// ---------------------------------------------------------------- server --

TEST(Server, SilentForMissingService) {
  // A host that does not run the protocol accepts and then says nothing.
  auto world = make_mini_world({.all_services = false});  // HTTP only
  PersistentState persistent;
  TrialContext context;
  context.experiment_seed = world.seed;
  Internet internet(&world, context, &persistent);
  Connection http;
  ASSERT_TRUE(internet.connect(http, 0, world.origins[0].source_ips[0],
                               net::Ipv4Addr(5), proto::Protocol::kHttp, {},
                               0));
  EXPECT_FALSE(http.hung());
  Connection ssh;
  ASSERT_TRUE(internet.connect(ssh, 0, world.origins[0].source_ips[0],
                               net::Ipv4Addr(5), proto::Protocol::kSsh, {},
                               0));
  EXPECT_TRUE(ssh.hung());
  EXPECT_TRUE(ssh.read().empty());
}

// -------------------------------------------------------------- internet --

TEST(Internet, ProbeLifecycle) {
  auto world = make_mini_world({.all_services = false});  // HTTP only
  PersistentState persistent;
  TrialContext context;
  context.experiment_seed = world.seed;
  Internet internet(&world, context, &persistent);

  // A host in AS Alpha: SYN-ACK on its open port, RST on a closed one.
  const net::Ipv4Addr dst(5);
  EXPECT_EQ(probe_one(internet, 0, dst), ProbeContext::Reply::kSynAck);
  EXPECT_EQ(probe_one(internet, 0, dst, proto::Protocol::kSsh),
            ProbeContext::Reply::kRst);
  // Follow-up probes take the same path.
  EXPECT_EQ(probe_one(internet, 0, dst, proto::Protocol::kHttp, {}, 1),
            ProbeContext::Reply::kSynAck);
}

TEST(Internet, SilenceForUnroutedAndAbsentHosts) {
  MiniWorldOptions options;
  options.density = 0.5;
  auto world = make_mini_world(options);
  PersistentState persistent;
  TrialContext context;
  context.experiment_seed = world.seed;
  Internet internet(&world, context, &persistent);

  EXPECT_EQ(probe_one(internet, 0, net::Ipv4Addr(world.universe_size + 5000)),
            ProbeContext::Reply::kNone);  // unrouted
  int absent = 0;
  for (std::uint32_t addr = 0; addr < world.universe_size; ++addr) {
    if (world.host_at(net::Ipv4Addr(addr))) continue;
    EXPECT_EQ(probe_one(internet, 0, net::Ipv4Addr(addr)),
              ProbeContext::Reply::kNone);
    if (++absent == 16) break;
  }
  EXPECT_EQ(absent, 16);
}

TEST(Internet, ConnectRunsHttpExchange) {
  auto world = make_mini_world();
  PersistentState persistent;
  TrialContext context;
  context.experiment_seed = world.seed;
  Internet internet(&world, context, &persistent);

  Connection connection;
  ASSERT_TRUE(internet.connect(connection, 0, world.origins[0].source_ips[0],
                               net::Ipv4Addr(5), proto::Protocol::kHttp, {},
                               0));
  EXPECT_FALSE(connection.peer_reset());

  std::vector<std::uint8_t> request;
  proto::HttpRequest{}.write(request);
  connection.send(request);
  const auto reply = net::as_text(connection.read());
  EXPECT_TRUE(reply.starts_with("HTTP/1.1"));
  EXPECT_TRUE(connection.peer_closed());
  EXPECT_TRUE(connection.read().empty());  // drained

  // The same connection object serves the next connect, from scratch.
  ASSERT_TRUE(internet.connect(connection, 0, world.origins[0].source_ips[0],
                               net::Ipv4Addr(5), proto::Protocol::kHttp, {},
                               0));
  EXPECT_FALSE(connection.peer_closed());
  EXPECT_TRUE(connection.read().empty());
  connection.send(request);
  EXPECT_EQ(net::as_text(connection.read()), reply);
}

TEST(Internet, SshServerSpeaksFirst) {
  auto world = make_mini_world();
  PersistentState persistent;
  TrialContext context;
  context.experiment_seed = world.seed;
  Internet internet(&world, context, &persistent);

  Connection connection;
  ASSERT_TRUE(internet.connect(connection, 0, world.origins[0].source_ips[0],
                               net::Ipv4Addr(5), proto::Protocol::kSsh, {},
                               0));
  EXPECT_TRUE(net::as_text(connection.read()).starts_with("SSH-2.0-"));
}

TEST(Internet, ConnectFailsForAbsentHost) {
  MiniWorldOptions options;
  options.density = 0.5;
  auto world = make_mini_world(options);
  PersistentState persistent;
  TrialContext context;
  context.experiment_seed = world.seed;
  Internet internet(&world, context, &persistent);

  // Find an address with no host.
  net::Ipv4Addr missing;
  for (std::uint32_t addr = 0; addr < world.universe_size; ++addr) {
    if (!world.host_at(net::Ipv4Addr(addr))) {
      missing = net::Ipv4Addr(addr);
      break;
    }
  }
  Connection connection;
  EXPECT_FALSE(internet.connect(connection, 0, world.origins[0].source_ips[0],
                                missing, proto::Protocol::kHttp, {}, 0));
}

// ---------------------------------------------------------------- policy --

TEST(Policy, StaticL4BlockDropsProbes) {
  auto world = make_mini_world();
  const AsId alpha = world.topology.find_as("Alpha");
  BlockRule rule;
  rule.origins = origin_bit(0);
  rule.mode = BlockMode::kL4Drop;
  world.policies.edit(alpha).blocks.push_back(rule);

  PersistentState persistent;
  TrialContext context;
  context.experiment_seed = world.seed;
  Internet internet(&world, context, &persistent);

  const net::Ipv4Addr in_alpha(5);
  EXPECT_EQ(probe_one(internet, 0, in_alpha), ProbeContext::Reply::kNone);

  // Origin 1 is unaffected.
  EXPECT_NE(probe_one(internet, 1, in_alpha), ProbeContext::Reply::kNone);

  // Another AS is unaffected for origin 0.
  EXPECT_NE(probe_one(internet, 0, net::Ipv4Addr(256 + 5)),  // in Beta
            ProbeContext::Reply::kNone);
}

TEST(Policy, RstAfterAcceptAndL7Drop) {
  auto world = make_mini_world();
  const AsId alpha = world.topology.find_as("Alpha");
  const AsId beta = world.topology.find_as("Beta");
  BlockRule rst;
  rst.origins = origin_bit(0);
  rst.mode = BlockMode::kRstAfterAccept;
  world.policies.edit(alpha).blocks.push_back(rst);
  BlockRule hang;
  hang.origins = origin_bit(0);
  hang.mode = BlockMode::kL7Drop;
  world.policies.edit(beta).blocks.push_back(hang);

  PersistentState persistent;
  TrialContext context;
  context.experiment_seed = world.seed;
  Internet internet(&world, context, &persistent);

  Connection reset_conn;
  ASSERT_TRUE(internet.connect(reset_conn, 0, world.origins[0].source_ips[0],
                               net::Ipv4Addr(5), proto::Protocol::kHttp, {},
                               0));
  EXPECT_TRUE(reset_conn.peer_reset());

  Connection hung_conn;
  ASSERT_TRUE(internet.connect(hung_conn, 0, world.origins[0].source_ips[0],
                               net::Ipv4Addr(256 + 5), proto::Protocol::kHttp,
                               {}, 0));
  EXPECT_TRUE(hung_conn.hung());
  EXPECT_TRUE(hung_conn.read().empty());
}

TEST(Policy, GeoRestrictionAllowsOnlyInCountry) {
  auto world = make_mini_world();
  const AsId beta = world.topology.find_as("Beta");  // JP
  world.policies.edit(beta).geo =
      GeoRestriction{.allowed_countries = {country::kJP},
                     .host_fraction = 1.0};

  PersistentState persistent;
  TrialContext context;
  context.experiment_seed = world.seed;
  Internet internet(&world, context, &persistent);

  // Origin 0 is US: blocked. Origin 1 is JP: allowed.
  const net::Ipv4Addr in_beta(256 + 5);
  EXPECT_EQ(probe_one(internet, 0, in_beta), ProbeContext::Reply::kNone);
  EXPECT_NE(probe_one(internet, 1, in_beta), ProbeContext::Reply::kNone);
}

TEST(Policy, RateIdsTripsAndPersists) {
  auto world = make_mini_world();
  const AsId alpha = world.topology.find_as("Alpha");
  RateIdsRule ids;
  ids.probe_threshold = 10;
  world.policies.edit(alpha).rate_ids = ids;

  PersistentState persistent;
  TrialContext context;
  context.experiment_seed = world.seed;

  {
    Internet internet(&world, context, &persistent);
    int answered = 0;
    for (int i = 0; i < 30; ++i) {
      const net::Ipv4Addr dst(static_cast<std::uint32_t>(i % 200));
      if (probe_one(internet, 0, dst) != ProbeContext::Reply::kNone) {
        ++answered;
      }
    }
    EXPECT_LE(answered, 10);
    EXPECT_GE(answered, 8);  // first probes must get through
  }

  // Next trial: the block persists from probe one.
  context.trial = 1;
  Internet internet(&world, context, &persistent);
  EXPECT_EQ(probe_one(internet, 0, net::Ipv4Addr(3)),
            ProbeContext::Reply::kNone);

  // A different source IP (origin 1) is not blocked.
  EXPECT_NE(probe_one(internet, 1, net::Ipv4Addr(3)),
            ProbeContext::Reply::kNone);
}

TEST(Policy, TemporalRstKicksInMidScan) {
  auto world = make_mini_world();
  const AsId gamma = world.topology.find_as("Gamma");
  TemporalRstRule rule;
  rule.min_detect_fraction = 0.5;
  rule.max_detect_fraction = 0.5;  // exactly mid-scan
  world.policies.edit(gamma).temporal_rst = rule;

  PersistentState persistent;
  TrialContext context;
  context.experiment_seed = world.seed;
  context.scan_duration = net::VirtualTime::from_hours(20);
  Internet internet(&world, context, &persistent);

  const net::Ipv4Addr dst(512 + 5);  // in Gamma
  const auto early = net::VirtualTime::from_hours(2);
  const auto late = net::VirtualTime::from_hours(18);

  Connection conn_early;
  ASSERT_TRUE(internet.connect(conn_early, 0,
                               world.origins[0].source_ips[0], dst,
                               proto::Protocol::kSsh, early, 0));
  EXPECT_FALSE(conn_early.peer_reset());

  Connection conn_late;
  ASSERT_TRUE(internet.connect(conn_late, 0,
                               world.origins[0].source_ips[0], dst,
                               proto::Protocol::kSsh, late, 0));
  EXPECT_TRUE(conn_late.peer_reset());

  // HTTP is unaffected (the rule is SSH-specific).
  Connection http_late;
  ASSERT_TRUE(internet.connect(http_late, 0,
                               world.origins[0].source_ips[0], dst,
                               proto::Protocol::kHttp, late, 0));
  EXPECT_FALSE(http_late.peer_reset());

  // Multi-IP origins are not detected (single_ip_only).
  Connection multi_late;
  ASSERT_TRUE(internet.connect(multi_late, 2,
                               world.origins[2].source_ips[0], dst,
                               proto::Protocol::kSsh, late, 0));
  EXPECT_FALSE(multi_late.peer_reset());
}

TEST(Policy, BlockRuleStartTrialPhaseIn) {
  auto world = make_mini_world();
  const AsId alpha = world.topology.find_as("Alpha");
  BlockRule rule;
  rule.origins = origin_bit(0);
  rule.mode = BlockMode::kL4Drop;
  rule.start_trial = 2;
  world.policies.edit(alpha).blocks.push_back(rule);

  PersistentState persistent;
  for (int trial = 0; trial < 3; ++trial) {
    TrialContext context;
    context.trial = trial;
    context.experiment_seed = world.seed;
    Internet internet(&world, context, &persistent);
    const bool answered =
        probe_one(internet, 0, net::Ipv4Addr(5)) != ProbeContext::Reply::kNone;
    EXPECT_EQ(answered, trial < 2) << "trial " << trial;
  }
}

// --------------------------------------------------------------- scenario --

TEST(Scenario, PaperWorldBuildsAndIsConsistent) {
  ScenarioConfig config = ScenarioConfig::test_scale();
  auto world = build_world(config, paper_origins(config.universe_size));

  EXPECT_GT(world.topology.as_count(), 30u);
  EXPECT_GT(originscan::testing::host_count(world), 1000u);
  EXPECT_EQ(world.origin_id("US64"),
            static_cast<OriginId>(5));
  EXPECT_EQ(world.origins[world.origin_id("US64")].source_ips.size(), 64u);

  // Every host belongs to a routed AS matching its own record.
  for (std::uint32_t addr = 0; addr < world.universe_size; ++addr) {
    const std::optional<Host> host = world.host_at(net::Ipv4Addr(addr));
    if (!host) continue;
    EXPECT_EQ(host->addr, net::Ipv4Addr(addr));
    auto as = world.as_of(host->addr);
    ASSERT_TRUE(as.has_value());
    EXPECT_EQ(*as, host->as);
  }

  // Source IPs are outside the scanned universe.
  for (const auto& origin : world.origins) {
    for (auto ip : origin.source_ips) {
      EXPECT_GE(ip.value(), world.universe_size);
    }
  }

  // Key archetypes exist even at test scale.
  for (const char* name :
       {"DXTL Tseung Kwan O Service", "Telecom Italia", "Alibaba",
        "ABCDE Group Co.", "Ruhr-Universitaet Bochum", "WebCentral"}) {
    EXPECT_NE(world.topology.find_as(name), kNoAs) << name;
  }
}

// Population pin: the host count and an order-independent digest of
// every Host field over every address of the world, recorded once. Any
// change to how a host is derived — draw order, parameter resolution,
// which AS an address lands in — moves one of the two numbers.
struct Population {
  std::uint64_t hosts = 0;
  std::uint64_t digest = 0;
};

Population population_of(const World& world) {
  Population population;
  for (std::uint32_t addr = 0; addr < world.universe_size; ++addr) {
    const std::optional<Host> host = world.host_at(net::Ipv4Addr(addr));
    if (!host) continue;
    ++population.hosts;
    const std::uint64_t flags =
        std::uint64_t{host->services} | std::uint64_t{host->middlebox} << 8 |
        std::uint64_t{host->maxstartups_enabled} << 9 |
        std::uint64_t{host->flaky} << 10 |
        std::uint64_t{host->live_percent} << 16;
    const std::uint64_t triple =
        static_cast<std::uint64_t>(host->maxstartups.start) |
        static_cast<std::uint64_t>(host->maxstartups.rate) << 16 |
        static_cast<std::uint64_t>(host->maxstartups.full) << 32;
    population.digest += net::mix_u64(
        net::mix_u64(host->addr.value(), host->as, flags, triple),
        host->seed);
  }
  return population;
}

TEST(Scenario, PopulationPinnedAtPaperScale) {
  ScenarioConfig config = ScenarioConfig::paper_default();
  config.universe_size = 1u << 16;
  const World world = build_world(config, paper_origins(config.universe_size));
  const Population population = population_of(world);
  EXPECT_EQ(population.hosts, 20980u);
  EXPECT_EQ(population.digest, 12200740207537439454ull);
}

// 2^20 straddles the 2^19 procedural boundary: the override region
// below it and the catalog-derived space above it.
TEST(Scenario, PopulationPinnedAcrossProceduralBoundary) {
  const ScenarioConfig config = ScenarioConfig::full_internet(20);
  const World world = build_world(config, paper_origins(config.universe_size));
  const Population population = population_of(world);
  EXPECT_EQ(population.hosts, 303006u);
  EXPECT_EQ(population.digest, 4413117884122688734ull);
}

TEST(Scenario, MaskHelpers) {
  const auto origins = paper_origins(1 << 16);
  EXPECT_EQ(mask_of(origins, {"AU"}), 1u);
  EXPECT_EQ(mask_of(origins, {"AU", "CEN"}), 0b1000001u);
  EXPECT_EQ(mask_of(origins, {"NOPE"}), 0u);
  EXPECT_EQ(mask_all_except(origins, {"AU"}), 0b1111110u);
}

TEST(Scenario, SameSeedSameWorld) {
  ScenarioConfig config = ScenarioConfig::test_scale();
  auto a = build_world(config, paper_origins(config.universe_size));
  auto b = build_world(config, paper_origins(config.universe_size));
  ASSERT_EQ(a.topology.as_count(), b.topology.as_count());
  for (std::uint32_t addr = 0; addr < a.universe_size; ++addr) {
    const std::optional<Host> host_a = a.host_at(net::Ipv4Addr(addr));
    const std::optional<Host> host_b = b.host_at(net::Ipv4Addr(addr));
    ASSERT_EQ(host_a.has_value(), host_b.has_value()) << addr;
    if (host_a) {
      EXPECT_EQ(host_a->services, host_b->services) << addr;
    }
  }
}

}  // namespace
}  // namespace originscan::sim
