// Procedural-world correctness: the direct-map/binary-search fallback
// equivalence in the address tables, the materialized-twin equivalence
// of the procedural universe, and the hot path's zero-lock invariant
// over the procedural branch.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "netbase/ipv4.h"
#include "netbase/rng.h"
#include "obsv/metrics.h"
#include "scanner/orchestrator.h"
#include "scanner/zmap.h"
#include "sim/hostgen.h"
#include "sim/internet.h"
#include "sim/procedural.h"
#include "sim/scenario.h"

namespace originscan::sim {
namespace {

// ---- Direct-map fallback equivalence --------------------------------
//
// Topology and HostTable build an O(1) direct map only when their
// populated span fits sim::kDirectMapLimit; otherwise lookups fall back
// to binary search. The two paths must be byte-equivalent: we build twin
// tables with identical content below the limit, push one twin past the
// limit (forcing its fallback path), and compare lookups everywhere.

TEST(DirectMapFallback, TopologyBinarySearchMatchesDirectMap) {
  constexpr std::uint32_t kSharedSpan = 1u << 16;

  Topology direct_map;   // stays below the limit: direct map built
  Topology fallback;     // one straddling prefix: binary search
  const AsId a0_direct = direct_map.add_as("A0", CountryCode('U', 'S'));
  const AsId a1_direct = direct_map.add_as("A1", CountryCode('D', 'E'));
  const AsId a0_fall = fallback.add_as("A0", CountryCode('U', 'S'));
  const AsId a1_fall = fallback.add_as("A1", CountryCode('D', 'E'));
  ASSERT_EQ(a0_direct, a0_fall);
  ASSERT_EQ(a1_direct, a1_fall);

  // Identical scattered /24s below the limit, alternating AS and with a
  // geo override on every third prefix.
  net::Rng rng(0xFA11BACCull);
  for (std::uint32_t block = 0; block < kSharedSpan / 256; ++block) {
    if (rng.below(3) == 0) continue;  // leave unrouted gaps
    const net::Prefix prefix(net::Ipv4Addr(block * 256u), 24);
    const AsId as = (block % 2 == 0) ? a0_direct : a1_direct;
    std::optional<CountryCode> geo;
    if (block % 3 == 0) geo = CountryCode('B', 'D');
    direct_map.add_prefix(as, prefix, geo);
    fallback.add_prefix(as, prefix, geo);
  }
  // A /24 at the direct-map limit, only in the fallback twin: a /24 is
  // 256-aligned so it cannot cross the (2^25-aligned) cap itself, but
  // the twin's *routed span* now straddles it — last + 1 > the cap, so
  // freeze() skips the direct map and every lookup binary-searches.
  const std::uint32_t straddle_first = kDirectMapLimit;
  fallback.add_prefix(a1_fall, net::Prefix(net::Ipv4Addr(straddle_first), 24));

  direct_map.freeze();
  fallback.freeze();

  // Sampled and boundary addresses over the shared span agree exactly.
  net::Rng probe_rng(0x107Cull);
  std::vector<std::uint32_t> addrs;
  for (int i = 0; i < 20000; ++i) {
    addrs.push_back(static_cast<std::uint32_t>(probe_rng.below(kSharedSpan)));
  }
  for (std::uint32_t block = 0; block < kSharedSpan / 256; ++block) {
    addrs.push_back(block * 256u);        // first of block
    addrs.push_back(block * 256u + 255);  // last of block
  }
  for (const std::uint32_t value : addrs) {
    const net::Ipv4Addr addr(value);
    EXPECT_EQ(direct_map.as_of(addr), fallback.as_of(addr)) << value;
    EXPECT_EQ(direct_map.country_of(addr).to_string(),
              fallback.country_of(addr).to_string())
        << value;
  }

  // The straddling prefix itself resolves correctly through the
  // fallback path, including both sides of the limit boundary.
  for (std::uint32_t offset = 0; offset < 256; ++offset) {
    const net::Ipv4Addr addr(straddle_first + offset);
    ASSERT_TRUE(fallback.as_of(addr).has_value()) << offset;
    EXPECT_EQ(*fallback.as_of(addr), a1_fall);
  }
  EXPECT_FALSE(fallback.as_of(net::Ipv4Addr(straddle_first - 1)).has_value());
  EXPECT_FALSE(fallback.as_of(net::Ipv4Addr(straddle_first + 256)).has_value());
}

TEST(DirectMapFallback, HostTableBinarySearchMatchesDirectMap) {
  constexpr std::uint32_t kSharedSpan = 1u << 16;

  HostTable direct_map;
  HostTable fallback;
  net::Rng rng(0xB057ull);
  std::vector<std::uint32_t> populated;
  for (std::uint32_t value = 0; value < kSharedSpan; ++value) {
    if (rng.below(5) != 0) continue;  // ~20% density
    Host host;
    host.addr = net::Ipv4Addr(value);
    host.as = 0;
    host.services = static_cast<std::uint8_t>(1u + rng.below(7));
    host.seed = net::mix_u64(0x5EEDull, value);
    host.live_percent = static_cast<std::uint8_t>(50 + rng.below(51));
    direct_map.add(host);
    fallback.add(host);
    populated.push_back(value);
  }
  // One host past the limit: fallback twin loses its direct map.
  Host far;
  far.addr = net::Ipv4Addr(kDirectMapLimit + 5);
  far.as = 0;
  far.services = 1;
  far.seed = 0xFA12ull;
  fallback.add(far);

  direct_map.freeze();
  fallback.freeze();

  net::Rng probe_rng(0xF1BDull);
  std::vector<std::uint32_t> addrs = populated;
  for (int i = 0; i < 20000; ++i) {
    addrs.push_back(static_cast<std::uint32_t>(probe_rng.below(kSharedSpan)));
  }
  for (const std::uint32_t value : addrs) {
    const Host* a = direct_map.find(net::Ipv4Addr(value));
    const Host* b = fallback.find(net::Ipv4Addr(value));
    ASSERT_EQ(a == nullptr, b == nullptr) << value;
    if (a != nullptr) {
      EXPECT_EQ(a->addr, b->addr);
      EXPECT_EQ(a->services, b->services);
      EXPECT_EQ(a->seed, b->seed);
      EXPECT_EQ(a->live_percent, b->live_percent);
    }
  }
  const Host* found_far = fallback.find(far.addr);
  ASSERT_NE(found_far, nullptr);
  EXPECT_EQ(found_far->seed, far.seed);
}

// ---- Procedural vs materialized equivalence -------------------------
//
// The load-bearing property of the procedural universe: deriving world
// state lazily from the seed produces *byte-identical* scan output to
// eagerly materializing the same state into the ordinary tables. The
// materialize_procedural knob builds that twin; any drift between the
// derivation path and the table path (host RNG stream, AS facts, block
// cache, value-host handoff) shows up as a record diff here.

struct TwinWorlds {
  World procedural;
  World materialized;
};

TwinWorlds build_twins(int bits, std::uint64_t seed) {
  TwinWorlds twins;
  ScenarioConfig config = ScenarioConfig::full_internet(bits);
  config.seed = seed;
  twins.procedural =
      build_world(config, paper_origins(config.universe_size));
  config.materialize_procedural = true;
  twins.materialized =
      build_world(config, paper_origins(config.universe_size));
  return twins;
}

TEST(ProceduralEquivalence, MaterializedTwinScansIdentically) {
  const TwinWorlds twins = build_twins(/*bits=*/20, /*seed=*/0x05CA9ull);
  ASSERT_TRUE(twins.procedural.procedural.enabled());
  ASSERT_FALSE(twins.materialized.procedural.enabled());
  // The twin materialized every routed procedural /24 into the tables.
  EXPECT_GT(twins.materialized.hosts.size(), twins.procedural.hosts.size());

  TrialContext context;
  context.trial = 0;
  context.experiment_seed = 0x05CA9ull;
  context.simultaneous_origins =
      static_cast<int>(twins.procedural.origins.size());

  PersistentState persistent_p;
  PersistentState persistent_m;
  Internet internet_p(&twins.procedural, context, &persistent_p);
  Internet internet_m(&twins.materialized, context, &persistent_m);

  const OriginId origin = twins.procedural.origin_id("US1");
  ASSERT_NE(origin, ~OriginId{0});

  scan::ScanOptions options;
  options.keep_banners = true;
  options.jobs = 2;  // also exercises the deferred lane
  const scan::ScanResult from_procedural =
      scan::run_scan(internet_p, origin, proto::Protocol::kHttp, options);
  options.jobs = 1;
  const scan::ScanResult from_materialized =
      scan::run_scan(internet_m, origin, proto::Protocol::kHttp, options);

  ASSERT_EQ(from_procedural.records.size(), from_materialized.records.size());
  EXPECT_EQ(from_procedural.records, from_materialized.records);
  EXPECT_EQ(from_procedural.banners, from_materialized.banners);
  EXPECT_EQ(from_procedural.l4_stats, from_materialized.l4_stats);
}

TEST(ProceduralEquivalence, SweepDigestInvariantAcrossJobs) {
  ScenarioConfig config = ScenarioConfig::full_internet(20);
  config.seed = 0xD16E57ull;
  const World world =
      build_world(config, paper_origins(config.universe_size));

  TrialContext context;
  context.trial = 0;
  context.experiment_seed = config.seed;
  context.simultaneous_origins = static_cast<int>(world.origins.size());
  const OriginId origin = world.origin_id("DE");
  ASSERT_NE(origin, ~OriginId{0});

  const auto sweep = [&](int jobs, obsv::MetricBlock* metrics) {
    PersistentState persistent;
    Internet internet(&world, context, &persistent);
    scan::SweepOptions options;
    options.jobs = jobs;  // 2^20 targets span four sweep windows
    options.metrics = metrics;
    return scan::run_l4_sweep(internet, origin, proto::Protocol::kHttps,
                              options);
  };

  obsv::MetricBlock serial_metrics;
  obsv::MetricBlock parallel_metrics;
  const scan::SweepResult serial = sweep(1, &serial_metrics);
  const scan::SweepResult parallel = sweep(4, &parallel_metrics);
  EXPECT_EQ(serial, parallel);
  EXPECT_GT(serial.responsive, 0u);

  // Metrics contract (docs/METRICS.md): the block-cache counters count
  // per-fetch consults, and a consecutive same-/24 run inside one
  // resolve batch shares a single consult — so the hit+miss sum depends
  // on how targets land on lanes/batches (an adjacent same-block pair
  // shares a fetch serially but splits across round-robin lanes). The
  // divergence is bounded by the number of such adjacencies, a fraction
  // of a percent of the targets in a random permutation; derivations
  // stay exactly invariant.
  using obsv::Counter;
  const std::uint64_t serial_fetches =
      serial_metrics.counter(Counter::kUniverseBlockCacheHit) +
      serial_metrics.counter(Counter::kUniverseBlockCacheMiss);
  const std::uint64_t parallel_fetches =
      parallel_metrics.counter(Counter::kUniverseBlockCacheHit) +
      parallel_metrics.counter(Counter::kUniverseBlockCacheMiss);
  EXPECT_GT(serial_fetches, 0u);
  const std::uint64_t fetch_gap = serial_fetches > parallel_fetches
                                      ? serial_fetches - parallel_fetches
                                      : parallel_fetches - serial_fetches;
  EXPECT_LE(fetch_gap, serial_fetches / 100);
  EXPECT_EQ(
      serial_metrics.counter(Counter::kUniverseProceduralDerivations),
      parallel_metrics.counter(Counter::kUniverseProceduralDerivations));
  EXPECT_GT(serial_metrics.counter(Counter::kUniverseProceduralDerivations),
            0u);
}

// The procedural resolve path must preserve the hot loop's zero-lock
// invariant: once a ProbeContext exists, resolving procedural targets
// takes the Internet's cache lock exactly zero times
// (the /24 block cache is lane-private scratch, not shared state).
TEST(ProceduralEquivalence, BlockCacheTakesNoLocks) {
  ScenarioConfig config = ScenarioConfig::full_internet(20);
  config.seed = 0x10CCull;
  const World world =
      build_world(config, paper_origins(config.universe_size));

  TrialContext context;
  context.experiment_seed = config.seed;
  PersistentState persistent;
  Internet internet(&world, context, &persistent);
  const OriginId origin = world.origin_id("US1");

  ProbeContext probe_context =
      internet.probe_context(origin, proto::Protocol::kHttp);
  const std::uint64_t locks_before = internet.cache_lock_count();

  std::uint64_t resolved = 0;
  const std::uint32_t first = 1u << 19;  // start of the procedural region
  auto batch = std::make_unique<ProbeBatch>();
  for (std::uint32_t base = first; base < first + 65536;
       base += ProbeBatch::kCapacity) {
    batch->size = ProbeBatch::kCapacity;
    for (int i = 0; i < batch->size; ++i) {
      batch->addr[i] = net::Ipv4Addr(base + static_cast<std::uint32_t>(i));
    }
    probe_context.resolve_batch(*batch);
    for (int i = 0; i < batch->size; ++i) resolved += batch->has_host[i];
  }
  EXPECT_GT(resolved, 0u);
  EXPECT_EQ(internet.cache_lock_count(), locks_before);
}

// Every probed target rides resolve_batch — the deferred rate-IDS lane
// included — so universe.batch.targets equals zmap.targets_probed at any
// --jobs. Bochum (must_exist, rate IDS on every protocol) keeps the
// deferred lane busy.
TEST(ProceduralEquivalence, BatchTargetsCountEveryProbedTarget) {
  ScenarioConfig config = ScenarioConfig::full_internet(20);
  config.seed = 0xBA7C7ull;
  const World world =
      build_world(config, paper_origins(config.universe_size));
  const AsId bochum = world.topology.find_as("Ruhr-Universitaet Bochum");
  ASSERT_NE(bochum, kNoAs);
  ASSERT_NE(world.policies.find(bochum), nullptr);
  ASSERT_TRUE(world.policies.find(bochum)->rate_ids.has_value());

  TrialContext context;
  context.experiment_seed = config.seed;
  context.simultaneous_origins = static_cast<int>(world.origins.size());
  const OriginId origin = world.origin_id("US1");
  ASSERT_NE(origin, ~OriginId{0});

  using obsv::Counter;
  for (int jobs : {1, 4}) {
    PersistentState persistent;
    Internet internet(&world, context, &persistent);
    obsv::MetricBlock metrics;
    scan::SweepOptions options;
    options.jobs = jobs;
    options.metrics = &metrics;
    const scan::SweepResult result =
        scan::run_l4_sweep(internet, origin, proto::Protocol::kHttp, options);
    EXPECT_GT(result.l4_stats.targets_probed, 0u);
    EXPECT_EQ(metrics.counter(Counter::kZmapTargetsProbed),
              result.l4_stats.targets_probed);
    EXPECT_EQ(metrics.counter(Counter::kUniverseBatchTargets),
              metrics.counter(Counter::kZmapTargetsProbed))
        << "jobs=" << jobs;
  }
}

// The lane executor against an independent serial oracle: ZMapScanner::run
// streams the whole sweep on one lane, and folding its results here must
// give exactly what run_l4_sweep reports at jobs 1 and 4 (2^20 targets
// span four sweep windows). A blocklist keeps the walk's filter busy, and
// Bochum's rate IDS, with its threshold lowered so it trips for the
// single-IP US1 origin, keeps the deferred lane busy.
TEST(ProceduralEquivalence, SweepMatchesSerialRunOracle) {
  ScenarioConfig config = ScenarioConfig::full_internet(20);
  config.seed = 0x0AC1Eull;
  World world = build_world(config, paper_origins(config.universe_size));
  const AsId bochum = world.topology.find_as("Ruhr-Universitaet Bochum");
  ASSERT_NE(bochum, kNoAs);
  ASSERT_TRUE(world.policies.edit(bochum).rate_ids.has_value());
  world.policies.edit(bochum).rate_ids->probe_threshold = 60;

  TrialContext context;
  context.trial = 1;
  context.experiment_seed = config.seed;
  context.simultaneous_origins = static_cast<int>(world.origins.size());
  const OriginId origin = world.origin_id("US1");
  ASSERT_NE(origin, ~OriginId{0});
  ASSERT_EQ(world.origins[origin].source_ips.size(), 1u);

  scan::Blocklist blocklist;
  blocklist.block("0.2.0.0/16");
  blocklist.block(net::Prefix(net::Ipv4Addr(3u << 18), 18));

  // The oracle: one scanner, configured as run_l4_sweep configures it,
  // folded by hand.
  scan::SweepResult oracle;
  obsv::MetricBlock oracle_metrics;
  {
    PersistentState persistent;
    Internet internet(&world, context, &persistent);
    scan::ZMapConfig zconfig;
    zconfig.seed = net::mix_u64(context.experiment_seed, context.trial,
                                0x5EEDAULL);
    zconfig.universe_size = world.universe_size;
    zconfig.protocol = proto::Protocol::kHttp;
    zconfig.source_ips = world.origins[origin].source_ips;
    zconfig.blocklist = blocklist;
    zconfig.metrics = &oracle_metrics;
    scan::ZMapScanner scanner(zconfig, &internet, origin);
    oracle.l4_stats = scanner.run([&oracle](const scan::L4Result& l4) {
      oracle.digest += net::mix_u64(
          l4.addr.value(),
          (static_cast<std::uint64_t>(l4.synack_mask) << 8) | l4.rst_mask,
          static_cast<std::uint32_t>(l4.probe_time.seconds()));
      ++oracle.responsive;
      if (l4.synack_mask != 0) {
        ++oracle.synack_targets;
      } else {
        ++oracle.rst_only_targets;
      }
    });
  }
  EXPECT_GT(oracle.responsive, 0u);
  EXPECT_GT(oracle.l4_stats.blocklisted_skipped, 0u);
  EXPECT_GT(oracle_metrics.counter(obsv::Counter::kSimDropsIds), 0u);

  for (int jobs : {1, 4}) {
    PersistentState persistent;
    Internet internet(&world, context, &persistent);
    scan::SweepOptions options;
    options.blocklist = blocklist;
    options.jobs = jobs;
    EXPECT_EQ(
        scan::run_l4_sweep(internet, origin, proto::Protocol::kHttp, options),
        oracle)
        << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace originscan::sim
