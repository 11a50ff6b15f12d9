// Procedural-world correctness: sweep identity across --jobs and against
// a serial oracle, the universe.* counters, the hot path's zero-lock
// invariant over the procedural branch, and cancellation of the
// shard-lane executor. The population itself (hosts on both sides
// of the boundary) is pinned in sim_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "netbase/ipv4.h"
#include "netbase/rng.h"
#include "obsv/metrics.h"
#include "scanner/cancel.h"
#include "scanner/orchestrator.h"
#include "scanner/zmap.h"
#include "sim/internet.h"
#include "sim/procedural.h"
#include "sim/scenario.h"
#include "tests/test_world.h"

namespace originscan::sim {
namespace {

// Lane counts the sweep tests run at: serial, even, and odd ones whose
// windows are not a multiple of the lane count.
constexpr int kJobCounts[] = {1, 2, 3, 4, 5, 8};
// SweepDigestInvariantAcrossJobs' 2^20 DE/https digest.
constexpr std::uint64_t kPinnedDigest = 0x256eb68e5c210f46ull;

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
  const scan::SweepResult serial = sweep(1, &serial_metrics);
  EXPECT_GT(serial.responsive, 0u);
  // The digest is pinned, so a change that moved every jobs value alike
  // still shows. Odd lane counts leave windows of fewer than 2^18
  // positions (2^18 is no multiple of 3 or 5).
  EXPECT_EQ(serial.digest, kPinnedDigest);
  using obsv::Counter;
  EXPECT_GT(serial_metrics.counter(Counter::kUniverseProceduralDerivations),
            0u);
  // Metrics contract (docs/METRICS.md): every counter is the same at any
  // --jobs except universe.batch.batches, which counts how the lanes cut
  // their targets into resolve batches.
  for (int jobs : kJobCounts) {
    obsv::MetricBlock metrics;
    EXPECT_EQ(sweep(jobs, &metrics), serial) << "jobs=" << jobs;
    for (int c = 0; c < obsv::kCounterCount; ++c) {
      const auto counter = static_cast<Counter>(c);
      if (counter == Counter::kUniverseBatchBatches) continue;
      EXPECT_EQ(metrics.counter(counter), serial_metrics.counter(counter))
          << obsv::counter_name(counter) << " jobs=" << jobs;
    }
  }
}

// The procedural resolve path must preserve the hot loop's zero-lock
// invariant: once a ProbeContext exists, resolving procedural targets
// takes the Internet's cache lock exactly zero times (block facts are
// derived from the frozen catalog, which nothing writes).
TEST(ProceduralEquivalence, ProceduralResolveTakesNoLocks) {
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

// The reference catalog lookup: the first entry whose inclusive
// cumulative weight exceeds the draw (upper_bound over prefix sums), as
// ProceduralWorld::block_facts searched before its draw -> entry table.
// The unrouted coin and the two mixes are block_facts' own.
class ReferenceCatalog {
 public:
  ReferenceCatalog(std::uint64_t seed, std::vector<ProceduralEntry> entries)
      : seed_(seed), entries_(std::move(entries)) {
    for (const ProceduralEntry& entry : entries_) {
      total_ += entry.weight;
      cumulative_.push_back(total_);
    }
  }

  [[nodiscard]] BlockFacts block_facts(std::uint32_t block) const {
    BlockFacts facts;
    if (net::mix_u64(seed_, block, 0xB10C5u) % 100 < kUnroutedPercent) {
      return facts;
    }
    const std::uint64_t draw = net::mix_u64(seed_, block, 0xCA7Au) % total_;
    const auto it =
        std::upper_bound(cumulative_.begin(), cumulative_.end(), draw);
    const ProceduralEntry& entry = entries_[it - cumulative_.begin()];
    facts.as = entry.as;
    facts.country = entry.country;
    return facts;
  }

 private:
  static constexpr std::uint64_t kUnroutedPercent = 24;
  std::uint64_t seed_;
  std::vector<ProceduralEntry> entries_;
  std::vector<std::uint64_t> cumulative_;
  std::uint64_t total_ = 0;
};

// Every procedural block of a 2^22 paper world: 14,336 blocks above the
// override region, drawn from the full 192-entry catalog.
TEST(ProceduralCatalog, BlockFactsMatchReferenceSearch) {
  const ScenarioConfig config = ScenarioConfig::full_internet(22);
  const World world =
      build_world(config, paper_origins(config.universe_size));
  const ProceduralWorld& procedural = world.procedural;
  ASSERT_TRUE(procedural.enabled());
  ASSERT_EQ(procedural.entries().size(), 192u);
  const ReferenceCatalog reference(world.seed, procedural.entries());
  std::uint64_t routed = 0;
  for (std::uint32_t block = procedural.first_addr() >> 8;
       block < world.universe_size >> 8; ++block) {
    const BlockFacts facts = procedural.block_facts(block);
    const BlockFacts expected = reference.block_facts(block);
    ASSERT_EQ(facts.as, expected.as) << "block " << block;
    ASSERT_EQ(facts.country, expected.country) << "block " << block;
    if (facts.as != kNoAs) ++routed;
  }
  EXPECT_GT(routed, 0u);
}

// Hand-built catalogs whose edges a table off by one would get wrong:
// weight-1 entries first and last (draws 0 and total - 1), and a
// weight-40 run between them. Every entry must be drawn.
TEST(ProceduralCatalog, HandBuiltCatalogsMatchReferenceSearch) {
  const std::vector<std::vector<std::uint32_t>> catalogs = {
      {1, 40, 1}, {1, 3, 40, 2, 1}, {40}, {1, 1}};
  for (const std::vector<std::uint32_t>& weights : catalogs) {
    constexpr std::uint64_t kSeed = 0xCA7A1ull;
    constexpr std::uint32_t kBlocks = 1u << 14;
    ProceduralWorld procedural;
    procedural.configure(kSeed, 0, kBlocks * 256);
    std::vector<ProceduralEntry> entries;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      entries.push_back({static_cast<AsId>(10 + i),
                         i % 2 == 0 ? country::kUS : country::kDE,
                         weights[i]});
      procedural.add_entry(entries.back());
    }
    procedural.freeze();
    const ReferenceCatalog reference(kSeed, entries);
    std::vector<std::uint64_t> drawn(entries.size());
    for (std::uint32_t block = 0; block < kBlocks; ++block) {
      const BlockFacts facts = procedural.block_facts(block);
      const BlockFacts expected = reference.block_facts(block);
      ASSERT_EQ(facts.as, expected.as) << "block " << block;
      ASSERT_EQ(facts.country, expected.country) << "block " << block;
      if (facts.as != kNoAs) ++drawn[facts.as - 10];
    }
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_GT(drawn[i], 0u) << "entry " << i << " of " << weights.size();
    }
  }
}

// freeze() refuses a catalog its draw table cannot index (more than 256
// entries) and one that weighs nothing.
TEST(ProceduralCatalogDeathTest, FreezeRejectsUnindexableCatalogs) {
  EXPECT_DEATH(
      {
        ProceduralWorld procedural;
        procedural.configure(1, 0, 1u << 16);
        for (AsId as = 0; as < 257; ++as) {
          procedural.add_entry({as, country::kUS, 1});
        }
        procedural.freeze();
      },
      "257 catalog entries");
  EXPECT_DEATH(
      {
        ProceduralWorld procedural;
        procedural.configure(1, 0, 1u << 16);
        procedural.add_entry({0, country::kUS, 0});
        procedural.freeze();
      },
      "weighs nothing");
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

// The lane executor against an independent serial oracle: the tests' own
// permutation walk (walk_permutation, which shares no code with
// scan::walk_shards) feeds one scanner's run_scheduled the whole sweep,
// and folding its results here must give exactly what run_l4_sweep
// reports at every kJobCounts value (2^20 targets span four or more sweep
// windows). A blocklist keeps the walk's filter busy, and Bochum's rate
// IDS, with its threshold lowered so it trips for the single-IP US1
// origin, keeps the deferred lane busy.
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
  // probing the serial walk's targets, folded by hand.
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
    const testing::PermutationWalk walk = testing::walk_permutation(zconfig);
    scan::ZMapScanner scanner(zconfig, &internet, origin);
    oracle.l4_stats = scanner.run_scheduled(
        walk.targets, [&oracle](const scan::L4Result& l4) {
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
    oracle.l4_stats.blocklisted_skipped = walk.blocklisted;
  }
  EXPECT_GT(oracle.responsive, 0u);
  EXPECT_GT(oracle.l4_stats.blocklisted_skipped, 0u);
  EXPECT_GT(oracle_metrics.counter(obsv::Counter::kSimDropsIds), 0u);

  for (int jobs : kJobCounts) {
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

// run_scan restricted to a /14 of the 2^20 universe, so three positions
// in four are filtered out and the slots of the rest hinge on every
// filtered position before them. The prefix holds Bochum, whose rate IDS
// (threshold lowered as above) keeps the deferred lane busy. Records,
// stats and L7 attempts are identical at jobs 1 and 3.
TEST(ProceduralEquivalence, PrefixScanMatchesAcrossJobs) {
  ScenarioConfig config = ScenarioConfig::full_internet(20);
  config.seed = 0x9EF1ull;
  World world = build_world(config, paper_origins(config.universe_size));
  const AsId bochum = world.topology.find_as("Ruhr-Universitaet Bochum");
  ASSERT_NE(bochum, kNoAs);
  ASSERT_TRUE(world.policies.edit(bochum).rate_ids.has_value());
  world.policies.edit(bochum).rate_ids->probe_threshold = 60;
  const auto& bochum_prefixes = world.topology.as_info(bochum).prefixes;
  ASSERT_FALSE(bochum_prefixes.empty());
  const net::Prefix prefix(bochum_prefixes.front().prefix.base(), 14);

  TrialContext context;
  context.experiment_seed = config.seed;
  context.simultaneous_origins = static_cast<int>(world.origins.size());
  const OriginId origin = world.origin_id("US1");
  ASSERT_NE(origin, ~OriginId{0});

  const auto scan = [&](int jobs, obsv::MetricBlock& metrics) {
    PersistentState persistent;
    Internet internet(&world, context, &persistent);
    scan::ScanOptions options;
    options.target_prefix = prefix;
    options.jobs = jobs;
    options.metrics = &metrics;
    return scan::run_scan(internet, origin, proto::Protocol::kHttp, options);
  };
  obsv::MetricBlock serial_metrics;
  obsv::MetricBlock parallel_metrics;
  const scan::ScanResult serial = scan(1, serial_metrics);
  const scan::ScanResult parallel = scan(3, parallel_metrics);
  EXPECT_EQ(serial.l4_stats.targets_probed, prefix.size());
  EXPECT_GT(serial.records.size(), 0u);
  EXPECT_GT(serial_metrics.counter(obsv::Counter::kSimDropsIds), 0u);
  EXPECT_EQ(serial.records, parallel.records);
  EXPECT_EQ(serial.l4_stats, parallel.l4_stats);
  EXPECT_EQ(serial.attempt_histogram, parallel.attempt_histogram);
  EXPECT_EQ(serial_metrics.counter(obsv::Counter::kSimDropsIds),
            parallel_metrics.counter(obsv::Counter::kSimDropsIds));
}

// Sweeps DE/https over a 2^bits procedural world at `jobs` under `cancel`.
scan::SweepResult cancellable_sweep(int bits, int jobs,
                                    const scan::CancelToken& cancel) {
  ScenarioConfig config = ScenarioConfig::full_internet(bits);
  config.seed = 0xCA9CE1ull;
  const World world =
      build_world(config, paper_origins(config.universe_size));
  TrialContext context;
  context.experiment_seed = config.seed;
  context.simultaneous_origins = static_cast<int>(world.origins.size());
  PersistentState persistent;
  Internet internet(&world, context, &persistent);
  scan::SweepOptions options;
  options.jobs = jobs;
  options.cancel = &cancel;
  return scan::run_l4_sweep(internet, world.origin_id("DE"),
                            proto::Protocol::kHttps, options);
}

// The cancellation cases run at one lane and at four: a tripped token is
// seen at a window's completion step, and by run_scheduled's poll before
// each probe batch.
constexpr int kCancelJobs[] = {1, 4};

// A token tripped before the sweep stops it before the first window is
// probed: nothing is probed and the result is marked aborted.
TEST(ProceduralCancellation, PreTrippedTokenProbesNothing) {
  scan::CancelToken cancel;
  cancel.cancel();
  for (int jobs : kCancelJobs) {
    const scan::SweepResult result = cancellable_sweep(20, jobs, cancel);
    EXPECT_TRUE(result.aborted) << "jobs=" << jobs;
    EXPECT_EQ(result.l4_stats.targets_probed, 0u) << "jobs=" << jobs;
    EXPECT_EQ(result.responsive, 0u) << "jobs=" << jobs;
  }
}

// A token tripped from another thread while the lanes probe one window
// and walk the next (2^22 targets are 16 windows) winds the sweep down
// early: it returns, aborted, short of the universe.
TEST(ProceduralCancellation, MidSweepCancelStopsEarly) {
  for (int jobs : kCancelJobs) {
    scan::CancelToken cancel;
    std::thread canceller([&cancel] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      cancel.cancel();
    });
    const scan::SweepResult result = cancellable_sweep(22, jobs, cancel);
    canceller.join();
    EXPECT_TRUE(result.aborted) << "jobs=" << jobs;
    EXPECT_LT(result.l4_stats.targets_probed, std::uint64_t{1} << 22)
        << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace originscan::sim
