#include <gtest/gtest.h>

#include <map>
#include <set>

#include "scanner/blocklist.h"
#include "scanner/orchestrator.h"
#include "scanner/zmap.h"
#include "tests/test_world.h"

namespace originscan::scan {
namespace {

using originscan::testing::MiniWorldOptions;
using originscan::testing::host_count;
using originscan::testing::make_mini_world;

sim::TrialContext context_for(const sim::World& world, int trial = 0) {
  sim::TrialContext context;
  context.trial = trial;
  context.experiment_seed = world.seed;
  context.simultaneous_origins = static_cast<int>(world.origins.size());
  return context;
}

// ------------------------------------------------------------- blocklist --

TEST(Blocklist, BlocksCidrRanges) {
  Blocklist blocklist;
  EXPECT_TRUE(blocklist.block("10.0.0.0/24"));
  EXPECT_TRUE(blocklist.block("10.0.2.5"));
  EXPECT_TRUE(blocklist.is_blocked(net::Ipv4Addr(10, 0, 0, 200)));
  EXPECT_TRUE(blocklist.is_blocked(net::Ipv4Addr(10, 0, 2, 5)));
  EXPECT_FALSE(blocklist.is_blocked(net::Ipv4Addr(10, 0, 1, 0)));
  EXPECT_EQ(blocklist.blocked_count(), 257u);
}

TEST(Blocklist, LoadsFileBody) {
  Blocklist blocklist;
  const auto added = blocklist.load(
      "# exclusions\n10.1.0.0/16\n\n  192.168.0.0/24 # lab\n");
  ASSERT_TRUE(added.has_value());
  EXPECT_EQ(*added, 2u);
  EXPECT_TRUE(blocklist.is_blocked(net::Ipv4Addr(10, 1, 200, 7)));
  EXPECT_FALSE(blocklist.load("bogus line\n").has_value());
}

TEST(Blocklist, MergeUnions) {
  Blocklist a, b;
  a.block("1.0.0.0/24");
  b.block("2.0.0.0/24");
  a.merge(b);
  EXPECT_TRUE(a.is_blocked(net::Ipv4Addr(2, 0, 0, 9)));
  EXPECT_EQ(a.blocked_count(), 512u);
}

// ------------------------------------------------------------------ zmap --

TEST(ZMap, FindsEveryHostOnCleanNetwork) {
  auto world = make_mini_world();
  sim::PersistentState persistent;
  sim::Internet internet(&world, context_for(world), &persistent);

  ZMapConfig config;
  config.seed = 77;
  config.universe_size = world.universe_size;
  config.protocol = proto::Protocol::kHttp;
  config.source_ips = world.origins[0].source_ips;

  ZMapScanner scanner(config, &internet, 0);
  std::set<std::uint32_t> seen;
  const auto stats = scanner.run([&](const L4Result& result) {
    EXPECT_EQ(result.synack_mask, 0b11);  // both probes answered
    seen.insert(result.addr.value());
  });

  EXPECT_EQ(seen.size(), host_count(world));
  EXPECT_EQ(stats.targets_probed, world.universe_size);
  EXPECT_EQ(stats.packets_sent, 2ull * world.universe_size);
  EXPECT_EQ(stats.synacks, 2ull * host_count(world));
  EXPECT_EQ(stats.validation_failures, 0u);
}

TEST(ZMap, RespectsBlocklist) {
  auto world = make_mini_world();
  sim::PersistentState persistent;
  sim::Internet internet(&world, context_for(world), &persistent);

  ZMapConfig config;
  config.seed = 77;
  config.universe_size = world.universe_size;
  config.protocol = proto::Protocol::kHttp;
  config.source_ips = world.origins[0].source_ips;
  config.blocklist.block(net::Prefix(net::Ipv4Addr(0), 24));  // first /24

  ZMapScanner scanner(config, &internet, 0);
  std::set<std::uint32_t> seen;
  const auto stats = scanner.run(
      [&](const L4Result& result) { seen.insert(result.addr.value()); });

  EXPECT_EQ(stats.blocklisted_skipped, 256u);
  for (std::uint32_t addr : seen) EXPECT_GE(addr, 256u);
}

TEST(ZMap, SpreadsSourceIpsByDestination) {
  auto world = make_mini_world();
  sim::PersistentState persistent;
  sim::Internet internet(&world, context_for(world), &persistent);

  ZMapConfig config;
  config.seed = 77;
  config.universe_size = world.universe_size;
  config.protocol = proto::Protocol::kHttp;
  config.source_ips = world.origins[2].source_ips;  // the 4-IP origin
  ASSERT_EQ(config.source_ips.size(), 4u);

  ZMapScanner scanner(config, &internet, 2);
  std::map<std::uint32_t, int> usage;
  scanner.run([&](const L4Result& result) {
    ++usage[result.source_ip.value()];
    // Stable: the same destination always maps to the same source.
    EXPECT_EQ(result.source_ip, scanner.source_ip_for(result.addr));
  });
  EXPECT_EQ(usage.size(), 4u);
  for (const auto& [ip, count] : usage) {
    EXPECT_GT(count, static_cast<int>(host_count(world)) / 8);
  }
}

TEST(ZMap, RstForClosedPortHosts) {
  MiniWorldOptions options;
  options.all_services = false;  // hosts run HTTP only
  auto world = make_mini_world(options);
  sim::PersistentState persistent;
  sim::Internet internet(&world, context_for(world), &persistent);

  ZMapConfig config;
  config.seed = 77;
  config.universe_size = world.universe_size;
  config.protocol = proto::Protocol::kSsh;  // nobody listens
  config.source_ips = world.origins[0].source_ips;

  ZMapScanner scanner(config, &internet, 0);
  std::uint64_t rst_results = 0;
  const auto stats = scanner.run([&](const L4Result& result) {
    EXPECT_EQ(result.synack_mask, 0);
    EXPECT_EQ(result.rst_mask, 0b11);
    ++rst_results;
  });
  EXPECT_EQ(rst_results, host_count(world));
  EXPECT_EQ(stats.synacks, 0u);
}

TEST(ZMap, SteadyStateSweepTakesNoCacheLocks) {
  // The "lock-free hot path" contract: once the scanner's ProbeContext
  // is built (construction may prewarm, and therefore lock), a full
  // sweep must not touch the Internet's cache mutex at all. The counter
  // covers shared and exclusive acquisitions alike, so a regression that
  // sneaks even a read lock back into the per-packet path fails here.
  auto world = make_mini_world();
  sim::PersistentState persistent;
  sim::Internet internet(&world, context_for(world), &persistent);

  ZMapConfig config;
  config.seed = 77;
  config.universe_size = world.universe_size;
  config.protocol = proto::Protocol::kHttp;
  config.source_ips = world.origins[0].source_ips;

  ZMapScanner scanner(config, &internet, 0);
  const std::uint64_t locks_after_setup = internet.cache_lock_count();

  std::uint64_t results = 0;
  const auto stats = scanner.run([&](const L4Result&) { ++results; });
  EXPECT_GT(results, 0u);
  EXPECT_GT(stats.packets_sent, 0u);
  EXPECT_EQ(internet.cache_lock_count(), locks_after_setup)
      << "per-packet path acquired the cache mutex";
}

TEST(ZMap, MetricsEnabledSweepTakesNoCacheLocks) {
  // Companion guard to SteadyStateSweepTakesNoCacheLocks: enabling the
  // observability layer must not re-introduce locking either. Metric
  // taps write into a single-writer MetricBlock with plain stores — no
  // mutex, no atomics — so the lock count stays flat with metrics on.
  auto world = make_mini_world();
  sim::PersistentState persistent;
  sim::Internet internet(&world, context_for(world), &persistent);

  obsv::MetricBlock metrics;
  ZMapConfig config;
  config.seed = 77;
  config.universe_size = world.universe_size;
  config.protocol = proto::Protocol::kHttp;
  config.source_ips = world.origins[0].source_ips;
  config.metrics = &metrics;

  ZMapScanner scanner(config, &internet, 0);
  const std::uint64_t locks_after_setup = internet.cache_lock_count();

  std::uint64_t results = 0;
  const auto stats = scanner.run([&](const L4Result&) { ++results; });
  EXPECT_GT(results, 0u);
  EXPECT_EQ(metrics.counter(obsv::Counter::kZmapProbesSent),
            stats.packets_sent);
  EXPECT_EQ(internet.cache_lock_count(), locks_after_setup)
      << "metric taps acquired the cache mutex";
}

// ----------------------------------------------------------- orchestrator --

TEST(Orchestrator, CompletesL7OnCleanNetwork) {
  auto world = make_mini_world();
  sim::PersistentState persistent;
  sim::Internet internet(&world, context_for(world), &persistent);

  for (proto::Protocol protocol : proto::kAllProtocols) {
    const auto result = run_scan(internet, 0, protocol);
    EXPECT_EQ(result.completed_count(), host_count(world))
        << proto::name_of(protocol);
  }
}

TEST(Orchestrator, KeepsBannersWhenAsked) {
  auto world = make_mini_world();
  sim::PersistentState persistent;
  sim::Internet internet(&world, context_for(world), &persistent);

  ScanOptions options;
  options.keep_banners = true;
  const auto result = run_scan(internet, 0, proto::Protocol::kSsh, options);
  ASSERT_EQ(result.banners.size(), result.records.size());
  ASSERT_FALSE(result.banners.empty());
  bool saw_openssh = false;
  for (const auto& banner : result.banners) {
    if (banner.find("OpenSSH") != std::string::npos) saw_openssh = true;
  }
  EXPECT_TRUE(saw_openssh);
}

TEST(Orchestrator, TargetPrefixRestrictsSweep) {
  auto world = make_mini_world();
  sim::PersistentState persistent;
  sim::Internet internet(&world, context_for(world), &persistent);

  ScanOptions options;
  options.target_prefix = net::Prefix(net::Ipv4Addr(256), 24);  // 2nd /24
  const auto result = run_scan(internet, 0, proto::Protocol::kHttp, options);
  EXPECT_EQ(result.records.size(), 256u);
  for (const auto& record : result.records) {
    EXPECT_TRUE(options.target_prefix->contains(record.addr));
  }
}

TEST(Orchestrator, RecordsAreSortedByAddress) {
  auto world = make_mini_world();
  sim::PersistentState persistent;
  sim::Internet internet(&world, context_for(world), &persistent);
  const auto result = run_scan(internet, 1, proto::Protocol::kHttp);
  for (std::size_t i = 1; i < result.records.size(); ++i) {
    EXPECT_LT(result.records[i - 1].addr, result.records[i].addr);
  }
}

// ------------------------------------------------------- parallel scans --

// A world that exercises every order-sensitive corner of the executor:
// bursty loss (probe outcomes depend on exact timestamps) and a rate IDS
// that trips mid-scan (counter trajectories depend on probe order).
sim::World make_adversarial_world() {
  MiniWorldOptions options;
  options.blocks_per_as = 2;  // 1536 addresses
  auto world = make_mini_world(options);

  sim::PathProfile lossy;
  lossy.good_loss = 0.02;
  lossy.bad_loss = 0.6;
  lossy.bad_fraction = 0.15;
  world.paths.set_default_profile(lossy);

  sim::RateIdsRule ids;
  ids.probe_threshold = 300;  // well below Alpha's 512 addresses x 2 probes
  world.policies.edit(world.topology.find_as("Alpha")).rate_ids = ids;
  return world;
}

ScanResult scan_with_jobs(int jobs, sim::PersistentState& persistent) {
  auto world = make_adversarial_world();
  sim::Internet internet(&world, context_for(world), &persistent);

  ScanOptions options;
  options.keep_banners = true;
  options.l7_retries = 1;
  options.probe_interval = net::VirtualTime::from_millis(500);
  options.blocklist.block(net::Prefix(net::Ipv4Addr(0, 0, 1, 0), 24));
  options.jobs = jobs;
  return run_scan(internet, 0, proto::Protocol::kHttp, options);
}

TEST(Orchestrator, ParallelScanIsBitIdenticalToSerial) {
  sim::PersistentState serial_state;
  const auto serial = scan_with_jobs(1, serial_state);
  sim::PersistentState parallel_state;
  const auto parallel = scan_with_jobs(3, parallel_state);

  ASSERT_FALSE(serial.records.empty());
  EXPECT_TRUE(serial.l4_stats == parallel.l4_stats);
  ASSERT_EQ(serial.records.size(), parallel.records.size());
  EXPECT_TRUE(serial.records == parallel.records);
  EXPECT_EQ(serial.banners, parallel.banners);

  // The IDS must have tripped (otherwise this test exercises nothing)
  // and its cross-trial state must match exactly.
  ASSERT_EQ(serial_state.ids.size(), parallel_state.ids.size());
  bool tripped = false;
  for (const auto& [as, counters] : serial_state.ids) {
    const auto it = parallel_state.ids.find(as);
    ASSERT_NE(it, parallel_state.ids.end());
    EXPECT_EQ(counters.probe_counts, it->second.probe_counts);
    EXPECT_EQ(counters.blocked_ips, it->second.blocked_ips);
    if (!counters.blocked_ips.empty()) tripped = true;
  }
  EXPECT_TRUE(tripped);
}

TEST(Orchestrator, ParallelScanHonorsTargetPrefix) {
  auto world = make_mini_world();
  sim::PersistentState persistent;
  sim::Internet internet(&world, context_for(world), &persistent);

  ScanOptions options;
  options.target_prefix = net::Prefix(net::Ipv4Addr(0, 0, 1, 0), 24);
  options.jobs = 4;
  const auto result = run_scan(internet, 0, proto::Protocol::kHttp, options);
  EXPECT_EQ(result.records.size(), 256u);
  for (const auto& record : result.records) {
    EXPECT_TRUE(options.target_prefix->contains(record.addr));
  }
}

// ------------------------------------------------- attempt histogram ----

// Pins the histogram feeding the Section-6 MaxStartups analysis: with an
// injected reset on every first attempt and a one-retry budget, every
// grab recovers its banner on the *final* retry and must land in bucket
// 1 exactly once (the double-count bug would inflate grabs_attempted
// past the number of grabbed hosts).
TEST(Orchestrator, AttemptHistogramSingleCountsFinalRetrySuccess) {
  auto world = make_mini_world();
  auto plan = fault::FaultPlan::parse("rst:host%1==0,attempts=1");
  ASSERT_TRUE(plan.has_value());
  const fault::FaultInjector injector(*plan, 0xFA57u);

  ScanOptions options;
  options.l7_retries = 1;
  options.faults = &injector;
  sim::PersistentState persistent;
  sim::Internet internet(&world, context_for(world), &persistent);
  internet.set_fault_injector(&injector);
  const auto result = run_scan(internet, 0, proto::Protocol::kHttp, options);

  std::size_t grabbed_hosts = 0;
  for (const auto& record : result.records) {
    if (record.synack_mask != 0) ++grabbed_hosts;
  }
  ASSERT_GT(grabbed_hosts, 0u);
  ASSERT_EQ(result.attempt_histogram.size(), 2u);
  EXPECT_EQ(result.attempt_histogram[0], 0u);
  EXPECT_EQ(result.attempt_histogram[1], grabbed_hosts);
  EXPECT_EQ(result.grabs_attempted(), grabbed_hosts);

  // The parallel merge sums lane histograms element-wise to the same
  // totals.
  sim::PersistentState parallel_state;
  sim::Internet parallel_net(&world, context_for(world), &parallel_state);
  parallel_net.set_fault_injector(&injector);
  options.jobs = 3;
  const auto parallel =
      run_scan(parallel_net, 0, proto::Protocol::kHttp, options);
  EXPECT_EQ(parallel.attempt_histogram, result.attempt_histogram);
  EXPECT_TRUE(parallel.records == result.records);

  // Fault-free baseline: everything completes on the first attempt.
  sim::PersistentState clean_state;
  sim::Internet clean_net(&world, context_for(world), &clean_state);
  const auto clean = run_scan(clean_net, 0, proto::Protocol::kHttp, {});
  ASSERT_EQ(clean.attempt_histogram.size(), 1u);
  EXPECT_EQ(clean.attempt_histogram[0], grabbed_hosts);
}

}  // namespace
}  // namespace originscan::scan
