// Golden-trace differential harness (see core/goldens.h):
//
//  * no-fault runs must match the committed goldens byte for byte,
//  * every recoverable fault plan must be absorbed invisibly — records
//    byte-identical to the golden at --jobs 1 and --jobs 4,
//  * degrading plans must produce a structured, correctly classified
//    degradation report (never a silent pass, never a crash),
//  * a checkpointed store save under injected EIO must emit the same
//    bytes as a fault-free save,
//  * and a fault-injected outage must reproduce the Section-5.4
//    burst-outage classification end to end.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/analysis/bursts.h"
#include "core/classify.h"
#include "core/dist.h"
#include "core/goldens.h"
#include "core/store.h"
#include "tests/test_world.h"

namespace originscan::core {
namespace {

constexpr std::uint64_t kFaultSeed = 0xFA57BEEFu;

std::string golden_dir() {
  return std::string(OSN_SOURCE_DIR) + "/tests/goldens";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing " << path << " (run tools/goldens --update)";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

GoldenFile load_golden_digests(const std::string& scenario) {
  auto golden = GoldenFile::from_json(read_file(golden_dir() + "/" + scenario +
                                                ".json"));
  EXPECT_TRUE(golden.has_value());
  return golden.value_or(GoldenFile{});
}

std::vector<scan::ScanResult> load_golden_records(const std::string& scenario) {
  auto results = load_results(golden_dir() + "/" + scenario + ".osnr");
  EXPECT_TRUE(results.has_value());
  return results.value_or(std::vector<scan::ScanResult>{});
}

fault::FaultInjector make_injector(std::string_view spec) {
  std::string error;
  auto plan = fault::FaultPlan::parse(spec, &error);
  EXPECT_TRUE(plan.has_value()) << spec << ": " << error;
  return fault::FaultInjector(plan.value_or(fault::FaultPlan{}), kFaultSeed);
}

// ------------------------------------------------- golden regression ----

TEST(GoldenRegression, CleanSmallMatchesCommittedDigests) {
  const auto golden = load_golden_digests("clean_small");
  const auto results = run_golden_scenario("clean_small");
  const auto mismatch = compare_digests(golden.digests, digest_all(results));
  EXPECT_FALSE(mismatch.has_value()) << *mismatch;
  // The committed full records must agree with the digests' view.
  const auto report = compare_results(load_golden_records("clean_small"),
                                      results);
  EXPECT_TRUE(report.identical()) << report.summary();
}

TEST(GoldenRegression, PaperSmallMatchesCommittedDigests) {
  const auto golden = load_golden_digests("paper_small");
  const auto results = run_golden_scenario("paper_small");
  const auto mismatch = compare_digests(golden.digests, digest_all(results));
  EXPECT_FALSE(mismatch.has_value()) << *mismatch;
  const auto report = compare_results(load_golden_records("paper_small"),
                                      results);
  EXPECT_TRUE(report.identical()) << report.summary();
}

TEST(GoldenRegression, DigestJsonRoundTrips) {
  for (const char* scenario : {"clean_small", "paper_small"}) {
    const auto golden = load_golden_digests(scenario);
    ASSERT_FALSE(golden.digests.empty());
    const auto reparsed = GoldenFile::from_json(golden.to_json());
    ASSERT_TRUE(reparsed.has_value()) << scenario;
    EXPECT_EQ(golden, *reparsed) << scenario;
  }
}

// The committed goldens also gate the distributed runtime: the
// grid-shaped scenario re-run under a 2-worker master must match the
// digests byte for byte — multi-process distribution is not allowed to
// be a new source of divergence (core/dist.h, merge commutativity).
TEST(GoldenRegression, PaperSmallDistributedMatchesCommittedDigests) {
  const auto golden = load_golden_digests("paper_small");
  ASSERT_FALSE(golden.digests.empty());
  Experiment experiment(paper_small_config());
  DistOptions options;
  options.workers = 2;
  const RunReport report =
      run_distributed(experiment, nullptr, SupervisorPolicy{}, options);
  EXPECT_TRUE(report.complete());
  const auto mismatch =
      compare_digests(golden.digests, digest_all(experiment.all_results()));
  EXPECT_FALSE(mismatch.has_value()) << *mismatch;
  const auto record_report = compare_results(
      load_golden_records("paper_small"), experiment.all_results());
  EXPECT_TRUE(record_report.identical()) << record_report.summary();
}

// A regression failure must name the first diverging record with its
// fields, not just report a hash mismatch.
TEST(GoldenRegression, DiffNamesFirstDivergingRecord) {
  auto golden = load_golden_records("clean_small");
  ASSERT_FALSE(golden.empty());
  auto perturbed = golden;
  ASSERT_FALSE(perturbed[0].records.empty());
  scan::ScanRecord& victim = perturbed[0].records.front();
  victim.l7 = sim::L7Outcome::kReadTimeout;
  victim.explicit_close = !victim.explicit_close;

  const auto report = compare_results(golden, perturbed);
  EXPECT_EQ(report.klass, DegradationClass::kL7Degradation);
  ASSERT_FALSE(report.divergences.empty());
  const auto& first = report.divergences.front();
  EXPECT_EQ(first.result_index, 0u);
  EXPECT_EQ(first.origin_code, golden[0].origin_code);
  // The description carries the address and the differing fields.
  EXPECT_NE(first.description.find("l7="), std::string::npos);
  EXPECT_NE(first.description.find("read-timeout"), std::string::npos);
  EXPECT_NE(report.summary().find("first divergence"), std::string::npos);

  // Digest-level comparison flags the same entry.
  const auto mismatch =
      compare_digests(digest_all(golden), digest_all(perturbed));
  ASSERT_TRUE(mismatch.has_value());
  EXPECT_NE(mismatch->find("record_sha256 differs"), std::string::npos);
}

// ------------------------------------------------- recoverable plans ----

// The tentpole invariant: every recoverable plan, at every jobs level,
// yields records byte-identical to the fault-free golden. The clean
// world is the stage on purpose — recovery must not consult any
// time/attempt-sensitive simulation state (see core/goldens.h).
TEST(DifferentialRecoverable, ByteIdenticalAcrossPlansAndJobs) {
  const auto golden = load_golden_records("clean_small");
  const auto golden_digests = load_golden_digests("clean_small");
  ASSERT_FALSE(golden.empty());

  const char* plans[] = {
      "rst:host%5==1,attempts=2",
      "banner_trunc:host%7==2,attempts=2",
      "banner_stall:host%6==3",
      "send_fail:slot=0..100000,p=0.4",
      // All four recoverable scan-layer faults at once.
      "rst:host%9==0;banner_trunc:host%9==1;banner_stall:host%9==2;"
      "send_fail:slot=0..50000,p=0.3",
  };
  for (const char* spec : plans) {
    for (int jobs : {1, 4}) {
      const auto injector = make_injector(spec);
      ASSERT_TRUE(injector.plan().recoverable()) << spec;
      const auto results = run_golden_scenario("clean_small", jobs, &injector);
      const auto report = compare_results(golden, results);
      EXPECT_TRUE(report.identical())
          << "plan \"" << spec << "\" jobs=" << jobs << "\n"
          << report.summary();
      // Digests too: the .osnr records don't carry banners, so only the
      // banner_sha256 comparison can catch a corrupted-but-parseable
      // banner sneaking through recovery.
      const auto mismatch =
          compare_digests(golden_digests.digests, digest_all(results));
      EXPECT_FALSE(mismatch.has_value())
          << "plan \"" << spec << "\" jobs=" << jobs << ": " << *mismatch;
      EXPECT_GT(injector.total_hits(), 0u)
          << "plan \"" << spec << "\" never fired — the test is vacuous";
    }
  }
}

// -------------------------------------------------- degrading plans ----

TEST(DifferentialDegrading, ProbeDropClassifiedAsL4Loss) {
  const auto golden = load_golden_records("clean_small");
  const auto injector = make_injector("drop:slot=0..2000,p=1");
  ASSERT_FALSE(injector.plan().recoverable());
  const auto results = run_golden_scenario("clean_small", 1, &injector);
  const auto report = compare_results(golden, results);
  EXPECT_EQ(report.klass, DegradationClass::kL4Loss) << report.summary();
  EXPECT_GT(report.missing_records + report.l4_diffs, 0u);
  EXPECT_EQ(report.extra_records, 0u);
  EXPECT_GT(injector.hits(fault::Point::kProbeDrop), 0u);
  // Classification is deterministic: the parallel run degrades the same
  // way, byte for byte.
  const auto parallel = run_golden_scenario("clean_small", 4, &injector);
  EXPECT_TRUE(compare_results(results, parallel).identical());
}

TEST(DifferentialDegrading, MacCorruptionClassifiedAsL4Loss) {
  const auto golden = load_golden_records("clean_small");
  const auto injector = make_injector("mac_corrupt:slot=0..1500,p=1");
  const auto results = run_golden_scenario("clean_small", 1, &injector);
  const auto report = compare_results(golden, results);
  EXPECT_EQ(report.klass, DegradationClass::kL4Loss) << report.summary();
  EXPECT_GT(injector.hits(fault::Point::kMacCorrupt), 0u);
}

TEST(DifferentialDegrading, OutageOnPaperWorldReportsDamage) {
  const auto golden = load_golden_records("paper_small");
  // Dark for a one-hour window of the 21-hour sweep.
  const auto injector = make_injector("outage:sec=3600..7200");
  const auto results = run_golden_scenario("paper_small", 1, &injector);
  const auto report = compare_results(golden, results);
  EXPECT_FALSE(report.identical());
  EXPECT_NE(report.klass, DegradationClass::kStructural) << report.summary();
  EXPECT_GT(report.missing_records + report.l4_diffs + report.l7_diffs, 0u);
  EXPECT_GT(injector.hits(fault::Point::kOutage), 0u);
  // The report must say something readable about the first loss.
  ASSERT_FALSE(report.divergences.empty());
  EXPECT_NE(report.divergences.front().description.find("record"),
            std::string::npos);
}

// ------------------------------------------- Section 5.4 reproduction ----

// A fault-injected reproduction of the paper's burst-outage mechanism:
// an injected outage window behaves exactly like a real one — the hosts
// whose probes landed in the window are transiently missing, concentrated
// in adjacent hours, and the Section-5.4 classifier flags them as bursts.
TEST(FaultInjectedBursts, InjectedOutageReproducesSection54) {
  originscan::testing::MiniWorldOptions options;
  options.blocks_per_as = 8;  // 2048 hosts per AS: enough for hour series
  auto world = originscan::testing::make_mini_world(options);

  // Hours 5-7 of origin 0's 21-hour scan are dark — an origin-local
  // event, like the paper's access-network outages. The other origins
  // keep completing, so the affected hosts stay in ground truth; each
  // trial permutes targets differently, so the window hits different
  // hosts per trial and the misses classify as transient, clustered in
  // the outage hours.
  const auto injector = make_injector("outage:sec=18000..28800,origin=0");
  ExperimentConfig config;
  config.scenario.seed = world.seed;
  config.protocols = {proto::Protocol::kHttp};
  config.faults = &injector;
  Experiment experiment(config, std::move(world));
  experiment.run();

  const auto matrix = AccessMatrix::build(experiment, proto::Protocol::kHttp);
  const Classification classification(matrix);
  BurstOptions burst_options;
  burst_options.min_as_hosts = 100;
  const auto report = detect_burst_outages(classification, burst_options);

  EXPECT_GT(injector.hits(fault::Point::kOutage), 0u);
  EXPECT_GT(report.transient_loss_total, 0u);
  EXPECT_GT(report.transient_loss_in_bursts, 0u);
  // The injected window dominates transient loss: the clean mini world
  // has no other loss source, so the burst share must be high.
  EXPECT_GT(report.burst_loss_fraction(), 0.5);
  EXPECT_GT(report.ases_with_bursts, 0u);
}

}  // namespace
}  // namespace originscan::core
