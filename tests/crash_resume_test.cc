// The crash-safety contract, end to end: a journaled run killed after
// any cell, resumed at any jobs value, is byte-identical to a run that
// was never interrupted; a hung cell is retried and recovers invisibly;
// a cell that exhausts its retry budget degrades to a labeled partial
// grid that every analysis entry point still accepts.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/access_matrix.h"
#include "core/analysis/coverage.h"
#include "core/classify.h"
#include "core/experiment.h"
#include "core/journal.h"
#include "core/store.h"
#include "faultinject/faultinject.h"
#include "netbase/sha256.h"
#include "report/export.h"
#include "tests/test_world.h"

namespace originscan::core {
namespace {

using originscan::testing::make_mini_world;
using originscan::testing::scratch_dir;

namespace fs = std::filesystem;

// A 2-trial x 1-protocol x 2-origin grid (4 cells) whose output is
// sensitive to everything resume must preserve: bursty loss makes the
// records timestamp-dependent, and a low-threshold rate IDS on Alpha
// makes trial 1 depend on trial 0's exact counter trajectory.
sim::World make_crash_world() {
  auto world = make_mini_world();
  world.origins.pop_back();  // drop FOUR: two single-IP origins remain
  sim::PathProfile lossy;
  lossy.good_loss = 0.02;
  lossy.bad_loss = 0.6;
  lossy.bad_fraction = 0.15;
  world.paths.set_default_profile(lossy);
  sim::RateIdsRule ids;
  ids.probe_threshold = 200;
  world.policies.edit(world.topology.find_as("Alpha")).rate_ids = ids;
  return world;
}

ExperimentConfig crash_config() {
  ExperimentConfig config;
  config.scenario.seed = make_mini_world().seed;
  config.protocols = {proto::Protocol::kHttp};
  config.trials = 2;
  return config;
}

constexpr std::size_t kCells = 4;  // 2 trials x 1 protocol x 2 origins

std::string sha256_of_results(const std::vector<scan::ScanResult>& results) {
  const auto bytes = serialize_results(results);
  return net::Sha256::hex(net::Sha256::of(bytes));
}

std::string golden_sha() {
  static const std::string sha = [] {
    Experiment experiment(crash_config(), make_crash_world());
    experiment.run();
    return sha256_of_results(experiment.all_results());
  }();
  return sha;
}

TEST(CrashResume, MatrixKillAfterEveryCellResumesByteIdentical) {
  for (std::size_t kill_cell = 0; kill_cell < kCells; ++kill_cell) {
    for (int resume_jobs : {1, 4}) {
      const std::string dir = scratch_dir(
          "crash_matrix_" + std::to_string(kill_cell) + "_j" +
          std::to_string(resume_jobs));

      // Phase 1: a jobs=1 run killed at cell kill_cell. Cells before it
      // land in the journal; nothing after it does.
      {
        const auto plan = fault::FaultPlan::parse(
            "cell_crash:cell=" + std::to_string(kill_cell));
        ASSERT_TRUE(plan.has_value());
        const fault::FaultInjector injector(*plan, 0xFA57BEEFULL);
        auto config = crash_config();
        config.faults = &injector;
        Experiment experiment(config, make_crash_world());
        std::string error;
        auto journal = ExperimentJournal::open(
            dir, experiment.config_fingerprint(), &error);
        ASSERT_TRUE(journal.has_value()) << error;
        const RunReport report = experiment.run_journaled(&*journal);
        EXPECT_EQ(report.status, RunReport::Status::kKilled);
        EXPECT_EQ(report.cells_run, kill_cell);
        EXPECT_FALSE(experiment.has_run());  // killed runs yield nothing
      }

      // Phase 2: resume without faults at the requested jobs value.
      auto config = crash_config();
      config.jobs = resume_jobs;
      Experiment experiment(config, make_crash_world());
      std::string error;
      auto journal = ExperimentJournal::open(
          dir, experiment.config_fingerprint(), &error);
      ASSERT_TRUE(journal.has_value()) << error;
      const RunReport report = experiment.run_journaled(&*journal);
      EXPECT_TRUE(report.complete());
      EXPECT_EQ(report.cells_adopted, kill_cell);
      EXPECT_EQ(report.cells_run, kCells - kill_cell);
      EXPECT_EQ(sha256_of_results(experiment.all_results()), golden_sha())
          << "kill_cell=" << kill_cell << " resume_jobs=" << resume_jobs;

      fs::remove_all(dir);
    }
  }
}

TEST(CrashResume, SecondResumeAdoptsEverythingAndMatches) {
  const std::string dir = scratch_dir("crash_double_resume");
  {
    Experiment experiment(crash_config(), make_crash_world());
    std::string error;
    auto journal =
        ExperimentJournal::open(dir, experiment.config_fingerprint(), &error);
    ASSERT_TRUE(journal.has_value()) << error;
    EXPECT_TRUE(experiment.run_journaled(&*journal).complete());
  }
  // A full journal re-runs nothing and reproduces the same bytes.
  Experiment experiment(crash_config(), make_crash_world());
  std::string error;
  auto journal =
      ExperimentJournal::open(dir, experiment.config_fingerprint(), &error);
  ASSERT_TRUE(journal.has_value()) << error;
  const RunReport report = experiment.run_journaled(&*journal);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.cells_adopted, kCells);
  EXPECT_EQ(report.cells_run, 0u);
  EXPECT_EQ(sha256_of_results(experiment.all_results()), golden_sha());
  fs::remove_all(dir);
}

TEST(CrashResume, SupervisorRetryRecoversInvisibly) {
  // One attempt of cell 2 stalls past the deadline; the retry succeeds.
  // The IDS rollback before the retry makes the recovery invisible:
  // output stays byte-identical to the never-faulted run.
  const auto plan =
      fault::FaultPlan::parse("cell_hang:cell=2,sec=200000,attempts=1");
  ASSERT_TRUE(plan.has_value());
  const fault::FaultInjector injector(*plan, 0xFA57BEEFULL);
  auto config = crash_config();
  config.faults = &injector;
  Experiment experiment(config, make_crash_world());
  const RunReport report = experiment.run_journaled(nullptr);
  EXPECT_TRUE(report.complete());
  EXPECT_GE(report.retries, 1u);
  EXPECT_EQ(sha256_of_results(experiment.all_results()), golden_sha());
}

TEST(CrashResume, RetryBudgetExhaustionDegradesToLabeledPartialGrid) {
  // Every attempt of cell 2 (= trial 1, origin ONE) hangs: the
  // supervisor gives up, the run completes as a partial grid, and the
  // analysis pipeline both excludes and labels the lost cell.
  const auto plan =
      fault::FaultPlan::parse("cell_hang:cell=2,sec=200000,attempts=16");
  ASSERT_TRUE(plan.has_value());
  const fault::FaultInjector injector(*plan, 0xFA57BEEFULL);

  const std::string dir = scratch_dir("crash_lost_cell");
  auto config = crash_config();
  config.faults = &injector;
  Experiment experiment(config, make_crash_world());
  std::string error;
  auto journal =
      ExperimentJournal::open(dir, experiment.config_fingerprint(), &error);
  ASSERT_TRUE(journal.has_value()) << error;
  const RunReport report = experiment.run_journaled(&*journal);
  EXPECT_EQ(report.status, RunReport::Status::kPartial);
  EXPECT_EQ(report.cells_lost, 1u);
  ASSERT_EQ(report.lost.size(), 1u);
  EXPECT_EQ(report.lost[0], (CellKey{"ONE", proto::Protocol::kHttp, 1}));
  EXPECT_FALSE(experiment.has_cell(1, proto::Protocol::kHttp, 0));
  EXPECT_TRUE(experiment.has_cell(0, proto::Protocol::kHttp, 0));

  // The analysis pipeline accepts the partial grid.
  const auto matrix = AccessMatrix::build(experiment, proto::Protocol::kHttp);
  EXPECT_TRUE(matrix.partial());
  EXPECT_FALSE(matrix.has_cell(1, 0));
  const auto coverage = compute_coverage(matrix);
  // ONE's mean averages only its surviving trial.
  EXPECT_EQ(coverage.lost_cells.size(), 1u);
  EXPECT_DOUBLE_EQ(coverage.mean_two_probe(0), coverage.two_probe[0][0]);
  const Classification classification(matrix);
  for (HostIdx h = 0; h < matrix.host_count(); ++h) {
    EXPECT_FALSE(classification.missing(1, 0, h));
  }
  const std::string csv = report::coverage_csv(coverage);
  EXPECT_NE(csv.find("# partial grid; lost cells: trial=2 origin=ONE;"),
            std::string::npos)
      << csv;

  // Resume does not resurrect the lost cell: re-running it after its
  // chain's successors would scramble the IDS ordering.
  Experiment resumed(crash_config(), make_crash_world());
  auto journal2 =
      ExperimentJournal::open(dir, resumed.config_fingerprint(), &error);
  ASSERT_TRUE(journal2.has_value()) << error;
  const RunReport report2 = resumed.run_journaled(&*journal2);
  EXPECT_EQ(report2.status, RunReport::Status::kPartial);
  EXPECT_EQ(report2.cells_adopted, kCells - 1);
  EXPECT_EQ(report2.cells_run, 0u);
  EXPECT_EQ(report2.cells_lost, 1u);
  fs::remove_all(dir);
}

TEST(CrashResume, MetricsSnapshotIdenticalAcrossJobsCounts) {
  // The determinism contract of DESIGN.md §9: the aggregate metrics
  // snapshot is a pure function of (world, config), not of the worker
  // schedule.
  auto snapshot_at = [](int jobs) {
    obsv::MetricsRegistry registry;
    auto config = crash_config();
    config.jobs = jobs;
    config.metrics = &registry;
    Experiment experiment(config, make_crash_world());
    EXPECT_TRUE(experiment.run_journaled(nullptr).complete());
    return registry.snapshot_json();
  };
  const std::string serial = snapshot_at(1);
  EXPECT_NE(serial.find("\"zmap.probes_sent\""), std::string::npos);
  EXPECT_EQ(serial, snapshot_at(4));
}

TEST(CrashResume, KilledAndResumedRunReproducesUninterruptedMetrics) {
  // Per-cell metric deltas are journaled next to the MANIFEST, so a
  // resumed run replays the adopted cells' deltas instead of their scans
  // — the final snapshot must be byte-identical to an uninterrupted
  // run's, wherever the kill landed and at any resume jobs value.
  const std::string uninterrupted = [] {
    const std::string dir = scratch_dir("metrics_uninterrupted");
    obsv::MetricsRegistry registry;
    auto config = crash_config();
    config.metrics = &registry;
    Experiment experiment(config, make_crash_world());
    std::string error;
    auto journal =
        ExperimentJournal::open(dir, experiment.config_fingerprint(), &error);
    EXPECT_TRUE(journal.has_value()) << error;
    EXPECT_TRUE(experiment.run_journaled(&*journal).complete());
    fs::remove_all(dir);
    return registry.snapshot_json();
  }();
  EXPECT_GT(uninterrupted.size(), 0u);

  for (std::size_t kill_cell = 1; kill_cell < kCells; ++kill_cell) {
    for (int resume_jobs : {1, 4}) {
      const std::string dir = scratch_dir(
          "metrics_resume_" + std::to_string(kill_cell) + "_j" +
          std::to_string(resume_jobs));
      {
        const auto plan = fault::FaultPlan::parse(
            "cell_crash:cell=" + std::to_string(kill_cell));
        ASSERT_TRUE(plan.has_value());
        const fault::FaultInjector injector(*plan, 0xFA57BEEFULL);
        obsv::MetricsRegistry killed_registry;
        auto config = crash_config();
        config.faults = &injector;
        config.metrics = &killed_registry;
        Experiment experiment(config, make_crash_world());
        std::string error;
        auto journal = ExperimentJournal::open(
            dir, experiment.config_fingerprint(), &error);
        ASSERT_TRUE(journal.has_value()) << error;
        EXPECT_EQ(experiment.run_journaled(&*journal).status,
                  RunReport::Status::kKilled);
        // The killed process still observed the crash fault point.
        EXPECT_EQ(killed_registry.snapshot().counter(
                      obsv::Counter::kFaultCellCrash),
                  1u);
      }

      obsv::MetricsRegistry registry;
      auto config = crash_config();
      config.jobs = resume_jobs;
      config.metrics = &registry;
      Experiment experiment(config, make_crash_world());
      std::string error;
      auto journal = ExperimentJournal::open(
          dir, experiment.config_fingerprint(), &error);
      ASSERT_TRUE(journal.has_value()) << error;
      EXPECT_TRUE(experiment.run_journaled(&*journal).complete());
      EXPECT_EQ(registry.snapshot_json(), uninterrupted)
          << "kill_cell=" << kill_cell << " resume_jobs=" << resume_jobs;
      fs::remove_all(dir);
    }
  }
}

TEST(CrashResume, RecoveredHangChargesCellDeltaWithRetryMetrics) {
  // A hang recovered by retry must be *visible* in the metrics (the
  // supervisor's fault tap and retry counter) while leaving the scan
  // output untouched — and because the taps land in the cell's journaled
  // delta, a resume replays them identically.
  const auto plan =
      fault::FaultPlan::parse("cell_hang:cell=2,sec=200000,attempts=1");
  ASSERT_TRUE(plan.has_value());
  const fault::FaultInjector injector(*plan, 0xFA57BEEFULL);
  const std::string dir = scratch_dir("metrics_hang_delta");

  const std::string faulted = [&] {
    obsv::MetricsRegistry registry;
    auto config = crash_config();
    config.faults = &injector;
    config.metrics = &registry;
    Experiment experiment(config, make_crash_world());
    std::string error;
    auto journal =
        ExperimentJournal::open(dir, experiment.config_fingerprint(), &error);
    EXPECT_TRUE(journal.has_value()) << error;
    EXPECT_TRUE(experiment.run_journaled(&*journal).complete());
    const auto block = registry.snapshot();
    EXPECT_EQ(block.counter(obsv::Counter::kFaultCellHang), 1u);
    EXPECT_EQ(block.counter(obsv::Counter::kSupervisorRetries), 1u);
    EXPECT_EQ(block.histogram_count(obsv::Histogram::kSupervisorBackoffMicros),
              1u);
    EXPECT_EQ(block.counter(obsv::Counter::kJournalCellsRecorded), kCells);
    EXPECT_EQ(block.counter(obsv::Counter::kJournalSegmentsFsynced),
              3u * kCells);
    return registry.snapshot_json();
  }();

  // Adopt-everything resume (no faults configured): the journaled deltas
  // carry the hang history.
  obsv::MetricsRegistry registry;
  auto config = crash_config();
  config.metrics = &registry;
  Experiment experiment(config, make_crash_world());
  std::string error;
  auto journal =
      ExperimentJournal::open(dir, experiment.config_fingerprint(), &error);
  ASSERT_TRUE(journal.has_value()) << error;
  const RunReport report = experiment.run_journaled(&*journal);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.cells_adopted, kCells);
  EXPECT_EQ(registry.snapshot_json(), faulted);
  fs::remove_all(dir);
}

TEST(CrashResume, MismatchedConfigCannotResume) {
  const std::string dir = scratch_dir("crash_config_mismatch");
  {
    Experiment experiment(crash_config(), make_crash_world());
    std::string error;
    auto journal =
        ExperimentJournal::open(dir, experiment.config_fingerprint(), &error);
    ASSERT_TRUE(journal.has_value()) << error;
  }
  auto config = crash_config();
  config.trials = 3;  // changed grid shape => different fingerprint
  Experiment experiment(config, make_crash_world());
  std::string error;
  EXPECT_FALSE(ExperimentJournal::open(dir, experiment.config_fingerprint(),
                                       &error)
                   .has_value());
  EXPECT_NE(error.find("fingerprint mismatch"), std::string::npos);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace originscan::core
