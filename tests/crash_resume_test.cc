// The crash-safety contract, end to end: a journaled run killed after
// any cell, resumed at any jobs value, is byte-identical to a run that
// was never interrupted; a hung cell is retried and recovers invisibly;
// a cell that exhausts its retry budget degrades to a labeled partial
// grid that every analysis entry point still accepts; and a damaged
// journal resumes to the committed golden digests under the one salvage
// rule.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/access_matrix.h"
#include "core/analysis/coverage.h"
#include "core/classify.h"
#include "core/experiment.h"
#include "core/goldens.h"
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

// ---- Salvage: a damaged journal resumes to the golden digests -------
//
// paper_small (tests/goldens/paper_small.json) is a 28-cell grid: 7
// origins, each a 4-cell chain (2 trials x HTTP, SSH). Written at jobs 1
// its MANIFEST lists the cells in slot order after the header, so slot s
// is line s + 1. Slot 0 is AU's chain head; slot 7 is AU's second cell.

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

// Applies `edit` to the MANIFEST's lines (header included).
void edit_manifest(const std::string& dir,
                   const std::function<void(std::vector<std::string>&)>& edit) {
  std::vector<std::string> lines;
  std::istringstream in(read_text(dir + "/MANIFEST"));
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  edit(lines);
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  write_text(dir + "/MANIFEST", text);
}

void flip_byte(const std::string& path, std::size_t offset) {
  std::string bytes = read_text(path);
  ASSERT_LT(offset, bytes.size());
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
  write_text(path, bytes);
}

struct Damage {
  const char* name;
  std::function<void(const std::string& dir)> apply;
  std::uint64_t quarantined_cells;
  std::uint64_t quarantined_followers;
  std::size_t cells_run;
};

std::vector<ResultDigest> golden_paper_small() {
  const auto golden = GoldenFile::from_json(read_text(
      std::string(OSN_SOURCE_DIR) + "/tests/goldens/paper_small.json"));
  EXPECT_TRUE(golden.has_value());
  return golden.has_value() ? golden->digests : std::vector<ResultDigest>{};
}

RunReport resume_paper_small(const std::string& dir,
                             obsv::MetricsRegistry& registry) {
  ExperimentConfig config = paper_small_config();
  config.metrics = &registry;
  Experiment experiment(config);
  std::string error;
  auto journal =
      ExperimentJournal::open(dir, experiment.config_fingerprint(), &error);
  EXPECT_TRUE(journal.has_value()) << error;
  if (!journal.has_value()) return RunReport{};
  const RunReport report = experiment.run_journaled(&*journal);
  EXPECT_TRUE(report.complete());
  if (report.complete()) {
    const auto mismatch = compare_digests(
        golden_paper_small(), digest_all(experiment.all_results()));
    EXPECT_FALSE(mismatch.has_value()) << *mismatch;
  }
  return report;
}

TEST(Salvage, EachDamageResumesToTheGoldenDigests) {
  const std::string clean = scratch_dir("salvage_clean");
  {
    obsv::MetricsRegistry registry;
    const RunReport report = resume_paper_small(clean, registry);
    ASSERT_EQ(report.cells_run, report.cells_total);
  }
  const auto garble_slot_7 = [](std::vector<std::string>& lines) {
    const std::size_t at = lines[8].find("attempts=");
    ASSERT_NE(at, std::string::npos);
    lines[8][at + 3] = 'X';
  };
  const Damage damages[] = {
      // A flipped byte in AU's chain head: it and its 3 followers re-run.
      {"flipped_segment_byte",
       [](const std::string& dir) {
         flip_byte(dir + "/cell_AU_http_t0.osnr", 64);
       },
       1, 3, 4},
      // A corrupt sidecar is corrupt all the same.
      {"flipped_sidecar_byte",
       [](const std::string& dir) {
         flip_byte(dir + "/cell_AU_ssh_t0.ids", 20);
       },
       1, 2, 3},
      // A garbled line is dropped at open; its cell is missing, so the
      // walk stops there and the 2 later cells follow it.
      {"garbled_line",
       [&](const std::string& dir) { edit_manifest(dir, garble_slot_7); },
       0, 2, 3},
      {"deleted_line",
       [](const std::string& dir) {
         edit_manifest(dir, [](std::vector<std::string>& lines) {
           lines.erase(lines.begin() + 8);
         });
       },
       0, 2, 3},
      // The line now names no cell of the grid: quarantined, and the cell
      // it named is missing.
      {"unknown_origin_line",
       [](const std::string& dir) {
         edit_manifest(dir, [](std::vector<std::string>& lines) {
           ASSERT_EQ(lines[8].rfind("done AU ", 0), 0u);
           lines[8].replace(5, 2, "ZZ");
         });
       },
       1, 2, 3},
      // AU's last cell (slot 21) garbled into the key of slot 7, whose
      // line it supersedes: its segment verifies but holds a different
      // cell, so slot 7 is corrupt and slot 21 missing.
      {"line_names_another_cell",
       [](const std::string& dir) {
         edit_manifest(dir, [](std::vector<std::string>& lines) {
           const std::size_t at = lines[22].find("AU SSH 1 ");
           ASSERT_NE(at, std::string::npos);
           lines[22][at + 7] = '0';
         });
       },
       1, 1, 3},
      // A torn tail is cut off before the resume appends, so the second
      // resume below adopts the re-recorded cells.
      {"flipped_byte_and_torn_tail",
       [](const std::string& dir) {
         flip_byte(dir + "/cell_AU_http_t0.osnr", 64);
         std::ofstream(dir + "/MANIFEST", std::ios::app) << "done AU HT";
       },
       1, 3, 4},
  };
  for (const Damage& damage : damages) {
    SCOPED_TRACE(damage.name);
    const std::string dir = scratch_dir(std::string("salvage_") + damage.name);
    fs::copy(clean, dir, fs::copy_options::recursive);
    damage.apply(dir);

    obsv::MetricsRegistry registry;
    const RunReport report = resume_paper_small(dir, registry);
    const auto snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.counter(obsv::Counter::kJournalQuarantinedCells),
              damage.quarantined_cells);
    EXPECT_EQ(snapshot.counter(obsv::Counter::kJournalQuarantinedFollowers),
              damage.quarantined_followers);
    EXPECT_EQ(report.cells_run, damage.cells_run);

    // The re-runs superseded what was damaged: a second resume adopts
    // every cell (an entry outside the grid stays quarantined).
    obsv::MetricsRegistry again;
    EXPECT_EQ(resume_paper_small(dir, again).cells_run, 0u);
    fs::remove_all(dir);
  }
  fs::remove_all(clean);
}

}  // namespace
}  // namespace originscan::core
