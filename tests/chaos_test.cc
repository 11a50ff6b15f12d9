// Chaos lane: the randomized fault-episode soak (core/chaos.h) plus the
// end-to-end salvage story — a run directory damaged by a flipped byte
// is restored to full resumability by ExperimentJournal::repair and the
// resumed run reproduces the clean run's digests exactly.
//
// The soak depth defaults to ci.sh's 25 rounds (a few seconds);
// ORIGINSCAN_CHAOS_ROUNDS overrides it in either direction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/chaos.h"
#include "core/experiment.h"
#include "core/goldens.h"
#include "core/journal.h"
#include "faultinject/chaos.h"
#include "faultinject/faultinject.h"
#include "obsv/metrics.h"
#include "tests/test_world.h"

namespace originscan::core {
namespace {

using originscan::testing::scratch_dir;

namespace fs = std::filesystem;

int soak_rounds(int fallback) {
  if (const char* env = std::getenv("ORIGINSCAN_CHAOS_ROUNDS")) {
    const int rounds = std::atoi(env);
    if (rounds > 0) return rounds;
  }
  return fallback;
}

TEST(ChaosEpisodes, GenerationIsSeedPureAndParseable) {
  int with_faults = 0;
  int distributed = 0;
  int differs_across_seeds = 0;
  for (std::uint64_t round = 0; round < 200; ++round) {
    const auto a = fault::make_chaos_episode(7, round, 14, 1u << 12);
    const auto b = fault::make_chaos_episode(7, round, 14, 1u << 12);
    EXPECT_EQ(a.plan_spec, b.plan_spec) << "round " << round;
    EXPECT_EQ(a.jobs, b.jobs);
    EXPECT_EQ(a.workers, b.workers);
    EXPECT_GE(a.jobs, 1);
    EXPECT_LE(a.jobs, 3);
    EXPECT_TRUE(a.workers == 0 || (a.workers >= 2 && a.workers <= 3));
    if (!a.plan_spec.empty()) {
      ++with_faults;
      std::string error;
      EXPECT_TRUE(fault::FaultPlan::parse(a.plan_spec, &error).has_value())
          << "round " << round << ": " << error << "\n" << a.plan_spec;
    }
    if (a.workers > 0) ++distributed;
    const auto other = fault::make_chaos_episode(8, round, 14, 1u << 12);
    if (other.plan_spec != a.plan_spec) ++differs_across_seeds;
  }
  // The menu draws should keep the soak interesting at any seed.
  EXPECT_GT(with_faults, 100);
  EXPECT_GT(distributed, 30);
  EXPECT_GT(differs_across_seeds, 100);
}

TEST(ChaosSoak, RandomizedEpisodesUpholdTheRecoveryInvariant) {
  ChaosOptions options;
  options.rounds = soak_rounds(/*fallback=*/25);
  options.seed = 0x05CA9;
  options.work_dir = scratch_dir("chaos_soak_test");
  obsv::MetricsRegistry registry;
  options.metrics = &registry;
  const ChaosReport report = run_chaos_soak(options);
  for (const std::string& violation : report.violations) {
    ADD_FAILURE() << violation;
  }
  EXPECT_TRUE(report.passed());
  EXPECT_EQ(report.rounds, options.rounds);
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter(obsv::Counter::kChaosEpisodes),
            static_cast<std::uint64_t>(options.rounds));
  EXPECT_EQ(snapshot.counter(obsv::Counter::kChaosViolations), 0u);
  fs::remove_all(options.work_dir);
}

// The acceptance story for `journal repair`: flip one byte in a segment
// of a completed run, repair the directory, resume — and get the clean
// run's bytes back.
TEST(JournalRepair, FlippedSegmentByteThenRepairThenResumeMatchesClean) {
  ExperimentConfig config;
  config.scenario.universe_size = 1u << 12;
  config.scenario.seed = 0x05CA9;
  config.trials = 2;
  config.protocols = {proto::Protocol::kHttp};
  config.probes = 2;

  const std::string dir = scratch_dir("chaos_repair_test");

  // Clean journaled run: the golden digests.
  std::vector<ResultDigest> golden;
  std::string damaged_segment;
  {
    Experiment experiment(config);
    auto journal =
        ExperimentJournal::open(dir, experiment.config_fingerprint());
    ASSERT_TRUE(journal.has_value());
    const RunReport report = experiment.run_journaled(&*journal);
    ASSERT_TRUE(report.complete());
    golden = digest_all(experiment.all_results());
    damaged_segment = journal->entries().front().segment;
  }

  // One flipped byte in the first cell's .osnr segment.
  {
    std::fstream file(dir + "/" + damaged_segment + ".osnr",
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekp(64);
    char byte = 0;
    file.seekg(64);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(64);
    file.write(&byte, 1);
  }

  std::string error;
  const auto repair = ExperimentJournal::repair(dir, &error);
  ASSERT_TRUE(repair.has_value()) << error;
  EXPECT_EQ(repair->entries_dropped_corrupt, 1u);
  // The first cell heads its origin's chain, so its second-trial
  // follower is demoted with it.
  EXPECT_EQ(repair->entries_dropped_followers, 1u);

  // Resume from the repaired directory: the dropped cells re-run and
  // the grid comes back byte-identical to the never-damaged run.
  Experiment experiment(config);
  auto journal = ExperimentJournal::open(dir, experiment.config_fingerprint(),
                                         &error);
  ASSERT_TRUE(journal.has_value()) << error;
  const std::size_t adopted = journal->entries().size();
  EXPECT_EQ(adopted, golden.size() - 2);
  const RunReport report = experiment.run_journaled(&*journal);
  ASSERT_TRUE(report.complete());
  EXPECT_EQ(report.cells_run, 2u);
  const auto mismatch = compare_digests(golden,
                                        digest_all(experiment.all_results()));
  EXPECT_FALSE(mismatch.has_value()) << *mismatch;
  fs::remove_all(dir);
}

// Quarantine-at-adoption covers the same damage without an explicit
// repair step: a resume sees the corrupt segment, demotes the cell (and
// its chain followers), re-runs them, and surfaces the event in the
// journal.quarantined_* counters.
TEST(JournalRepair, ResumeQuarantinesCorruptCellsWithoutRepair) {
  ExperimentConfig config;
  config.scenario.universe_size = 1u << 12;
  config.scenario.seed = 0x05CA9;
  config.trials = 2;
  config.protocols = {proto::Protocol::kHttp};
  config.probes = 2;

  const std::string dir = scratch_dir("chaos_quarantine_test");

  std::vector<ResultDigest> golden;
  std::string damaged_segment;
  {
    Experiment experiment(config);
    auto journal =
        ExperimentJournal::open(dir, experiment.config_fingerprint());
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(experiment.run_journaled(&*journal).complete());
    golden = digest_all(experiment.all_results());
    damaged_segment = journal->entries().front().segment;
  }
  {
    std::fstream file(dir + "/" + damaged_segment + ".osnr",
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekp(64);
    file.write("\x7f", 1);
  }

  obsv::MetricsRegistry registry;
  config.metrics = &registry;
  Experiment experiment(config);
  std::string error;
  auto journal = ExperimentJournal::open(dir, experiment.config_fingerprint(),
                                         &error);
  ASSERT_TRUE(journal.has_value()) << error;
  const RunReport report = experiment.run_journaled(&*journal);
  ASSERT_TRUE(report.complete());
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter(obsv::Counter::kJournalQuarantinedCells), 1u);
  EXPECT_EQ(snapshot.counter(obsv::Counter::kJournalQuarantinedFollowers), 1u);
  const auto mismatch = compare_digests(golden,
                                        digest_all(experiment.all_results()));
  EXPECT_FALSE(mismatch.has_value()) << *mismatch;
  fs::remove_all(dir);
}

}  // namespace
}  // namespace originscan::core
