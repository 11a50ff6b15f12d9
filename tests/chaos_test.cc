// Chaos lane: the randomized fault-episode soak (core/chaos.h). A
// journal damaged outside a run (flipped bytes, garbled lines) is
// crash_resume_test's Salvage case.
//
// The soak depth defaults to ci.sh's 25 rounds (a few seconds);
// ORIGINSCAN_CHAOS_ROUNDS overrides it in either direction.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/chaos.h"
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

}  // namespace
}  // namespace originscan::core
