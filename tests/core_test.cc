#include <gtest/gtest.h>

#include "core/access_matrix.h"
#include "core/analysis/coverage.h"
#include "core/analysis/exclusivity.h"
#include "core/analysis/multi_origin.h"
#include "core/analysis/overlap.h"
#include "core/analysis/packet_loss.h"
#include "core/analysis/significance.h"
#include "core/classify.h"
#include "stats/combinatorics.h"
#include "core/experiment.h"
#include "tests/test_world.h"

namespace originscan::core {
namespace {

using originscan::testing::make_mini_world;

// A mini-world experiment with controlled policies:
//   * AS Alpha blocks origin ONE permanently        -> long-term misses
//   * AS Beta blocks origin ONE from trial 1 onward -> transient misses
//   * AS Gamma is clean.
class CoreAnalysisTest : public ::testing::Test {
 protected:
  static const Experiment& experiment() {
    static const Experiment* instance = [] {
      auto world = make_mini_world();
      const sim::AsId alpha = world.topology.find_as("Alpha");
      const sim::AsId beta = world.topology.find_as("Beta");
      sim::BlockRule always;
      always.origins = sim::origin_bit(0);
      always.mode = sim::BlockMode::kL4Drop;
      world.policies.edit(alpha).blocks.push_back(always);
      sim::BlockRule later;
      later.origins = sim::origin_bit(0);
      later.mode = sim::BlockMode::kL4Drop;
      later.start_trial = 1;
      world.policies.edit(beta).blocks.push_back(later);

      ExperimentConfig config;
      config.scenario.seed = world.seed;
      config.protocols = {proto::Protocol::kHttp};
      auto* experiment = new Experiment(config, std::move(world));
      experiment->run();
      return experiment;
    }();
    return *instance;
  }

  static const AccessMatrix& matrix() {
    static const AccessMatrix instance =
        AccessMatrix::build(experiment(), proto::Protocol::kHttp);
    return instance;
  }

  static const Classification& classification() {
    static const Classification instance{matrix()};
    return instance;
  }
};

TEST_F(CoreAnalysisTest, GroundTruthIsUnionOfAllHosts) {
  // Origins TWO and FOUR see everything, so every host is ground truth.
  EXPECT_EQ(matrix().host_count(),
            originscan::testing::host_count(experiment().world()));
  for (int t = 0; t < matrix().trials(); ++t) {
    EXPECT_EQ(matrix().present_count(t), matrix().host_count());
  }
}

TEST_F(CoreAnalysisTest, AccessibleImpliesPresent) {
  for (int t = 0; t < matrix().trials(); ++t) {
    for (HostIdx h = 0; h < matrix().host_count(); ++h) {
      for (std::size_t o = 0; o < matrix().origins(); ++o) {
        if (matrix().accessible(t, o, h)) {
          EXPECT_TRUE(matrix().present(t, h));
        }
        if (matrix().accessible_single_probe(t, o, h)) {
          EXPECT_TRUE(matrix().accessible(t, o, h));
        }
      }
    }
  }
}

TEST_F(CoreAnalysisTest, ClassifiesBlockedAsesCorrectly) {
  const auto& c = classification();
  const auto& m = matrix();
  for (HostIdx h = 0; h < m.host_count(); ++h) {
    const std::uint32_t block = m.host_addr(h).value() / 256;
    const HostClass origin0 = c.host_class(0, h);
    if (block == 0) {
      EXPECT_EQ(origin0, HostClass::kLongTerm);
    } else if (block == 1) {
      EXPECT_EQ(origin0, HostClass::kTransient);
    } else {
      EXPECT_EQ(origin0, HostClass::kAccessible);
    }
    // Other origins see everything.
    EXPECT_EQ(c.host_class(1, h), HostClass::kAccessible);
    EXPECT_EQ(c.host_class(2, h), HostClass::kAccessible);
  }
}

TEST_F(CoreAnalysisTest, BreakdownCountsMatchDirectCount) {
  const auto& c = classification();
  const auto& m = matrix();
  for (int t = 0; t < m.trials(); ++t) {
    const auto breakdown = c.breakdown(0, t);
    std::uint64_t missing = 0;
    for (HostIdx h = 0; h < m.host_count(); ++h) {
      if (c.missing(t, 0, h)) ++missing;
    }
    EXPECT_EQ(breakdown.total(), missing) << "trial " << t;
  }
  // Trial 0: only Alpha blocked (256 hosts, all long-term, /24-level).
  const auto t0 = c.breakdown(0, 0);
  EXPECT_EQ(t0.longterm_net, 256u);
  EXPECT_EQ(t0.transient_host + t0.transient_net, 0u);
  // Trials 1-2 add Beta's transient misses, also network-consistent.
  const auto t1 = c.breakdown(0, 1);
  EXPECT_EQ(t1.longterm_net, 256u);
  EXPECT_EQ(t1.transient_net, 256u);
}

TEST_F(CoreAnalysisTest, NetworkLevelDetection) {
  const auto& c = classification();
  const auto& m = matrix();
  // All blocked /24s behave consistently: network-level for origin 0.
  for (HostIdx h = 0; h < m.host_count(); ++h) {
    EXPECT_TRUE(c.network_level(0, h));
  }
}

TEST_F(CoreAnalysisTest, CoverageReflectsBlocks) {
  const auto coverage = compute_coverage(matrix());
  // Origin 0 misses 1/3 of hosts in trial 0, 2/3 in trials 1-2.
  EXPECT_NEAR(coverage.two_probe[0][0], 2.0 / 3.0, 0.01);
  EXPECT_NEAR(coverage.two_probe[1][0], 1.0 / 3.0, 0.01);
  // The clean origins see everything.
  EXPECT_DOUBLE_EQ(coverage.two_probe[0][1], 1.0);
  EXPECT_DOUBLE_EQ(coverage.two_probe[2][2], 1.0);
  // Intersection equals origin 0's coverage here.
  EXPECT_NEAR(coverage.intersection_fraction[1], 1.0 / 3.0, 0.01);
}

TEST_F(CoreAnalysisTest, OverlapHistograms) {
  const auto longterm = longterm_overlap(classification());
  EXPECT_EQ(longterm.total, 256u);      // Alpha's hosts
  EXPECT_EQ(longterm.buckets[0], 256u);  // each missed by exactly 1 origin
  const auto transient = transient_overlap(classification());
  EXPECT_EQ(transient.total, 256u);  // Beta's hosts

  // Excluding origin 0 leaves nothing missing.
  EXPECT_EQ(longterm_overlap(classification(), {0}).total, 0u);
}

TEST_F(CoreAnalysisTest, ExclusivityIdentifiesSoleMisser) {
  const auto result = compute_exclusivity(classification());
  // Alpha's 256 hosts are exclusively inaccessible from origin 0.
  EXPECT_EQ(result.exclusively_inaccessible[0], 256u);
  EXPECT_EQ(result.exclusively_inaccessible[1], 0u);
  // Nothing is exclusively accessible (two clean origins always overlap).
  for (std::uint64_t v : result.exclusively_accessible) EXPECT_EQ(v, 0u);
  EXPECT_DOUBLE_EQ(result.inaccessible_percent()[0], 100.0);
}

TEST_F(CoreAnalysisTest, MultiOriginCoverageIsMonotone) {
  std::vector<double> medians;
  for (int k = 1; k <= 3; ++k) {
    const auto result = multi_origin_coverage(matrix(), k);
    EXPECT_EQ(result.combos.size(),
              stats::binomial_coefficient(3, static_cast<std::size_t>(k)));
    medians.push_back(result.summary_two_probe().median);
  }
  EXPECT_LE(medians[0], medians[1]);
  EXPECT_LE(medians[1], medians[2]);
  // Adding origins can only help: the full union covers everything here.
  EXPECT_DOUBLE_EQ(medians[2], 1.0);
}

TEST_F(CoreAnalysisTest, ComboCoverageMatchesSubsetUnion) {
  const auto pair = combo_coverage(matrix(), {1, 2});
  EXPECT_DOUBLE_EQ(pair.mean_two_probe, 1.0);
  EXPECT_EQ(pair.label, "TWO+FOUR");
  const auto solo = combo_coverage(matrix(), {0});
  EXPECT_NEAR(solo.mean_two_probe, (2.0 / 3.0 + 1.0 / 3.0 + 1.0 / 3.0) / 3.0,
              0.01);
}

TEST_F(CoreAnalysisTest, PacketLossZeroOnCleanPaths) {
  const auto losses = global_loss(matrix());
  for (const auto& trial_row : losses) {
    for (const auto& estimate : trial_row) {
      EXPECT_DOUBLE_EQ(estimate.rate(), 0.0);
    }
  }
}

TEST_F(CoreAnalysisTest, McNemarFlagsTheBlockedOrigin) {
  const auto pairs = pairwise_mcnemar(matrix(), 0);
  ASSERT_EQ(pairs.size(), 3u);  // C(3,2)
  for (const auto& pair : pairs) {
    if (pair.origin_a == 0 || pair.origin_b == 0) {
      EXPECT_LT(pair.bonferroni_p, 0.001) << pair.label;
    } else {
      EXPECT_DOUBLE_EQ(pair.bonferroni_p, 1.0) << pair.label;
    }
  }
  const auto q = cochran_q_all_origins(matrix(), 0);
  EXPECT_LT(q.p_value, 0.001);
}

TEST(LossEstimate, RateFormula) {
  LossEstimate estimate;
  estimate.single_response_hosts = 10;
  estimate.double_response_hosts = 495;
  EXPECT_NEAR(estimate.rate(), 0.01, 1e-9);
  EXPECT_DOUBLE_EQ(LossEstimate{}.rate(), 0.0);
}

// ------------------------------------------------------ parallel runs --

// The determinism contract of the parallel executor: the full experiment
// grid run with jobs=4 must produce byte-identical results to jobs=1,
// including cross-trial IDS carry-over and bursty-loss timestamps.
TEST(Experiment, ParallelRunIsBitIdenticalToSerial) {
  const auto run_with_jobs = [](int jobs) {
    auto world = make_mini_world();
    // Bursty loss: records depend on exact probe timestamps.
    sim::PathProfile lossy;
    lossy.good_loss = 0.02;
    lossy.bad_loss = 0.6;
    lossy.bad_fraction = 0.15;
    world.paths.set_default_profile(lossy);
    // A rate IDS that trips during trial 0 and stays tripped: trial 1
    // results depend on trial 0's exact counter trajectory.
    sim::RateIdsRule ids;
    ids.probe_threshold = 200;
    world.policies.edit(world.topology.find_as("Alpha")).rate_ids = ids;

    ExperimentConfig config;
    config.scenario.seed = world.seed;
    config.protocols = {proto::Protocol::kHttp, proto::Protocol::kSsh};
    config.trials = 2;
    config.jobs = jobs;
    Experiment experiment(config, std::move(world));
    experiment.run();
    return experiment.all_results();
  };

  const auto serial = run_with_jobs(1);
  const auto parallel = run_with_jobs(4);
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_FALSE(serial.empty());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].origin_code, parallel[i].origin_code);
    EXPECT_EQ(serial[i].protocol, parallel[i].protocol);
    EXPECT_EQ(serial[i].trial, parallel[i].trial);
    EXPECT_TRUE(serial[i].l4_stats == parallel[i].l4_stats)
        << serial[i].origin_code << " trial " << serial[i].trial;
    ASSERT_EQ(serial[i].records.size(), parallel[i].records.size())
        << serial[i].origin_code << " trial " << serial[i].trial;
    EXPECT_TRUE(serial[i].records == parallel[i].records)
        << serial[i].origin_code << " trial " << serial[i].trial;
    EXPECT_EQ(serial[i].banners, parallel[i].banners);
  }
}

// ---------------------------------------------------- adopt_results ----

// One result per cell of a 2-trial x 1-protocol x 3-origin mini grid.
std::vector<scan::ScanResult> grid_results(const Experiment& experiment) {
  std::vector<scan::ScanResult> results;
  for (int t = 0; t < experiment.config().trials; ++t) {
    for (const auto& origin : experiment.world().origins) {
      scan::ScanResult result;
      result.origin_code = origin.code;
      result.protocol = proto::Protocol::kHttp;
      result.trial = t;
      results.push_back(std::move(result));
    }
  }
  return results;
}

Experiment make_adopt_experiment() {
  auto world = make_mini_world();
  ExperimentConfig config;
  config.scenario.seed = world.seed;
  config.protocols = {proto::Protocol::kHttp};
  config.trials = 2;
  return Experiment(config, std::move(world));
}

TEST(ExperimentAdopt, WellFormedGridIsAccepted) {
  auto experiment = make_adopt_experiment();
  std::string error;
  EXPECT_TRUE(experiment.adopt_results(grid_results(experiment), &error))
      << error;
  EXPECT_TRUE(experiment.has_run());
  EXPECT_TRUE(experiment.lost_cells().empty());
}

TEST(ExperimentAdopt, DiagnosesWrongResultCount) {
  auto experiment = make_adopt_experiment();
  auto results = grid_results(experiment);
  results.pop_back();
  std::string error;
  EXPECT_FALSE(experiment.adopt_results(std::move(results), &error));
  EXPECT_EQ(error,
            "expected 6 results (2 trials x 1 protocols x 3 origins), got 5");
  EXPECT_FALSE(experiment.has_run());
}

TEST(ExperimentAdopt, DiagnosesUnknownOriginCode) {
  auto experiment = make_adopt_experiment();
  auto results = grid_results(experiment);
  results[0].origin_code = "XX";
  std::string error;
  EXPECT_FALSE(experiment.adopt_results(std::move(results), &error));
  EXPECT_EQ(error, "unknown origin code \"XX\" (roster: ONE TWO FOUR)");
}

TEST(ExperimentAdopt, DiagnosesForeignProtocol) {
  auto experiment = make_adopt_experiment();
  auto results = grid_results(experiment);
  results[2].protocol = proto::Protocol::kSsh;
  std::string error;
  EXPECT_FALSE(experiment.adopt_results(std::move(results), &error));
  EXPECT_EQ(error, "protocol SSH is not part of this experiment");
}

TEST(ExperimentAdopt, DiagnosesTrialOutOfRange) {
  auto experiment = make_adopt_experiment();
  auto results = grid_results(experiment);
  results[4].trial = 7;
  std::string error;
  EXPECT_FALSE(experiment.adopt_results(std::move(results), &error));
  EXPECT_EQ(error, "trial 7 outside 0..1 for cell TWO HTTP trial 7");
}

TEST(ExperimentAdopt, DiagnosesDuplicateCell) {
  auto experiment = make_adopt_experiment();
  auto results = grid_results(experiment);
  // Replace (trial 1, FOUR) with a second copy of (trial 0, ONE). The
  // count still matches, so only the per-cell bookkeeping can catch it
  // (and by pigeonhole the duplicate also implies the missing cell).
  results[5] = results[0];
  std::string error;
  EXPECT_FALSE(experiment.adopt_results(std::move(results), &error));
  EXPECT_EQ(error, "duplicate cell ONE HTTP trial 0");
}

TEST(ExperimentAdopt, RejectsSecondAdoption) {
  auto experiment = make_adopt_experiment();
  EXPECT_TRUE(experiment.adopt_results(grid_results(experiment)));
  std::string error;
  EXPECT_FALSE(experiment.adopt_results(grid_results(experiment), &error));
  EXPECT_EQ(error, "experiment has already run");
}

}  // namespace
}  // namespace originscan::core
