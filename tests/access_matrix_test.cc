// Focused tests for AccessMatrix construction semantics.
#include <gtest/gtest.h>

#include "core/access_matrix.h"
#include "core/experiment.h"
#include "core/store.h"
#include "tests/test_world.h"

namespace originscan::core {
namespace {

using originscan::testing::MiniWorldOptions;
using originscan::testing::make_mini_world;

class AccessMatrixTest : public ::testing::Test {
 protected:
  static const Experiment& experiment() {
    static const Experiment* instance = [] {
      ExperimentConfig config;
      auto world = make_mini_world();
      config.scenario.seed = world.seed;
      config.protocols = {proto::Protocol::kHttp, proto::Protocol::kSsh};
      auto* e = new Experiment(config, std::move(world));
      e->run();
      return e;
    }();
    return *instance;
  }
};

TEST_F(AccessMatrixTest, HostsAreSortedAndUnique) {
  const auto matrix =
      AccessMatrix::build(experiment(), proto::Protocol::kHttp);
  ASSERT_GT(matrix.host_count(), 0u);
  for (HostIdx h = 1; h < matrix.host_count(); ++h) {
    EXPECT_LT(matrix.host_addr(h - 1), matrix.host_addr(h));
  }
}

TEST_F(AccessMatrixTest, MetadataMatchesTopology) {
  const auto matrix =
      AccessMatrix::build(experiment(), proto::Protocol::kHttp);
  const sim::World& world = experiment().world();
  for (HostIdx h = 0; h < matrix.host_count(); ++h) {
    EXPECT_EQ(matrix.host_as(h), *world.as_of(matrix.host_addr(h)));
    EXPECT_EQ(matrix.host_country(h), world.country_of(matrix.host_addr(h)));
  }
}

// Hosts above the procedural boundary have no topology prefix: their AS
// and country exist only as derived block facts, so the matrix must
// resolve metadata through the World, not the materialized table.
TEST(AccessMatrixProcedural, MetadataMatchesWorldAboveOverrideRegion) {
  ExperimentConfig config;
  config.scenario = sim::ScenarioConfig::full_internet(20);
  config.trials = 1;
  config.protocols = {proto::Protocol::kHttp};
  config.jobs = 4;
  Experiment experiment(config);
  experiment.run();

  const auto matrix = AccessMatrix::build(experiment, proto::Protocol::kHttp);
  const sim::World& world = experiment.world();
  std::size_t procedural_hosts = 0;
  for (HostIdx h = 0; h < matrix.host_count(); ++h) {
    const net::Ipv4Addr addr = matrix.host_addr(h);
    if (world.procedural.covers(addr)) ++procedural_hosts;
    ASSERT_EQ(matrix.host_as(h), world.as_of(addr)) << addr.to_string();
    EXPECT_EQ(matrix.host_country(h), world.country_of(addr));
  }
  EXPECT_GT(procedural_hosts, 0u);
}

TEST_F(AccessMatrixTest, ProbeHourSharedAcrossOrigins) {
  // All synchronized origins use the same permutation seed per trial, so
  // the probe hour is a per-(trial, host) property.
  const auto matrix =
      AccessMatrix::build(experiment(), proto::Protocol::kHttp);
  std::uint32_t max_hour = 0;
  for (int t = 0; t < matrix.trials(); ++t) {
    for (HostIdx h = 0; h < matrix.host_count(); ++h) {
      max_hour = std::max<std::uint32_t>(max_hour, matrix.probe_hour(t, h));
    }
  }
  EXPECT_LE(max_hour, 21u);  // the 21-hour scan window
  EXPECT_GT(max_hour, 15u);  // hosts spread across the whole window
}

TEST_F(AccessMatrixTest, ProbeHoursDifferAcrossTrials) {
  // A fresh permutation per trial: most hosts land in different hours.
  const auto matrix =
      AccessMatrix::build(experiment(), proto::Protocol::kHttp);
  ASSERT_GE(matrix.trials(), 2);
  std::size_t moved = 0;
  for (HostIdx h = 0; h < matrix.host_count(); ++h) {
    if (matrix.probe_hour(0, h) != matrix.probe_hour(1, h)) ++moved;
  }
  EXPECT_GT(moved, matrix.host_count() / 2);
}

TEST_F(AccessMatrixTest, CleanWorldHasFullSynAckMasks) {
  const auto matrix =
      AccessMatrix::build(experiment(), proto::Protocol::kHttp);
  for (int t = 0; t < matrix.trials(); ++t) {
    for (HostIdx h = 0; h < matrix.host_count(); ++h) {
      for (std::size_t o = 0; o < matrix.origins(); ++o) {
        EXPECT_EQ(matrix.synack_mask(t, o, h), 0b11);
        EXPECT_EQ(matrix.outcome(t, o, h), sim::L7Outcome::kCompleted);
        EXPECT_TRUE(matrix.accessible_single_probe(t, o, h));
      }
    }
  }
}

TEST_F(AccessMatrixTest, ProtocolsBuildIndependentMatrices) {
  const auto http = AccessMatrix::build(experiment(), proto::Protocol::kHttp);
  const auto ssh = AccessMatrix::build(experiment(), proto::Protocol::kSsh);
  EXPECT_EQ(http.protocol(), proto::Protocol::kHttp);
  EXPECT_EQ(ssh.protocol(), proto::Protocol::kSsh);
  // Mini-world hosts run all services: same ground truth across both.
  EXPECT_EQ(http.host_count(), ssh.host_count());
}

TEST(AccessMatrixAdopt, RoundTripThroughStore) {
  // Results saved, reloaded, and adopted into a fresh experiment produce
  // the same matrix.
  ExperimentConfig config;
  auto world = make_mini_world();
  config.scenario.seed = world.seed;
  config.protocols = {proto::Protocol::kHttp};
  Experiment original(config, std::move(world));
  original.run();

  const auto bytes = serialize_results(original.all_results());
  auto loaded = parse_results(bytes);
  ASSERT_TRUE(loaded.has_value());

  ExperimentConfig config2;
  auto world2 = make_mini_world();
  config2.scenario.seed = world2.seed;
  config2.protocols = {proto::Protocol::kHttp};
  Experiment adopted(config2, std::move(world2));
  ASSERT_TRUE(adopted.adopt_results(std::move(*loaded)));

  const auto a = AccessMatrix::build(original, proto::Protocol::kHttp);
  const auto b = AccessMatrix::build(adopted, proto::Protocol::kHttp);
  ASSERT_EQ(a.host_count(), b.host_count());
  for (HostIdx h = 0; h < a.host_count(); ++h) {
    EXPECT_EQ(a.host_addr(h), b.host_addr(h));
    for (int t = 0; t < a.trials(); ++t) {
      for (std::size_t o = 0; o < a.origins(); ++o) {
        EXPECT_EQ(a.accessible(t, o, h), b.accessible(t, o, h));
      }
    }
  }
}

TEST(AccessMatrixAdopt, RejectsWrongShapes) {
  ExperimentConfig config;
  auto world = make_mini_world();
  config.scenario.seed = world.seed;
  config.protocols = {proto::Protocol::kHttp};
  Experiment source(config, std::move(world));
  source.run();
  auto results = source.all_results();

  auto make_target = [] {
    ExperimentConfig c;
    auto w = make_mini_world();
    c.scenario.seed = w.seed;
    c.protocols = {proto::Protocol::kHttp};
    return Experiment(c, std::move(w));
  };

  // Too few results.
  {
    auto target = make_target();
    auto subset = results;
    subset.pop_back();
    EXPECT_FALSE(target.adopt_results(std::move(subset)));
  }
  // Unknown origin code.
  {
    auto target = make_target();
    auto bad = results;
    bad.front().origin_code = "NOPE";
    EXPECT_FALSE(target.adopt_results(std::move(bad)));
  }
  // Duplicate slot.
  {
    auto target = make_target();
    auto bad = results;
    bad.back() = bad.front();
    EXPECT_FALSE(target.adopt_results(std::move(bad)));
  }
  // Wrong protocol.
  {
    auto target = make_target();
    auto bad = results;
    bad.front().protocol = proto::Protocol::kSsh;
    EXPECT_FALSE(target.adopt_results(std::move(bad)));
  }
  // Valid adoption works exactly once.
  {
    auto target = make_target();
    EXPECT_TRUE(target.adopt_results(std::move(results)));
    EXPECT_TRUE(target.has_run());
  }
}

}  // namespace
}  // namespace originscan::core
