// Cross-cutting property tests: algebraic invariants that should hold
// for any input, checked over randomized sweeps.
#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "netbase/rng.h"
#include "netbase/siphash.h"
#include "scanner/orchestrator.h"
#include "scanner/zmap.h"
#include "stats/descriptive.h"
#include "stats/ecdf.h"
#include "stats/hypothesis.h"
#include "tests/test_world.h"

namespace originscan {
namespace {

using originscan::testing::make_mini_world;

// ---- Sharding: the union of shard scans equals the full scan ----------

class ShardEquivalence : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ShardEquivalence, ShardedSweepFindsTheSameHosts) {
  const std::uint32_t shards = GetParam();
  auto world = make_mini_world();
  sim::PersistentState persistent;
  sim::TrialContext context;
  context.experiment_seed = world.seed;
  sim::Internet internet(&world, context, &persistent);

  auto run_with = [&](std::uint32_t shard_index, std::uint32_t shard_count,
                      std::set<std::uint32_t>& seen) {
    scan::ZMapConfig config;
    config.seed = 4242;
    config.universe_size = world.universe_size;
    config.protocol = proto::Protocol::kHttp;
    config.source_ips = world.origins[0].source_ips;
    config.shard_index = shard_index;
    config.shard_count = shard_count;
    scan::ZMapScanner scanner(config, &internet, 0);
    scanner.run([&](const scan::L4Result& result) {
      EXPECT_TRUE(seen.insert(result.addr.value()).second)
          << "host seen by two shards: " << result.addr.to_string();
    });
  };

  std::set<std::uint32_t> full;
  run_with(0, 1, full);

  std::set<std::uint32_t> sharded;
  for (std::uint32_t s = 0; s < shards; ++s) run_with(s, shards, sharded);

  EXPECT_EQ(full, sharded);
}

INSTANTIATE_TEST_SUITE_P(Counts, ShardEquivalence,
                         ::testing::Values(2, 3, 5, 8));

// ---- Quantiles -----------------------------------------------------------

TEST(QuantileProperties, MonotoneAndBounded) {
  net::Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> xs(1 + rng.below(200));
    for (auto& x : xs) x = rng.normal(0, 10);
    double previous = stats::quantile(xs, 0.0);
    EXPECT_DOUBLE_EQ(previous, stats::min_value(xs));
    for (double q = 0.05; q <= 1.0; q += 0.05) {
      const double value = stats::quantile(xs, q);
      EXPECT_GE(value, previous);
      previous = value;
    }
    EXPECT_DOUBLE_EQ(stats::quantile(xs, 1.0), stats::max_value(xs));
  }
}

TEST(EcdfProperties, QuantileIsInverseOfAt) {
  net::Rng rng(78);
  std::vector<double> xs(500);
  for (auto& x : xs) x = rng.uniform(0, 100);
  const stats::Ecdf ecdf(xs);
  for (double q = 0.05; q < 1.0; q += 0.05) {
    const double value = ecdf.quantile(q);
    EXPECT_GE(ecdf.at(value), q - 1e-9);
  }
}

// ---- Hypothesis tests ----------------------------------------------------

TEST(McNemarProperties, SymmetricInDiscordantCells) {
  net::Rng rng(79);
  for (int trial = 0; trial < 200; ++trial) {
    const auto b = rng.below(500);
    const auto c = rng.below(500);
    const auto p1 = stats::mcnemar_test(10, b, c, 10).p_value;
    const auto p2 = stats::mcnemar_test(10, c, b, 10).p_value;
    EXPECT_DOUBLE_EQ(p1, p2) << "b=" << b << " c=" << c;
  }
}

TEST(McNemarProperties, MoreAsymmetryIsMoreSignificant) {
  // With b + c fixed at 500, growing |b - c| must not raise the p-value.
  double previous = 1.0;
  for (std::uint64_t b = 250; b <= 450; b += 50) {
    const auto result = stats::mcnemar_test(0, b, 500 - b, 0);
    EXPECT_LE(result.p_value, previous + 1e-12) << "b=" << b;
    previous = result.p_value;
  }
}

TEST(SpearmanProperties, InvariantUnderMonotoneTransform) {
  net::Rng rng(80);
  std::vector<double> x(100), y(100);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.uniform(0, 10);
    y[i] = x[i] * 2 + rng.normal(0, 1);
  }
  const double rho = stats::spearman(x, y).rho;
  // Apply strictly monotone transforms to both sides.
  std::vector<double> x2(x), y2(y);
  for (auto& v : x2) v = std::exp(v / 3.0);
  for (auto& v : y2) v = v * v * v;
  EXPECT_NEAR(stats::spearman(x2, y2).rho, rho, 1e-9);
}

// ---- SipHash avalanche ----------------------------------------------------

TEST(SipHashProperties, SingleBitFlipAvalanches) {
  const net::SipHash hasher(net::SipHash::key_from_seed(5));
  net::Rng rng(81);
  double total_flipped = 0;
  constexpr int kTrials = 400;
  for (int i = 0; i < kTrials; ++i) {
    const std::uint64_t value = rng();
    const int bit = static_cast<int>(rng.below(64));
    const std::uint64_t a = hasher.hash_u64(value);
    const std::uint64_t b = hasher.hash_u64(value ^ (1ULL << bit));
    total_flipped += std::popcount(a ^ b);
  }
  const double mean_flipped = total_flipped / kTrials;
  EXPECT_GT(mean_flipped, 28.0);  // ideal: 32 of 64
  EXPECT_LT(mean_flipped, 36.0);
}

// ---- Scan-record invariants ------------------------------------------------

TEST(ScanInvariants, L7OnlyAttemptedAfterSynAck) {
  auto world = make_mini_world();
  sim::PersistentState persistent;
  sim::TrialContext context;
  context.experiment_seed = world.seed;
  sim::Internet internet(&world, context, &persistent);

  const auto result = scan::run_scan(internet, 0, proto::Protocol::kHttps);
  for (const auto& record : result.records) {
    if (record.synack_mask == 0) {
      EXPECT_EQ(record.l7, sim::L7Outcome::kNotAttempted);
    } else {
      EXPECT_NE(record.l7, sim::L7Outcome::kNotAttempted);
    }
    // A record exists only if something responded.
    EXPECT_TRUE(record.synack_mask != 0 || record.rst_mask != 0);
    // SYN-ACK and RST to the same probe are mutually exclusive.
    EXPECT_EQ(record.synack_mask & record.rst_mask, 0);
  }
}

}  // namespace
}  // namespace originscan
