// Unit tests of the benchmark's own measurement code: nearest-rank
// percentiles and their ten-samples-beyond rule, the seeded Poisson
// schedule, the host-speed probe, the span recorder's self times, and
// the result line.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>

#include "trace.h"
#include "util.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> values(static_cast<std::size_t>(n));
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

TEST(Percentile, NearestRank) {
  const auto hundred = one_to(100);
  EXPECT_EQ(percentile(hundred, 50), 50);
  EXPECT_EQ(percentile(hundred, 99), 99);
  EXPECT_EQ(percentile(hundred, 100), 100);
  EXPECT_EQ(percentile(hundred, 0.5), 1);
  // Rank ceil(p/100 * n): no interpolation, always a sample.
  EXPECT_EQ(percentile({3, 1, 2}, 50), 2);
  EXPECT_EQ(percentile({4, 1, 3, 2}, 50), 2);
  EXPECT_EQ(percentile({7}, 99), 7);
  EXPECT_EQ(median({5, 1, 9, 3, 7}), 5);
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(percentile({1}, 0), std::invalid_argument);
}

TEST(Percentile, TenSamplesBeyondTheReportedTail) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  EXPECT_EQ(highest_supported_percentile(1000), 99);
  EXPECT_EQ(highest_supported_percentile(999), 95);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(highest_supported_percentile(126), 90);
  EXPECT_EQ(highest_supported_percentile(20), 50);
  EXPECT_EQ(highest_supported_percentile(19), 0);
  for (std::size_t n : {20u, 63u, 126u, 500u, 1207u, 5000u}) {
    const double p = highest_supported_percentile(n);
    EXPECT_GE(samples_beyond(n, p), 10u) << n;
  }
}

TEST(Poisson, SameSeedSameSchedule) {
  const auto a = poisson_arrivals(7, 50, 1000);
  ASSERT_EQ(a.size(), 1000u);
  EXPECT_EQ(a, poisson_arrivals(7, 50, 1000));
  EXPECT_NE(a, poisson_arrivals(8, 50, 1000));
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GT(a.front(), 0.0);
  // A shorter schedule is a prefix of a longer one.
  const auto b = poisson_arrivals(7, 50, 10);
  EXPECT_TRUE(std::equal(b.begin(), b.end(), a.begin()));
  EXPECT_TRUE(poisson_arrivals(7, 0, 10).empty());
}

TEST(Poisson, RateIsHonoured) {
  // 100000 arrivals at 250/s take 400 s, sd ~1.3 s.
  const auto due = poisson_arrivals(3, 250, 100000);
  EXPECT_NEAR(due.back(), 400.0, 6.0);
  // Exponential gaps: mean 1/rate, coefficient of variation ~1.
  double sum = 0, sum_sq = 0;
  for (std::size_t i = 1; i < due.size(); ++i) {
    const double gap = due[i] - due[i - 1];
    sum += gap;
    sum_sq += gap * gap;
  }
  const double n = static_cast<double>(due.size() - 1);
  const double mean = sum / n;
  const double sd = std::sqrt(sum_sq / n - mean * mean);
  EXPECT_NEAR(mean, 1.0 / 250, 1e-4);
  EXPECT_NEAR(sd / mean, 1.0, 0.03);
}

TEST(Probe, TimesAFixedAmountOfWork) {
  const double a = host_probe_s();
  const double b = host_probe_s();
  EXPECT_GT(a, 0.0);
  EXPECT_GT(b, 0.0);
  // Same work each time: two calls on one host are within a factor of
  // a few of each other, however busy it is.
  EXPECT_LT(std::max(a, b) / std::min(a, b), 5.0);
}

TEST(Probe, NormalisesEachPassByTheProbesAroundIt) {
  const double ref = kProbeReferenceS;
  // At the reference speed a time is reported as measured.
  const auto calm = host_normalised({1.0, 1.0, 1.0}, {ref, ref, ref}, 1.5);
  EXPECT_DOUBLE_EQ(calm[2], 1.0);
  // A probe twice as slow scales the pass by 2^-elasticity.
  const auto slow = host_normalised({2.0, 2.0}, {2 * ref, 2 * ref}, 1.0);
  EXPECT_DOUBLE_EQ(slow[0], 1.0);
  EXPECT_DOUBLE_EQ(slow[1], 1.0);
  EXPECT_DOUBLE_EQ(host_normalised({2.0}, {2 * ref}, 1.5)[0],
                   2.0 * std::pow(0.5, 1.5));
  // Pass 1 ran between probes of ref and 4 ref: geometric mean 2 ref.
  const auto drift = host_normalised({1.0, 3.0}, {ref, 4 * ref}, 1.0);
  EXPECT_DOUBLE_EQ(drift[0], 1.0);
  EXPECT_DOUBLE_EQ(drift[1], 1.5);
  EXPECT_THROW(host_normalised({1.0, 1.0}, {ref}, 1.0),
               std::invalid_argument);
}

TEST(Tracer, SelfTimeExcludesChildren) {
  Tracer tracer;
  const auto sleep = [](int ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  };
  tracer.begin("outer");
  sleep(5);
  tracer.begin("inner");
  sleep(10);
  tracer.end();
  const auto t0 = Clock::now();
  sleep(5);
  tracer.leaf("leaf", t0, Clock::now());
  tracer.end();
  const auto outer = tracer.totals_of("outer");
  const auto inner = tracer.totals_of("inner");
  const auto leaf = tracer.totals_of("leaf");
  EXPECT_EQ(outer.calls, 1u);
  EXPECT_EQ(leaf.calls, 1u);
  EXPECT_EQ(outer.self_ns,
            outer.total_ns - inner.total_ns - leaf.total_ns);
  EXPECT_GE(inner.total_ns, 10'000'000);
  EXPECT_GE(outer.self_ns, 5'000'000);
  EXPECT_EQ(inner.self_ns, inner.total_ns);
  EXPECT_GT(tracer.leaf_cost_ns(), 0);
  EXPECT_EQ(tracer.totals_of("never").calls, 0u);

  // Concurrent work recorded at the root is not subtracted from anything.
  tracer.begin("run");
  const auto now = Clock::now();
  tracer.record("lane-work", now - std::chrono::seconds(1), now, 3);
  tracer.end();
  EXPECT_EQ(tracer.totals_of("run").self_ns, tracer.totals_of("run").total_ns);
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"name\": \"lane-work\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 5"), std::string::npos);
}

TEST(Result, LineHasExactlyTheContractKeys) {
  const std::string line =
      result_json(true, 3, 0, {{"wall_s", 1.25, "s"}, {"x", 1.0 / 3, "ms"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, "
            "\"x\": {\"value\": 0.33333333333333331, \"unit\": \"ms\"}}}");
  EXPECT_EQ(result_json(false, 1, 1, {{"nan", std::nan(""), "s"}}),
            "{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
            "\"metrics\": {\"nan\": {\"value\": 0, \"unit\": \"s\"}}}");
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

}  // namespace
}  // namespace perfbench
