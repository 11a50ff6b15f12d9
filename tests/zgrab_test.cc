#include <gtest/gtest.h>

#include <stdexcept>

#include "scanner/zgrab.h"
#include "sim/scenario.h"
#include "tests/test_world.h"

namespace originscan::scan {
namespace {

using originscan::testing::make_mini_world;

sim::TrialContext context_for(const sim::World& world) {
  sim::TrialContext context;
  context.experiment_seed = world.seed;
  context.simultaneous_origins = static_cast<int>(world.origins.size());
  return context;
}

class ZGrabTest : public ::testing::Test {
 protected:
  ZGrabTest() : world_(make_mini_world()) {}

  sim::Internet internet() {
    return sim::Internet(&world_, context_for(world_), &persistent_);
  }

  sim::World world_;
  sim::PersistentState persistent_;
};

TEST_F(ZGrabTest, HttpCompletesWithTitleBanner) {
  auto net = internet();
  ZGrabEngine engine({.protocol = proto::Protocol::kHttp}, &net, 0);
  const auto result =
      engine.grab(world_.origins[0].source_ips[0], net::Ipv4Addr(5), {});
  EXPECT_EQ(result.outcome, sim::L7Outcome::kCompleted);
  EXPECT_FALSE(result.banner.empty());
  EXPECT_EQ(result.attempts, 1);
}

TEST_F(ZGrabTest, TlsCompletesWithNegotiatedSuite) {
  auto net = internet();
  ZGrabEngine engine({.protocol = proto::Protocol::kHttps}, &net, 0);
  const auto result =
      engine.grab(world_.origins[0].source_ips[0], net::Ipv4Addr(5), {});
  EXPECT_EQ(result.outcome, sim::L7Outcome::kCompleted);
  EXPECT_EQ(result.banner.rfind("0x", 0), 0u) << result.banner;
}

TEST_F(ZGrabTest, SshCompletesWithVersionBanner) {
  auto net = internet();
  ZGrabEngine engine({.protocol = proto::Protocol::kSsh}, &net, 0);
  const auto result =
      engine.grab(world_.origins[0].source_ips[0], net::Ipv4Addr(5), {});
  EXPECT_EQ(result.outcome, sim::L7Outcome::kCompleted);
  EXPECT_FALSE(result.banner.empty());
}

TEST_F(ZGrabTest, ReportsResetAfterAccept) {
  const sim::AsId alpha = world_.topology.find_as("Alpha");
  sim::BlockRule rule;
  rule.origins = sim::origin_bit(0);
  rule.mode = sim::BlockMode::kRstAfterAccept;
  world_.policies.edit(alpha).blocks.push_back(rule);

  auto net = internet();
  ZGrabEngine engine({.protocol = proto::Protocol::kSsh}, &net, 0);
  const auto result =
      engine.grab(world_.origins[0].source_ips[0], net::Ipv4Addr(5), {});
  EXPECT_EQ(result.outcome, sim::L7Outcome::kResetAfterAccept);
  EXPECT_TRUE(result.explicit_close);
}

TEST_F(ZGrabTest, ReportsReadTimeoutOnHungConnection) {
  const sim::AsId alpha = world_.topology.find_as("Alpha");
  sim::BlockRule rule;
  rule.origins = sim::origin_bit(0);
  rule.mode = sim::BlockMode::kL7Drop;
  world_.policies.edit(alpha).blocks.push_back(rule);

  auto net = internet();
  ZGrabEngine engine({.protocol = proto::Protocol::kHttp}, &net, 0);
  const auto result =
      engine.grab(world_.origins[0].source_ips[0], net::Ipv4Addr(5), {});
  EXPECT_EQ(result.outcome, sim::L7Outcome::kReadTimeout);
  EXPECT_FALSE(result.explicit_close);
}

TEST_F(ZGrabTest, BlockPagePolicyStillCompletes) {
  const sim::AsId alpha = world_.topology.find_as("Alpha");
  sim::BlockRule rule;
  rule.origins = sim::origin_bit(0);
  rule.mode = sim::BlockMode::kServeBlockPage;
  rule.protocol = proto::Protocol::kHttp;
  world_.policies.edit(alpha).blocks.push_back(rule);

  auto net = internet();
  ZGrabEngine engine({.protocol = proto::Protocol::kHttp}, &net, 0);
  const auto result =
      engine.grab(world_.origins[0].source_ips[0], net::Ipv4Addr(5), {});
  EXPECT_EQ(result.outcome, sim::L7Outcome::kCompleted);
  EXPECT_EQ(result.banner, "Blocked Site");
}

TEST_F(ZGrabTest, RetriesRecoverMaxStartupsRefusals) {
  // All hosts run an extremely aggressive MaxStartups daemon; with a
  // heavy synchronized load almost every first attempt is refused, and
  // retries recover most hosts (Fig 13's mechanism).
  originscan::testing::MiniWorldOptions options;
  options.maxstartups = proto::MaxStartups{1, 80, 200};
  world_ = make_mini_world(options);
  world_.maxstartups.background_load_mean = 30;
  world_.maxstartups.concurrent_origin_probability = 0.9;

  auto net = internet();
  int failed_first = 0, recovered = 0;
  constexpr int kHosts = 120;
  ZGrabEngine no_retry(
      {.protocol = proto::Protocol::kSsh, .retry = {.max_retries = 0}}, &net,
      0);
  ZGrabEngine with_retry(
      {.protocol = proto::Protocol::kSsh, .retry = {.max_retries = 8}}, &net,
      0);
  for (int i = 0; i < kHosts; ++i) {
    const net::Ipv4Addr dst(static_cast<std::uint32_t>(i));
    const auto once =
        no_retry.grab(world_.origins[0].source_ips[0], dst, {});
    if (once.outcome == sim::L7Outcome::kCompleted) continue;
    ++failed_first;
    EXPECT_TRUE(is_retryable(once.outcome))
        << to_string(once.outcome);
    const auto retried =
        with_retry.grab(world_.origins[0].source_ips[0], dst, {});
    if (retried.outcome == sim::L7Outcome::kCompleted) ++recovered;
  }
  ASSERT_GT(failed_first, kHosts / 4);
  EXPECT_GT(recovered, failed_first / 2);
}

TEST(ZGrabRetryable, Classification) {
  EXPECT_TRUE(is_retryable(sim::L7Outcome::kConnectTimeout));
  EXPECT_TRUE(is_retryable(sim::L7Outcome::kResetAfterAccept));
  EXPECT_TRUE(is_retryable(sim::L7Outcome::kClosedBeforeData));
  EXPECT_FALSE(is_retryable(sim::L7Outcome::kCompleted));
  EXPECT_FALSE(is_retryable(sim::L7Outcome::kProtocolError));
  EXPECT_FALSE(is_retryable(sim::L7Outcome::kReadTimeout));
}

// ------------------------------------------------------ retry policy ----

TEST(RetryPolicy_, BackoffLadderIsCappedExponential) {
  const RetryPolicy policy{.max_retries = 5};
  EXPECT_EQ(policy.backoff_before(0).micros(), 0);
  EXPECT_EQ(policy.backoff_before(1).micros(),
            net::VirtualTime::from_seconds(1.0).micros());
  EXPECT_EQ(policy.backoff_before(2).micros(),
            net::VirtualTime::from_seconds(2.0).micros());
  EXPECT_EQ(policy.backoff_before(3).micros(),
            net::VirtualTime::from_seconds(4.0).micros());
  EXPECT_EQ(policy.backoff_before(4).micros(),
            net::VirtualTime::from_seconds(8.0).micros());
  // Capped from here on.
  EXPECT_EQ(policy.backoff_before(5).micros(),
            net::VirtualTime::from_seconds(8.0).micros());
}

TEST(RetryPolicy_, BannerFailuresRetryOnlyWhenOptedIn) {
  const RetryPolicy base;
  EXPECT_TRUE(base.should_retry(sim::L7Outcome::kConnectTimeout));
  EXPECT_FALSE(base.should_retry(sim::L7Outcome::kReadTimeout));
  EXPECT_FALSE(base.should_retry(sim::L7Outcome::kProtocolError));
  EXPECT_FALSE(base.should_retry(sim::L7Outcome::kClosedMidHandshake));

  const RetryPolicy banner{.retry_banner_failures = true};
  EXPECT_TRUE(banner.should_retry(sim::L7Outcome::kReadTimeout));
  EXPECT_TRUE(banner.should_retry(sim::L7Outcome::kProtocolError));
  EXPECT_TRUE(banner.should_retry(sim::L7Outcome::kClosedMidHandshake));
  EXPECT_FALSE(banner.should_retry(sim::L7Outcome::kCompleted));
  EXPECT_FALSE(banner.should_retry(sim::L7Outcome::kNotAttempted));
}

// ------------------------------------------- attempt accounting (§6) ----

fault::FaultInjector rst_on_first_attempts(int attempts) {
  auto plan = fault::FaultPlan::parse("rst:host%1==0,attempts=" +
                                      std::to_string(attempts));
  EXPECT_TRUE(plan.has_value());
  return fault::FaultInjector(plan.value_or(fault::FaultPlan{}), 0xFA57u);
}

// The histogram input contract: a banner received on the *final* retry
// attempt reports attempts == max_retries + 1, counted exactly once —
// not once per loop iteration, and never max_retries + 2.
TEST_F(ZGrabTest, BannerOnFinalRetryCountsAttemptsOnce) {
  auto net = internet();
  const auto injector = rst_on_first_attempts(2);  // faults attempts 0, 1
  ZGrabEngine engine({.protocol = proto::Protocol::kHttp,
                      .retry = {.max_retries = 2},
                      .faults = &injector},
                     &net, 0);
  const auto result =
      engine.grab(world_.origins[0].source_ips[0], net::Ipv4Addr(5), {});
  EXPECT_EQ(result.outcome, sim::L7Outcome::kCompleted);
  EXPECT_FALSE(result.banner.empty());
  EXPECT_EQ(result.attempts, 3);
}

TEST_F(ZGrabTest, ExhaustedRetriesReportExactBudget) {
  auto net = internet();
  const auto injector = rst_on_first_attempts(3);  // outlasts the budget
  ZGrabEngine engine({.protocol = proto::Protocol::kHttp,
                      .retry = {.max_retries = 2},
                      .faults = &injector},
                     &net, 0);
  const auto result =
      engine.grab(world_.origins[0].source_ips[0], net::Ipv4Addr(5), {});
  EXPECT_EQ(result.outcome, sim::L7Outcome::kResetAfterAccept);
  EXPECT_TRUE(result.explicit_close);
  EXPECT_EQ(result.attempts, 3);  // 1 + max_retries, never more
}

TEST_F(ZGrabTest, NegativeRetryBudgetIsRejected) {
  // max_retries < 0 would run no attempt at all and report every host
  // "not attempted"; the engine refuses the config instead.
  auto net = internet();
  EXPECT_THROW(ZGrabEngine({.protocol = proto::Protocol::kHttp,
                            .retry = {.max_retries = -1}},
                           &net, 0),
               std::invalid_argument);
  EXPECT_NO_THROW(ZGrabEngine({.protocol = proto::Protocol::kHttp,
                               .retry = {.max_retries = 0}},
                              &net, 0));
}

TEST_F(ZGrabTest, ReusedEngineGivesTheSameBannersAsFreshOnes) {
  // The engine keeps one connection and one client flight for all its
  // grabs; nothing of one grab may leak into the next.
  auto net = internet();
  for (proto::Protocol protocol : proto::kAllProtocols) {
    ZGrabEngine reused({.protocol = protocol}, &net, 0);
    for (std::uint32_t a = 0; a < 64; ++a) {
      const net::Ipv4Addr dst(a * 11);
      const auto again =
          reused.grab(world_.origins[0].source_ips[0], dst, {});
      ZGrabEngine fresh({.protocol = protocol}, &net, 0);
      const auto once = fresh.grab(world_.origins[0].source_ips[0], dst, {});
      EXPECT_EQ(again.outcome, once.outcome);
      EXPECT_EQ(again.banner, once.banner);
    }
  }
}

TEST_F(ZGrabTest, BannerFaultsRecoverUnderBannerRetryPolicy) {
  auto net = internet();
  std::string error;
  auto plan = fault::FaultPlan::parse("banner_trunc:host%1==0", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  const fault::FaultInjector injector(*plan, 0xFA57u);

  // Without banner retries the truncated banner is terminal.
  ZGrabEngine strict({.protocol = proto::Protocol::kSsh,
                      .retry = {.max_retries = 2},
                      .faults = &injector},
                     &net, 0);
  const auto failed =
      strict.grab(world_.origins[0].source_ips[0], net::Ipv4Addr(6), {});
  EXPECT_EQ(failed.outcome, sim::L7Outcome::kProtocolError);
  EXPECT_EQ(failed.attempts, 1);

  // With them, attempt 1 (fault-free) recovers the full banner.
  ZGrabEngine lenient(
      {.protocol = proto::Protocol::kSsh,
       .retry = {.max_retries = 2, .retry_banner_failures = true},
       .faults = &injector},
      &net, 0);
  const auto recovered =
      lenient.grab(world_.origins[0].source_ips[0], net::Ipv4Addr(6), {});
  EXPECT_EQ(recovered.outcome, sim::L7Outcome::kCompleted);
  EXPECT_FALSE(recovered.banner.empty());
  EXPECT_EQ(recovered.attempts, 2);
}

}  // namespace
}  // namespace originscan::scan
