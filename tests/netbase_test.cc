#include <gtest/gtest.h>

#include <set>

#include "netbase/byteio.h"
#include "netbase/interval_set.h"
#include "netbase/ipv4.h"
#include "netbase/rng.h"
#include "netbase/vtime.h"

namespace originscan::net {
namespace {

// ------------------------------------------------------------- Ipv4Addr --

TEST(Ipv4Addr, ParsesDottedQuad) {
  auto addr = Ipv4Addr::parse("192.168.1.200");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->value(), 0xC0A801C8u);
  EXPECT_EQ(addr->to_string(), "192.168.1.200");
}

TEST(Ipv4Addr, ParsesBoundaries) {
  EXPECT_EQ(Ipv4Addr::parse("0.0.0.0")->value(), 0u);
  EXPECT_EQ(Ipv4Addr::parse("255.255.255.255")->value(), 0xFFFFFFFFu);
}

TEST(Ipv4Addr, RejectsMalformed) {
  for (const char* bad : {"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "1.2.3.x",
                          "1..2.3", "01.2.3.4", " 1.2.3.4", "1.2.3.4 ",
                          "-1.2.3.4"}) {
    EXPECT_FALSE(Ipv4Addr::parse(bad).has_value()) << bad;
  }
}

TEST(Ipv4Addr, RoundTripsRandomAddresses) {
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const Ipv4Addr addr(static_cast<std::uint32_t>(rng()));
    auto parsed = Ipv4Addr::parse(addr.to_string());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, addr);
  }
}

TEST(Ipv4Addr, Slash24) {
  EXPECT_EQ(Ipv4Addr(10, 1, 2, 200).slash24(), Ipv4Addr(10, 1, 2, 0));
}

// --------------------------------------------------------------- Prefix --

TEST(Prefix, CanonicalizesBase) {
  const Prefix p(Ipv4Addr(10, 0, 0, 77), 24);
  EXPECT_EQ(p.base(), Ipv4Addr(10, 0, 0, 0));
  EXPECT_EQ(p.size(), 256u);
  EXPECT_EQ(p.last(), Ipv4Addr(10, 0, 0, 255));
}

TEST(Prefix, ContainsAddressesAndPrefixes) {
  const Prefix p = *Prefix::parse("10.1.0.0/16");
  EXPECT_TRUE(p.contains(Ipv4Addr(10, 1, 200, 3)));
  EXPECT_FALSE(p.contains(Ipv4Addr(10, 2, 0, 0)));
  EXPECT_TRUE(p.contains(*Prefix::parse("10.1.32.0/24")));
  EXPECT_FALSE(p.contains(*Prefix::parse("10.0.0.0/8")));
}

TEST(Prefix, SlashZeroCoversEverything) {
  const Prefix p = *Prefix::parse("0.0.0.0/0");
  EXPECT_EQ(p.size(), 1ULL << 32);
  EXPECT_TRUE(p.contains(Ipv4Addr(255, 255, 255, 255)));
}

TEST(Prefix, ParseRejectsBadLengths) {
  EXPECT_FALSE(Prefix::parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/-1").has_value());
}

// ---------------------------------------------------------- IntervalSet --

TEST(IntervalSet, AddCoalescesAdjacentAndOverlapping) {
  IntervalSet set;
  set.add(10, 20);
  set.add(20, 30);  // adjacent: must merge
  set.add(5, 12);   // overlapping
  EXPECT_EQ(set.interval_count(), 1u);
  EXPECT_EQ(set.cardinality(), 25u);
  EXPECT_TRUE(set.contains(5));
  EXPECT_TRUE(set.contains(29));
  EXPECT_FALSE(set.contains(30));
}

TEST(IntervalSet, RemoveSplits) {
  IntervalSet set;
  set.add(0, 100);
  set.remove(40, 60);
  EXPECT_EQ(set.interval_count(), 2u);
  EXPECT_EQ(set.cardinality(), 80u);
  EXPECT_TRUE(set.contains(39));
  EXPECT_FALSE(set.contains(40));
  EXPECT_FALSE(set.contains(59));
  EXPECT_TRUE(set.contains(60));
}

TEST(IntervalSet, NthEnumeratesInOrder) {
  IntervalSet set;
  set.add(10, 12);
  set.add(100, 103);
  EXPECT_EQ(set.nth(0), 10u);
  EXPECT_EQ(set.nth(1), 11u);
  EXPECT_EQ(set.nth(2), 100u);
  EXPECT_EQ(set.nth(4), 102u);
}

// Property: random add/remove sequence matches a naive std::set model.
TEST(IntervalSet, MatchesNaiveModel) {
  Rng rng(1234);
  IntervalSet set;
  std::set<std::uint64_t> model;
  constexpr std::uint64_t kSpace = 500;
  for (int step = 0; step < 400; ++step) {
    const std::uint64_t lo = rng.below(kSpace);
    const std::uint64_t hi = lo + rng.below(40);
    if (rng.bernoulli(0.6)) {
      set.add(lo, hi);
      for (std::uint64_t v = lo; v < hi; ++v) model.insert(v);
    } else {
      set.remove(lo, hi);
      for (std::uint64_t v = lo; v < hi; ++v) model.erase(v);
    }
    ASSERT_EQ(set.cardinality(), model.size()) << "step " << step;
    for (int check = 0; check < 25; ++check) {
      const std::uint64_t v = rng.below(kSpace + 50);
      ASSERT_EQ(set.contains(v), model.count(v) > 0)
          << "step " << step << " value " << v;
    }
  }
}

// ---------------------------------------------------------------- ByteIO --

TEST(ByteIO, WritesNetworkOrder) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0], 0x12);
  EXPECT_EQ(out[1], 0x34);
  EXPECT_EQ(out[2], 0xDE);
  EXPECT_EQ(out[5], 0xEF);

  ByteReader r(out);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteIO, ReaderLatchesErrorOnOverrun) {
  std::vector<std::uint8_t> data = {1, 2};
  ByteReader r(data);
  r.u32();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

// ------------------------------------------------------------------- Rng --

TEST(Rng, DeterministicPerSeed) {
  Rng a(99), b(99), c(100);
  for (int i = 0; i < 10; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    (void)c;
  }
  EXPECT_NE(Rng(99)(), Rng(100)());
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(5);
  double sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(6);
  double sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += rng.poisson(3.0);
  EXPECT_NEAR(sum / kSamples, 3.0, 0.1);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(7);
  double sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / kSamples, 2.0, 0.1);
}

// ----------------------------------------------------------- VirtualTime --

TEST(VirtualTime, ConversionsAndBuckets) {
  const auto t = VirtualTime::from_hours(2.5);
  EXPECT_DOUBLE_EQ(t.seconds(), 9000.0);
  EXPECT_EQ(t.hour_bucket(), 2);
  EXPECT_EQ((t + VirtualTime::from_seconds(1800)).hour_bucket(), 3);
  EXPECT_EQ(VirtualTime::from_millis(1500).micros(), 1'500'000);
  EXPECT_EQ(t.to_string(), "02:30:00");
}

TEST(VirtualTime, Ordering) {
  EXPECT_LT(VirtualTime::from_seconds(1), VirtualTime::from_seconds(2));
  EXPECT_EQ(VirtualTime::from_seconds(3) - VirtualTime::from_seconds(1),
            VirtualTime::from_seconds(2));
}

}  // namespace
}  // namespace originscan::net
