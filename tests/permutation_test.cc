#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "scanner/permutation.h"
#include "scanner/zmap.h"

namespace originscan::scan {
namespace {

TEST(Primes, MillerRabinKnownValues) {
  EXPECT_TRUE(is_prime_u64(2));
  EXPECT_TRUE(is_prime_u64(3));
  EXPECT_TRUE(is_prime_u64(65537));
  EXPECT_TRUE(is_prime_u64(4294967311ULL));  // first prime above 2^32
  EXPECT_FALSE(is_prime_u64(0));
  EXPECT_FALSE(is_prime_u64(1));
  EXPECT_FALSE(is_prime_u64(4294967297ULL));  // 641 * 6700417
  EXPECT_FALSE(is_prime_u64(3215031751ULL));  // strong pseudoprime to 2,3,5,7
}

TEST(Primes, NextPrimeAbove) {
  EXPECT_EQ(next_prime_above(1), 2u);
  EXPECT_EQ(next_prime_above(2), 3u);
  EXPECT_EQ(next_prime_above(65536), 65537u);
  EXPECT_EQ(next_prime_above(1u << 20), 1048583u);
}

TEST(Primes, ModularArithmetic) {
  EXPECT_EQ(powmod_u64(2, 10, 1'000'000'007ULL), 1024u);
  EXPECT_EQ(powmod_u64(3, 0, 97), 1u);
  // (2^63) * 2 mod (2^64 - 59): exercises the 128-bit path.
  const std::uint64_t m = ~std::uint64_t{0} - 58;
  EXPECT_EQ(mulmod_u64(1ULL << 63, 2, m), 59u);
}

// Property: the permutation visits every address in [0, n) exactly once.
class PermutationCoverage : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PermutationCoverage, VisitsEveryAddressOnce) {
  const std::uint64_t n = GetParam();
  const auto group = CyclicGroup::for_size(n, /*seed=*/0xABCDEF);
  std::vector<bool> seen(n, false);
  std::uint64_t count = 0;
  auto it = group.all();
  while (auto value = it.next()) {
    ASSERT_LT(*value, n);
    ASSERT_FALSE(seen[*value]) << "duplicate " << *value;
    seen[*value] = true;
    ++count;
  }
  EXPECT_EQ(count, n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PermutationCoverage,
                         ::testing::Values(1, 2, 3, 16, 255, 256, 257, 1000,
                                           4096, 65536, 100'003));

// Property: shards partition the space, for shard counts that do and do
// not divide p-1.
class ShardPartition : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ShardPartition, ShardsArePairwiseDisjointAndComplete) {
  const std::uint32_t shards = GetParam();
  constexpr std::uint64_t kSize = 10'000;
  const auto group = CyclicGroup::for_size(kSize, /*seed=*/99);

  std::vector<bool> seen(kSize, false);
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < shards; ++s) {
    auto it = group.shard(s, shards);
    while (auto value = it.next()) {
      ASSERT_FALSE(seen[*value]) << "shard overlap at " << *value;
      seen[*value] = true;
      ++total;
    }
  }
  EXPECT_EQ(total, kSize);
}

INSTANTIATE_TEST_SUITE_P(Counts, ShardPartition,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16, 64));

// Property: the union of shard(i, N) over all i is exactly the full
// universe — every address exactly once — for the shard counts the
// parallel executor actually uses.
class ShardUnion : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ShardUnion, UnionIsExactlyTheUniverse) {
  const std::uint32_t shards = GetParam();
  constexpr std::uint64_t kSize = 4096;
  const auto group = CyclicGroup::for_size(kSize, /*seed=*/0x5CA9);

  std::multiset<std::uint64_t> emitted;
  for (std::uint32_t s = 0; s < shards; ++s) {
    auto it = group.shard(s, shards);
    while (auto value = it.next()) emitted.insert(*value);
  }
  ASSERT_EQ(emitted.size(), kSize);
  std::uint64_t expected = 0;
  for (std::uint64_t value : emitted) {
    EXPECT_EQ(value, expected) << "duplicate or gap at " << expected;
    ++expected;
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, ShardUnion, ::testing::Values(2, 3, 8));

// Property: the k-th entry of shard s's next_positions is position
// s + k * shards of the full sequence — interleaving shard outputs by
// position reconstructs the serial order exactly. walk_shards slots its
// lanes' targets (and the scan trace its canonical lane partition) on
// this.
TEST(Permutation, PositionsInterleaveToSerialOrder) {
  constexpr std::uint64_t kSize = 3000;
  const auto group = CyclicGroup::for_size(kSize, /*seed=*/42);

  std::vector<std::uint64_t> serial;
  auto all = group.all();
  while (auto value = all.next()) serial.push_back(*value);

  for (std::uint32_t shards : {2u, 3u, 8u}) {
    std::map<std::uint64_t, std::uint64_t> by_position;
    std::uint64_t positions = 0;  // stepped over, across the shards
    for (std::uint32_t s = 0; s < shards; ++s) {
      auto it = group.shard(s, shards);
      std::uint64_t position = s;
      std::array<std::uint64_t, 7> entries;  // odd-sized pulls
      while (const std::size_t got = it.next_positions(entries)) {
        for (std::size_t i = 0; i < got; ++i, position += shards) {
          if (entries[i] >= kSize) continue;  // outside the scan space
          ASSERT_TRUE(by_position.emplace(position, entries[i]).second)
              << "position " << position << " claimed twice";
        }
      }
      positions += (position - s) / shards;
    }
    EXPECT_EQ(positions, group.prime() - 1) << "shard count " << shards;
    std::vector<std::uint64_t> interleaved;
    interleaved.reserve(by_position.size());
    for (const auto& [position, value] : by_position) {
      interleaved.push_back(value);
    }
    EXPECT_EQ(interleaved, serial) << "shard count " << shards;
  }
}

// The permutation-recovery oracle (after Mazel and Strullu's recovery of
// a ZMap scan's generator from the order of its probes): run walk_shards
// lanes over a 2^16 universe (p = 65537, so every position is a target),
// record the order in which each lane hands out its targets, and recover
// the cycle from that alone. Consecutive targets of one lane must differ
// by one common step g^k, the lanes' first targets by the generator g,
// g^k must equal the step, g must generate the whole group, and the lanes
// together must cover [1, p - 1] exactly once. So the lanes walk ZMap's
// one cycle, not merely some partition of the addresses. One lane (the
// --jobs 1 sweep) is the case k = 1: its step is g itself.
TEST(Permutation, LanesWalkOneCycleRecoveredFromProbeOrder) {
  constexpr std::uint32_t kSize = 1u << 16;
  constexpr std::uint64_t kPrime = 65537;
  const auto inverse = [](std::uint64_t x) {
    return powmod_u64(x, kPrime - 2, kPrime);
  };
  ZMapConfig config;
  config.seed = 0x0AC1E;
  config.universe_size = kSize;
  config.probes = 2;
  const CyclicGroup group = CyclicGroup::for_size(kSize, config.seed);
  ASSERT_EQ(group.prime(), kPrime);

  for (std::size_t lanes : {1u, 2u, 3u, 4u, 5u}) {
    std::vector<std::vector<ScheduledTarget>> seen(lanes + 1);
    const std::uint64_t blocklisted = walk_shards(
        config, lanes, [](net::Ipv4Addr) { return false; },
        [&seen](std::size_t lane, std::span<const ScheduledTarget> targets) {
          seen[lane].insert(seen[lane].end(), targets.begin(), targets.end());
        });
    EXPECT_EQ(blocklisted, 0u);
    EXPECT_TRUE(seen[lanes].empty()) << "nothing was deferred";

    // Group elements are addresses + 1. The step: the ratio of each
    // lane's consecutive targets.
    const auto element = [&seen](std::size_t lane, std::size_t n) {
      return std::uint64_t{seen[lane][n].addr.value()} + 1;
    };
    const std::uint64_t step =
        mulmod_u64(element(0, 1), inverse(element(0, 0)), kPrime);
    std::vector<bool> covered(kPrime, false);
    std::uint64_t total = 0;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      ASSERT_GE(seen[lane].size(), 2u);
      for (std::size_t n = 0; n < seen[lane].size(); ++n) {
        if (n > 0) {
          ASSERT_EQ(element(lane, n),
                    mulmod_u64(element(lane, n - 1), step, kPrime))
              << lanes << " lanes: lane " << lane << " leaves the cycle at "
              << n;
        }
        // Every target's slot is its position (lane + n * lanes) times
        // the probes per target, as the serial walk numbers it.
        ASSERT_EQ(seen[lane][n].first_packet, (lane + n * lanes) * 2);
        ASSERT_FALSE(covered[element(lane, n)]) << "element twice";
        covered[element(lane, n)] = true;
        ++total;
      }
    }
    EXPECT_EQ(total, kPrime - 1) << "the lanes tile [1, p - 1]";

    // The generator: the ratio of consecutive lanes' starts, or with one
    // lane the step.
    const std::uint64_t generator =
        lanes == 1 ? step
                   : mulmod_u64(element(1, 0), inverse(element(0, 0)), kPrime);
    for (std::size_t lane = 1; lane + 1 < lanes; ++lane) {
      EXPECT_EQ(mulmod_u64(element(lane + 1, 0), inverse(element(lane, 0)),
                           kPrime),
                generator);
    }
    EXPECT_EQ(powmod_u64(generator, lanes, kPrime), step);
    // p - 1 = 2^16, so g generates the group iff g^(2^15) != 1.
    EXPECT_NE(powmod_u64(generator, (kPrime - 1) / 2, kPrime), 1u);
    EXPECT_EQ(generator, group.generator());
  }
}

// The step without a division: next(), next_batch and next_positions
// must emit the recurrence x -> x * step mod p exactly as a 128-bit
// remainder computes it, for 2^16 steps of each shard of 1-8 lanes from
// its start, and from elements within 64 of p - 1 (the largest
// products), and for a walk modulo a prime near 2^62.
void expect_walk_matches_remainder(const CyclicGroup::Iterator& walk,
                                   std::uint64_t step, std::uint64_t prime,
                                   std::uint64_t size) {
  auto positions = walk;
  std::vector<std::uint64_t> stepped(std::size_t{1} << 16);
  // A shard of a small group has fewer positions; it is walked whole.
  stepped.resize(positions.next_positions(stepped));
  ASSERT_GT(stepped.size(), 1000u);
  std::vector<std::uint64_t> expected;  // addresses, in emission order
  std::uint64_t x = stepped[0] + 1;
  for (std::size_t n = 0; n < stepped.size(); ++n) {
    ASSERT_EQ(stepped[n], x - 1) << "position " << n << " of p " << prime;
    if (x <= size) expected.push_back(x - 1);
    x = static_cast<std::uint64_t>(static_cast<unsigned __int128>(x) * step %
                                   prime);
  }
  auto one_by_one = walk;
  for (std::size_t n = 0; n < expected.size(); ++n) {
    ASSERT_EQ(one_by_one.next(), expected[n]) << "address " << n;
  }
  auto batched = walk;
  std::array<std::uint32_t, 301> chunk;  // odd-sized pulls
  std::size_t at = 0;
  while (at < expected.size()) {
    const std::size_t want = std::min(chunk.size(), expected.size() - at);
    ASSERT_EQ(batched.next_batch(std::span(chunk).first(want)), want);
    for (std::size_t n = 0; n < want; ++n, ++at) {
      ASSERT_EQ(chunk[n], expected[at]) << "address " << at;
    }
  }
}

TEST(Permutation, StepMatchesTheRemainderRecurrence) {
  for (const std::uint64_t size :
       {std::uint64_t{1} << 16, std::uint64_t{1} << 20, std::uint64_t{1} << 25,
        std::uint64_t{0xFFFF0000}}) {
    const auto group = CyclicGroup::for_size(size, /*seed=*/0x5A0F);
    const std::uint64_t prime = group.prime();
    for (std::uint32_t lanes = 1; lanes <= 8; ++lanes) {
      const std::uint64_t step = powmod_u64(group.generator(), lanes, prime);
      for (std::uint32_t lane = 0; lane < lanes; ++lane) {
        SCOPED_TRACE(::testing::Message() << "size " << size << " shard "
                                        << lane << " of " << lanes);
        expect_walk_matches_remainder(group.shard(lane, lanes), step, prime,
                                      size);
      }
      for (const std::uint64_t below_top :
           {std::uint64_t{0}, std::uint64_t{8} * lanes - 1}) {
        SCOPED_TRACE(::testing::Message() << "size " << size << " step g^"
                                        << lanes << " from p-1-" << below_top);
        expect_walk_matches_remainder(
            CyclicGroup::Iterator(prime - 1 - below_top, step, prime, size,
                                  std::uint64_t{1} << 16),
            step, prime, size);
      }
    }
  }
  // Below 2^32 the precomputed quotient is already exact (its error is
  // under p^2 / 2^64 < 1), so the conditional subtract first matters
  // for larger primes; near 2^62 it fires on a good share of steps.
  const std::uint64_t prime = next_prime_above(std::uint64_t{1} << 62);
  for (const std::uint64_t step :
       {std::uint64_t{3}, 0x9E3779B97F4A7C15 % prime, prime - 2}) {
    for (const std::uint64_t start : {std::uint64_t{1}, prime - 1,
                                      prime - 64}) {
      SCOPED_TRACE(::testing::Message()
                   << "p " << prime << " step " << step << " from " << start);
      expect_walk_matches_remainder(
          CyclicGroup::Iterator(start, step, prime, std::uint64_t{1} << 32,
                                std::uint64_t{1} << 16),
          step, prime, std::uint64_t{1} << 32);
    }
  }
}

TEST(Permutation, SameSeedSameOrder) {
  const auto a = CyclicGroup::for_size(5000, 7);
  const auto b = CyclicGroup::for_size(5000, 7);
  auto ita = a.all();
  auto itb = b.all();
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(ita.next(), itb.next());
  }
}

TEST(Permutation, DifferentSeedsDifferentOrder) {
  const auto a = CyclicGroup::for_size(5000, 7);
  const auto b = CyclicGroup::for_size(5000, 8);
  auto ita = a.all();
  auto itb = b.all();
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    if (ita.next() != itb.next()) ++differing;
  }
  EXPECT_GT(differing, 50);
}

TEST(Permutation, OrderIsScrambled) {
  // The permutation should not be anywhere near sequential: count
  // adjacent emissions that are consecutive addresses.
  const auto group = CyclicGroup::for_size(10'000, 3);
  auto it = group.all();
  std::uint64_t previous = *it.next();
  int consecutive = 0;
  while (auto value = it.next()) {
    if (*value == previous + 1) ++consecutive;
    previous = *value;
  }
  EXPECT_LT(consecutive, 10);
}

}  // namespace
}  // namespace originscan::scan
