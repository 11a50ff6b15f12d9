#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "scanner/permutation.h"

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

// Property: Iterator::last_position reports each address's slot in the
// full sequence — interleaving shard outputs by position reconstructs
// the serial order exactly. The scan trace's canonical lane partition
// (position mod 4) rests on this.
TEST(Permutation, PositionsInterleaveToSerialOrder) {
  constexpr std::uint64_t kSize = 3000;
  const auto group = CyclicGroup::for_size(kSize, /*seed=*/42);

  std::vector<std::uint64_t> serial;
  auto all = group.all();
  while (auto value = all.next()) serial.push_back(*value);

  for (std::uint32_t shards : {2u, 3u, 8u}) {
    std::map<std::uint64_t, std::uint64_t> by_position;
    for (std::uint32_t s = 0; s < shards; ++s) {
      auto it = group.shard(s, shards);
      while (auto value = it.next()) {
        const std::uint64_t position = it.last_position();
        EXPECT_EQ(position % shards, s);
        ASSERT_TRUE(by_position.emplace(position, *value).second)
            << "position " << position << " claimed twice";
      }
    }
    std::vector<std::uint64_t> interleaved;
    interleaved.reserve(by_position.size());
    for (const auto& [position, value] : by_position) {
      interleaved.push_back(value);
    }
    EXPECT_EQ(interleaved, serial) << "shard count " << shards;
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
