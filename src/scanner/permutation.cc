#include "scanner/permutation.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <vector>

#include "netbase/rng.h"

namespace originscan::scan {

std::uint64_t mulmod_u64(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  return static_cast<std::uint64_t>(
      static_cast<unsigned __int128>(a) * b % m);
}

std::uint64_t powmod_u64(std::uint64_t base, std::uint64_t exp,
                         std::uint64_t m) {
  std::uint64_t result = 1 % m;
  base %= m;
  while (exp > 0) {
    if (exp & 1) result = mulmod_u64(result, base, m);
    base = mulmod_u64(base, base, m);
    exp >>= 1;
  }
  return result;
}

bool is_prime_u64(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                          23ULL, 29ULL, 31ULL, 37ULL}) {
    if (n % p == 0) return n == p;
  }
  // Deterministic Miller-Rabin witness set for 64-bit integers.
  std::uint64_t d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  for (std::uint64_t a : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                          23ULL, 29ULL, 31ULL, 37ULL}) {
    std::uint64_t x = powmod_u64(a, d, n);
    if (x == 1 || x == n - 1) continue;
    bool witness = true;
    for (int i = 1; i < r; ++i) {
      x = mulmod_u64(x, x, n);
      if (x == n - 1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

std::uint64_t next_prime_above(std::uint64_t n) {
  std::uint64_t candidate = n + 1;
  if (candidate <= 2) return 2;
  if ((candidate & 1) == 0) ++candidate;
  while (!is_prime_u64(candidate)) candidate += 2;
  return candidate;
}

namespace {

// Prime factorization by trial division — fine for the p-1 values that
// arise from scan-space-sized primes (p <= 2^33 in practice, and the
// loop is O(sqrt(p)) once).
std::vector<std::uint64_t> prime_factors(std::uint64_t n) {
  std::vector<std::uint64_t> factors;
  for (std::uint64_t p = 2; p * p <= n; p += (p == 2 ? 1 : 2)) {
    if (n % p == 0) {
      factors.push_back(p);
      while (n % p == 0) n /= p;
    }
  }
  if (n > 1) factors.push_back(n);
  return factors;
}

bool is_generator(std::uint64_t g, std::uint64_t prime,
                  const std::vector<std::uint64_t>& factors) {
  for (std::uint64_t q : factors) {
    if (powmod_u64(g, (prime - 1) / q, prime) == 1) return false;
  }
  return true;
}

}  // namespace

CyclicGroup CyclicGroup::for_size(std::uint64_t size, std::uint64_t seed) {
  assert(size >= 1);
  const std::uint64_t prime = next_prime_above(size < 2 ? 2 : size);
  const auto factors = prime_factors(prime - 1);

  net::Rng rng(net::mix_u64(seed, prime, 0x6E4ULL));
  std::uint64_t generator = 0;
  for (;;) {
    const std::uint64_t candidate = 2 + rng.below(prime - 3);
    if (is_generator(candidate, prime, factors)) {
      generator = candidate;
      break;
    }
  }
  const std::uint64_t start = 1 + rng.below(prime - 1);
  return CyclicGroup(prime, generator, start, size);
}

CyclicGroup::Iterator CyclicGroup::shard(std::uint32_t index,
                                         std::uint32_t count) const {
  assert(count >= 1 && index < count);
  const std::uint64_t shard_start =
      mulmod_u64(start_, powmod_u64(generator_, index, prime_), prime_);
  const std::uint64_t step = powmod_u64(generator_, count, prime_);
  // Positions 0 .. p-2 of the full sequence; this shard owns those
  // congruent to index mod count.
  const std::uint64_t total = prime_ - 1;
  const std::uint64_t emitted =
      index < total ? (total - 1 - index) / count + 1 : 0;
  return Iterator(shard_start, step, prime_, size_, emitted);
}

CyclicGroup::Iterator::Iterator(std::uint64_t start, std::uint64_t step,
                                std::uint64_t prime, std::uint64_t size,
                                std::uint64_t count)
    : current_(start),
      step_(step),
      step_quotient_(static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(step) << 64) / prime)),
      prime_(prime),
      size_(size),
      remaining_(count) {
  assert(prime < (std::uint64_t{1} << 63));
  assert(step >= 1 && step < prime);
  assert(count == 0 || (start >= 1 && start < prime));
}

std::optional<std::uint64_t> CyclicGroup::Iterator::next() {
  while (remaining_ > 0) {
    const std::uint64_t value = current_;
    current_ = step_mod(current_, step_, step_quotient_, prime_);
    --remaining_;
    // Group elements are [1, p-1]; addresses are [0, size). Skip the
    // elements that fall outside the scan space.
    if (value <= size_) return value - 1;
  }
  return std::nullopt;
}

std::size_t CyclicGroup::Iterator::next_batch(std::span<std::uint32_t> out) {
  // Local copies keep the recurrence out of memory inside the loop; the
  // emitted sequence is identical to repeated next() calls.
  std::uint64_t current = current_;
  std::uint64_t remaining = remaining_;
  const std::uint64_t step = step_;
  const std::uint64_t step_quotient = step_quotient_;
  const std::uint64_t prime = prime_;
  const std::uint64_t size = size_;

  std::size_t written = 0;
  while (written < out.size() && remaining > 0) {
    const std::uint64_t value = current;
    current = step_mod(current, step, step_quotient, prime);
    --remaining;
    if (value <= size) {
      out[written++] = static_cast<std::uint32_t>(value - 1);
    }
  }

  current_ = current;
  remaining_ = remaining;
  return written;
}

std::size_t CyclicGroup::Iterator::next_positions(
    std::span<std::uint64_t> out) {
  const std::size_t count =
      static_cast<std::size_t>(std::min<std::uint64_t>(out.size(), remaining_));
  std::uint64_t current = current_;
  const std::uint64_t step = step_;
  const std::uint64_t step_quotient = step_quotient_;
  const std::uint64_t prime = prime_;
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = current - 1;
    current = step_mod(current, step, step_quotient, prime);
  }
  current_ = current;
  remaining_ -= count;
  return count;
}

}  // namespace originscan::scan
