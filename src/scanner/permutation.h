// ZMap's address randomization: iterate a cyclic multiplicative group of
// integers modulo a prime p slightly larger than the scan space. The
// iteration x -> x * g (mod p) visits every element of [1, p-1] exactly
// once per cycle; values above the scan-space size are skipped. A scan
// can be split into shards that partition the sequence (every k-th
// element), exactly as ZMap's --shards option does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

namespace originscan::scan {

// Deterministic Miller-Rabin for 64-bit integers.
bool is_prime_u64(std::uint64_t n);

// Smallest prime strictly greater than n.
std::uint64_t next_prime_above(std::uint64_t n);

// (a * b) mod m without overflow.
std::uint64_t mulmod_u64(std::uint64_t a, std::uint64_t b, std::uint64_t m);
std::uint64_t powmod_u64(std::uint64_t base, std::uint64_t exp,
                         std::uint64_t m);

class CyclicGroup {
 public:
  // Builds the group for a scan space of `size` addresses (values emitted
  // are in [0, size)). The generator and starting point are derived from
  // `seed`, so the same seed reproduces the same scan order — the
  // property the paper relies on to synchronize scanners.
  static CyclicGroup for_size(std::uint64_t size, std::uint64_t seed);

  [[nodiscard]] std::uint64_t prime() const { return prime_; }
  [[nodiscard]] std::uint64_t generator() const { return generator_; }
  [[nodiscard]] std::uint64_t size() const { return size_; }

  // Iterates one shard's subsequence. Shard i of k takes the positions
  // of the full sequence congruent to i mod k (start at start * g^i,
  // step by g^k, emit ceil((p-1-i)/k) elements); together the shards
  // partition [1, p-1] regardless of gcd(k, p-1).
  class Iterator {
   public:
    // Returns the next address in [0, size), or nullopt at end of shard.
    std::optional<std::uint64_t> next();

    // Fills `out` with the next addresses of this shard, in exactly the
    // order next() would return them, and returns how many were written
    // (short only at end of shard). Batching keeps the modmul recurrence
    // in registers across the batch instead of bouncing the iterator
    // state through memory once per address — the send loop consumes
    // these by the few-hundred.
    std::size_t next_batch(std::span<std::uint32_t> out);

    // Steps over the next out.size() positions of this shard (fewer only
    // at end of shard) and writes each one's group element minus one:
    // its address when below size(), a position the scan space skips
    // otherwise. Returns how many positions were stepped. Shard i of k
    // owns the positions congruent to i mod k of the full sequence
    // (0-based over [0, p-2]), so its n-th entry is position i + n * k;
    // interleaving shards by position reconstructs the serial order.
    std::size_t next_positions(std::span<std::uint64_t> out);

    // The walk x, x * step, x * step^2, ... (mod prime) of `count`
    // elements from `start`, emitting those at most `size` as addresses.
    // shard() builds one; any start in [1, prime-1] and step in
    // [1, prime-1] is a valid walk, for a prime below 2^63.
    Iterator(std::uint64_t start, std::uint64_t step, std::uint64_t prime,
             std::uint64_t size, std::uint64_t count);

   private:
    // x * step mod prime for x < prime, without a division: Shoup's
    // precomputed quotient step_quotient = floor(step * 2^64 / prime)
    // gives q = floor(x * step_quotient / 2^64), off from the true
    // quotient by at most one, so x * step - q * prime (mod 2^64) lies in
    // [0, 2 * prime) and one conditional subtract finishes it.
    static std::uint64_t step_mod(std::uint64_t x, std::uint64_t step,
                                  std::uint64_t step_quotient,
                                  std::uint64_t prime) {
      const auto q = static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(x) * step_quotient) >> 64);
      const std::uint64_t r = x * step - q * prime;
      return r >= prime ? r - prime : r;
    }

    std::uint64_t current_;
    std::uint64_t step_;
    std::uint64_t step_quotient_;
    std::uint64_t prime_;
    std::uint64_t size_;
    std::uint64_t remaining_;
  };

  [[nodiscard]] Iterator shard(std::uint32_t index,
                               std::uint32_t count) const;
  [[nodiscard]] Iterator all() const { return shard(0, 1); }

 private:
  CyclicGroup(std::uint64_t prime, std::uint64_t generator,
              std::uint64_t start, std::uint64_t size)
      : prime_(prime), generator_(generator), start_(start), size_(size) {}

  std::uint64_t prime_;
  std::uint64_t generator_;
  std::uint64_t start_;
  std::uint64_t size_;
};

}  // namespace originscan::scan
