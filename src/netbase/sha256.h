// SHA-256 (FIPS 180-4), self-contained: golden-trace digests must be
// stable across platforms and toolchains, so we do not depend on any
// system crypto library.
//
// Every grid cell's record region is hashed on the worker, on the master
// and when the journal adopts it, so the compression function is on the
// grid's serial path. It runs on the x86 SHA extensions (SHA-NI) where
// the CPU has them, chosen once at run time with __builtin_cpu_supports;
// the portable C++ compression is the fallback on every other CPU and
// build, and the reference both are pinned to (tests/netbase_test.cc).
// The two give the same digest for every input.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace originscan::net {

class Sha256 {
 public:
  using Digest = std::array<std::uint8_t, 32>;

  Sha256();

  void update(std::span<const std::uint8_t> data);

  // Finalizes and returns the digest. The hasher must not be reused
  // afterwards.
  [[nodiscard]] Digest finish();

  // One-shot convenience.
  static Digest of(std::span<const std::uint8_t> data);

  // Lower-case hex encoding of a digest.
  static std::string hex(const Digest& digest);

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

namespace detail {

using Sha256State = std::array<std::uint32_t, 8>;

// The compression function over `blocks` consecutive 64-byte blocks.
void sha256_compress_portable(Sha256State& state, const std::uint8_t* data,
                              std::size_t blocks);
// The same function on SHA-NI. Returns false, with `state` untouched,
// where the CPU or the build lacks the extensions.
bool sha256_compress_shani(Sha256State& state, const std::uint8_t* data,
                           std::size_t blocks);

}  // namespace detail

}  // namespace originscan::net
