// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320), slice-by-8.
// Used as a cheap bit-rot/truncation detector for on-disk formats (the
// .osnr v2 per-block footers and the experiment journal's sidecar files)
// and for every netbase/frame.h frame; SHA-256 (netbase/sha256.h) remains
// the integrity primitive where an adversarial or cross-machine guarantee
// is needed.
//
// Slice-by-8 folds eight input bytes per step through eight 256-entry
// tables (8 KiB, built at compile time): table k maps a byte to its CRC
// contribution k bytes further down the stream, so the eight lookups of
// one step are independent. Tail bytes take the classic one-table step.
// The value is the bytewise CRC's for every input (tests/netbase_test.cc
// pins it against a bytewise reference and the 0xCBF43926 check value).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace originscan::net {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

inline constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

// Four stream bytes as the little-endian word the reflected CRC consumes.
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

}  // namespace detail

// One-shot CRC32 of a byte span.
[[nodiscard]] inline std::uint32_t crc32(std::span<const std::uint8_t> data,
                                         std::uint32_t seed = 0) {
  const detail::Crc32Tables& t = detail::kCrc32Tables;
  std::uint32_t c = ~seed;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ detail::load_le32(p);
    const std::uint32_t hi = detail::load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return ~c;
}

}  // namespace originscan::net
