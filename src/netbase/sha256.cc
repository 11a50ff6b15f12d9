#include "netbase/sha256.h"

#include <cstring>

#include "netbase/byteio.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define OSN_SHA256_SHANI 1
#include <immintrin.h>
#endif

namespace originscan::net {
namespace {

constexpr std::uint32_t kInit[8] = {
    0x6A09E667u, 0xBB67AE85u, 0x3C6EF372u, 0xA54FF53Au,
    0x510E527Fu, 0x9B05688Cu, 0x1F83D9ABu, 0x5BE0CD19u,
};

constexpr std::uint32_t kRound[64] = {
    0x428A2F98u, 0x71374491u, 0xB5C0FBCFu, 0xE9B5DBA5u, 0x3956C25Bu,
    0x59F111F1u, 0x923F82A4u, 0xAB1C5ED5u, 0xD807AA98u, 0x12835B01u,
    0x243185BEu, 0x550C7DC3u, 0x72BE5D74u, 0x80DEB1FEu, 0x9BDC06A7u,
    0xC19BF174u, 0xE49B69C1u, 0xEFBE4786u, 0x0FC19DC6u, 0x240CA1CCu,
    0x2DE92C6Fu, 0x4A7484AAu, 0x5CB0A9DCu, 0x76F988DAu, 0x983E5152u,
    0xA831C66Du, 0xB00327C8u, 0xBF597FC7u, 0xC6E00BF3u, 0xD5A79147u,
    0x06CA6351u, 0x14292967u, 0x27B70A85u, 0x2E1B2138u, 0x4D2C6DFCu,
    0x53380D13u, 0x650A7354u, 0x766A0ABBu, 0x81C2C92Eu, 0x92722C85u,
    0xA2BFE8A1u, 0xA81A664Bu, 0xC24B8B70u, 0xC76C51A3u, 0xD192E819u,
    0xD6990624u, 0xF40E3585u, 0x106AA070u, 0x19A4C116u, 0x1E376C08u,
    0x2748774Cu, 0x34B0BCB5u, 0x391C0CB3u, 0x4ED8AA4Au, 0x5B9CCA4Fu,
    0x682E6FF3u, 0x748F82EEu, 0x78A5636Fu, 0x84C87814u, 0x8CC70208u,
    0x90BEFFFAu, 0xA4506CEBu, 0xBEF9A3F7u, 0xC67178F2u,
};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

#ifdef OSN_SHA256_SHANI

// Intel's SHA-NI schedule. The state lives as ABEF/CDGH halves; each
// sha256rnds2 runs two rounds, so a 4-round group is two of them around
// a lane shuffle. W[16..63] is built four words at a time in a ring of
// four registers: msg1 starts the word group three groups ahead, msg2
// finishes the next one.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(
    detail::Sha256State& state, const std::uint8_t* data,
    std::size_t blocks) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0C0D0E0F08090A0BLL, 0x0405060700010203LL);
  __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = w[g & 3];
      __m128i& prev = w[(g + 3) & 3];
      if (g < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            byte_swap);
      }
      __m128i msg = _mm_add_epi32(
          cur, _mm_loadu_si128(
                   reinterpret_cast<const __m128i*>(&kRound[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      if (g >= 3 && g <= 14) {
        __m128i& next = w[(g + 1) & 3];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, prev, 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      msg = _mm_shuffle_epi32(msg, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
      if (g >= 1 && g <= 12) prev = _mm_sha256msg1_epu32(prev, cur);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), hgfe);
}

#endif  // OSN_SHA256_SHANI

// SHA-NI where the CPU has it (checked once per process), else portable.
void compress(detail::Sha256State& state, const std::uint8_t* data,
              std::size_t blocks) {
  if (blocks == 0) return;
  if (!detail::sha256_compress_shani(state, data, blocks)) {
    detail::sha256_compress_portable(state, data, blocks);
  }
}

}  // namespace

namespace detail {

void sha256_compress_portable(Sha256State& state, const std::uint8_t* data,
                              std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_u32(data + 4 * i);
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

bool sha256_compress_shani(Sha256State& state, const std::uint8_t* data,
                           std::size_t blocks) {
#ifdef OSN_SHA256_SHANI
  static const bool supported = __builtin_cpu_supports("sha") &&
                                __builtin_cpu_supports("sse4.1") &&
                                __builtin_cpu_supports("ssse3");
  if (!supported) return false;
  compress_shani(state, data, blocks);
  return true;
#else
  (void)state;
  (void)data;
  (void)blocks;
  return false;
#endif
}

}  // namespace detail

Sha256::Sha256() {
  for (int i = 0; i < 8; ++i) state_[i] = kInit[i];
}

void Sha256::update(std::span<const std::uint8_t> data) {
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ < 64) return;
    compress(state_, buffer_.data(), 1);
    buffered_ = 0;
  }
  const std::size_t blocks = (data.size() - offset) / 64;
  compress(state_, data.data() + offset, blocks);
  offset += blocks * 64;
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Sha256::Digest Sha256::finish() {
  // Padding: 0x80, zeros up to 56 mod 64, then the big-endian bit length.
  const std::uint64_t bit_length = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, 64 - buffered_);
    compress(state_, buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  store_u64(buffer_.data() + 56, bit_length);
  compress(state_, buffer_.data(), 1);

  Digest digest;
  for (int i = 0; i < 8; ++i) store_u32(digest.data() + 4 * i, state_[i]);
  return digest;
}

Sha256::Digest Sha256::of(std::span<const std::uint8_t> data) {
  Sha256 hasher;
  hasher.update(data);
  return hasher.finish();
}

std::string Sha256::hex(const Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xF]);
  }
  return out;
}

}  // namespace originscan::net
