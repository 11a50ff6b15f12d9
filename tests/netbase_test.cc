#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "netbase/byteio.h"
#include "netbase/crc32.h"
#include "netbase/frame.h"
#include "netbase/interval_set.h"
#include "netbase/ipv4.h"
#include "netbase/rng.h"
#include "netbase/sha256.h"
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

TEST(ByteIO, SkipOfSizeMaxLatchesInsteadOfWrapping) {
  const std::vector<std::uint8_t> data = {1, 2, 3};
  ByteReader r(data);
  r.u8();
  r.skip(SIZE_MAX);  // pos + n wraps; the bound check must not
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteIO, StoresIntoPresizedMemory) {
  std::uint8_t buffer[8];
  EXPECT_EQ(store_u64(buffer, 0x0102030405060708ull), buffer + 8);
  EXPECT_EQ(load_u32(buffer), 0x01020304u);
  EXPECT_EQ(load_u32(buffer + 4), 0x05060708u);
}

// ----------------------------------------------------------------- CRC32 --

// The classic one-table bytewise CRC-32: the reference slice-by-8 must
// reproduce for every input.
std::uint32_t crc32_bytewise(std::span<const std::uint8_t> data,
                             std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (std::uint8_t byte : data) {
    c ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return ~c;
}

TEST(Crc32, CheckValue) {
  EXPECT_EQ(crc32(as_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32_bytewise(as_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, SliceBy8MatchesBytewiseAtEveryLengthAndOffset) {
  Rng rng(0xC3C);
  std::vector<std::uint8_t> data(1024 + 8);
  for (auto& byte : data) byte = static_cast<std::uint8_t>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 1024; ++length) {
      const std::span<const std::uint8_t> view(data.data() + offset, length);
      ASSERT_EQ(crc32(view), crc32_bytewise(view))
          << "offset " << offset << " length " << length;
      ASSERT_EQ(crc32(view, 0x5EED), crc32_bytewise(view, 0x5EED))
          << "seeded, offset " << offset << " length " << length;
    }
  }
}

// ---------------------------------------------------------------- SHA-256 --

std::string sha256_hex(std::string_view text) {
  return Sha256::hex(Sha256::of(as_bytes(text)));
}

// FIPS 180-4 examples (NIST CSRC "SHA256.pdf" / SHAVS short messages).
TEST(Sha256, NistVectors) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // The 448-bit message: the length field spills into a second block.
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijk"
                       "ijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAsInUnevenChunks) {
  const std::vector<std::uint8_t> a(1'000'000, 'a');
  const std::string want =
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
  EXPECT_EQ(Sha256::hex(Sha256::of(a)), want);
  // Chunk sizes that straddle the 64-byte block every way: partial
  // buffers, exact blocks, multi-block runs.
  const std::size_t chunks[] = {1, 63, 64, 65, 7, 128, 3, 1000, 55, 4096};
  Sha256 hasher;
  std::size_t offset = 0;
  for (std::size_t i = 0; offset < a.size(); ++i) {
    const std::size_t take =
        std::min(chunks[i % std::size(chunks)], a.size() - offset);
    hasher.update(std::span(a.data() + offset, take));
    offset += take;
  }
  EXPECT_EQ(Sha256::hex(hasher.finish()), want);
}

// Every padding shape: lengths around the 55/56-byte boundary where the
// length field spills into a second block.
TEST(Sha256, PaddingBoundariesMatchPortableKernel) {
  Rng rng(0x5A256);
  std::vector<std::uint8_t> data(200);
  for (auto& byte : data) byte = static_cast<std::uint8_t>(rng());
  for (std::size_t length = 0; length <= data.size(); ++length) {
    // The reference: pad by hand and run the portable compression only.
    std::vector<std::uint8_t> padded(data.begin(), data.begin() + length);
    padded.push_back(0x80);
    while (padded.size() % 64 != 56) padded.push_back(0);
    for (int i = 7; i >= 0; --i) {
      padded.push_back(static_cast<std::uint8_t>((length * 8) >> (8 * i)));
    }
    detail::Sha256State state = {0x6A09E667u, 0xBB67AE85u, 0x3C6EF372u,
                                 0xA54FF53Au, 0x510E527Fu, 0x9B05688Cu,
                                 0x1F83D9ABu, 0x5BE0CD19u};
    detail::sha256_compress_portable(state, padded.data(), padded.size() / 64);
    Sha256::Digest want;
    for (int i = 0; i < 8; ++i) {
      for (int b = 0; b < 4; ++b) {
        want[4 * i + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
      }
    }
    ASSERT_EQ(Sha256::of(std::span(data.data(), length)), want)
        << "length " << length;
  }
}

TEST(Sha256, ShaNiMatchesPortableOnRandomBlocks) {
  detail::Sha256State probe{};
  if (!detail::sha256_compress_shani(probe, nullptr, 0)) {
    GTEST_SKIP() << "this CPU or build has no SHA-NI";
  }
  Rng rng(0x5A);
  std::vector<std::uint8_t> blocks(64 * 37);
  for (int round = 0; round < 50; ++round) {
    for (auto& byte : blocks) byte = static_cast<std::uint8_t>(rng());
    detail::Sha256State portable;
    for (auto& word : portable) word = static_cast<std::uint32_t>(rng());
    detail::Sha256State shani = portable;
    const std::size_t count = 1 + rng() % 37;
    detail::sha256_compress_portable(portable, blocks.data(), count);
    ASSERT_TRUE(detail::sha256_compress_shani(shani, blocks.data(), count));
    ASSERT_EQ(shani, portable) << "round " << round << ", " << count
                               << " blocks";
  }
}

// ----------------------------------------------------------- FrameStream --

// A connected socketpair whose kernel buffers are shrunk to a few KiB, so
// a large frame crosses in many partial sends and receives.
std::pair<FrameStream, FrameStream> small_buffer_pair(bool nonblocking) {
  int sv[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  for (int fd : sv) {
    const int size = 4096;
    EXPECT_EQ(::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &size, sizeof size), 0);
    EXPECT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &size, sizeof size), 0);
    if (nonblocking) {
      EXPECT_TRUE(set_nonblocking(fd));
    }
  }
  return {FrameStream(sv[0]), FrameStream(sv[1])};
}

std::vector<std::uint8_t> random_payload(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> payload(size);
  for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng());
  return payload;
}

TEST(FrameStream, MultiMiBFrameCrossesNonblockingQueueFlushAndFill) {
  auto [writer, reader] = small_buffer_pair(/*nonblocking=*/true);
  const auto payload = random_payload(3u << 20, 1);
  writer.queue(encode_frame(payload));
  std::optional<std::vector<std::uint8_t>> got;
  int partial_flushes = 0;
  while (!got) {
    if (writer.flush_pending()) {
      const FrameStream::Io io = writer.flush();
      ASSERT_NE(io, FrameStream::Io::kClosed);
      if (io == FrameStream::Io::kPending) ++partial_flushes;
    }
    pollfd pfd{reader.fd(), POLLIN, 0};
    ASSERT_GE(::poll(&pfd, 1, 1000), 0);
    ASSERT_TRUE(reader.fill());
    got = reader.next();
    ASSERT_EQ(reader.error(), FrameError::kNone);
  }
  EXPECT_GT(partial_flushes, 0);  // the small buffers forced EAGAIN
  EXPECT_FALSE(writer.flush_pending());
  EXPECT_EQ(*got, payload);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameStream, BlockingReadParksOnANonblockingFd) {
  auto [writer, reader] = small_buffer_pair(/*nonblocking=*/true);
  const auto payload = random_payload(1u << 20, 2);
  // Both calls park in poll(): send_all on a full socket, read on an
  // empty one. Neither may treat EAGAIN as a failure.
  bool sent = false;
  std::thread sender([&writer = writer, &payload, &sent] {
    sent = writer.send_all(encode_frame(payload));
  });
  const auto got = reader.read();
  reader.close();  // a read that gave up early must not strand the sender
  sender.join();
  EXPECT_TRUE(sent);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

TEST(FrameStream, PeerClosingMidFrameReportsClosedWithBytesBuffered) {
  auto [writer, reader] = small_buffer_pair(/*nonblocking=*/true);
  const auto frame = encode_frame(random_payload(1000, 3));
  ASSERT_TRUE(writer.send_all(std::span(frame.data(), frame.size() / 2)));
  writer.close();
  EXPECT_FALSE(reader.fill());
  EXPECT_GT(reader.buffered(), 0u);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.error(), FrameError::kNone);  // torn, not corrupt
  EXPECT_FALSE(reader.read().has_value());       // EOF, not a hang

  // The other direction: a send to the closed peer reports kClosed (no
  // SIGPIPE) and drops the queue.
  reader.queue(frame);
  EXPECT_EQ(reader.flush(), FrameStream::Io::kClosed);
  EXPECT_FALSE(reader.flush_pending());
}

TEST(FrameStream, BitFlippedFramePoisonsTheStream) {
  auto [writer, reader] = small_buffer_pair(/*nonblocking=*/true);
  auto frame = encode_frame(random_payload(1000, 4));
  frame[500] ^= 0x40;  // inside the payload: the CRC no longer matches
  ASSERT_TRUE(writer.send_all(frame));
  ASSERT_TRUE(writer.send_all(encode_frame(random_payload(10, 5))));
  pollfd pfd{reader.fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 1000), 1);
  EXPECT_TRUE(reader.fill());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.error(), FrameError::kBadCrc);
  // No resynchronization: the valid frame behind it never surfaces.
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.read().has_value());
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
