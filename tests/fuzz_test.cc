// Robustness ("poor man's fuzz") tests: every wire-format parser in the
// library must survive random bytes and random mutations of valid
// messages without crashing, and round-trip anything it accepts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "core/dist.h"
#include "core/store.h"
#include "faultinject/faultinject.h"
#include "netbase/byteio.h"
#include "netbase/frame.h"
#include "netbase/rng.h"
#include "proto/http.h"
#include "proto/ssh.h"
#include "proto/tls.h"
#include "scanner/blocklist.h"
#include "scanner/permutation.h"
#include "scanner/zgrab.h"
#include "service/wire.h"
#include "sim/internet.h"
#include "sim/server.h"
#include "tests/test_world.h"

namespace originscan {
namespace {

std::vector<std::uint8_t> random_bytes(net::Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> out(rng.below(max_len + 1));
  for (auto& byte : out) byte = static_cast<std::uint8_t>(rng());
  return out;
}

// Flip a few random bits/bytes of a valid message.
std::vector<std::uint8_t> mutate(net::Rng& rng,
                                 std::vector<std::uint8_t> bytes) {
  if (bytes.empty()) return bytes;
  const int mutations = 1 + static_cast<int>(rng.below(4));
  for (int i = 0; i < mutations; ++i) {
    switch (rng.below(3)) {
      case 0:  // flip a bit
        bytes[rng.below(bytes.size())] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
        break;
      case 1:  // truncate
        bytes.resize(rng.below(bytes.size() + 1));
        break;
      default:  // append garbage
        bytes.push_back(static_cast<std::uint8_t>(rng()));
        break;
    }
    if (bytes.empty()) break;
  }
  return bytes;
}

TEST(Fuzz, HandleProbeBatchSurvivesGarbageBatches) {
  // The batch classifier consumes whatever the resolver left in the SoA
  // arrays; feed it arbitrary garbage instead — out-of-range AS ids,
  // random sent masks, absurd timestamps, unresolved hosts. It must
  // never crash, and its output can only narrow the sent mask: a live
  // probe implies the lane was sent, routed, and has a host.
  auto world = originscan::testing::make_mini_world();
  sim::TrialContext context;
  context.experiment_seed = world.seed;
  sim::PersistentState persistent;
  sim::Internet internet(&world, context, &persistent);
  auto probe_context = internet.probe_context(0, proto::Protocol::kHttp);
  const std::size_t as_count = world.topology.as_count();

  net::Rng rng(0xBA7CFull);
  sim::ProbeBatch batch;
  for (int iter = 0; iter < 2000; ++iter) {
    batch.size = 1 + static_cast<int>(rng.below(sim::ProbeBatch::kCapacity));
    batch.probes =
        1 + static_cast<int>(rng.below(sim::ProbeBatch::kMaxProbes));
    for (int i = 0; i < batch.size; ++i) {
      batch.addr[i] = net::Ipv4Addr(static_cast<std::uint32_t>(rng()));
      switch (rng.below(3)) {
        case 0:
          batch.as[i] = sim::kNoAs;
          break;
        case 1:  // arbitrary garbage, usually far out of range
          batch.as[i] = static_cast<sim::AsId>(rng());
          break;
        default:
          batch.as[i] = static_cast<sim::AsId>(rng.below(as_count));
          break;
      }
      batch.has_host[i] = static_cast<std::uint8_t>(rng.below(2));
      batch.sent_mask[i] = static_cast<std::uint8_t>(rng());
      batch.live_mask[i] = static_cast<std::uint8_t>(rng());
      for (int p = 0; p < batch.probes; ++p) {
        batch.time_us[p * sim::ProbeBatch::kCapacity + i] =
            static_cast<std::int64_t>(rng());
      }
    }
    internet.handle_probe_batch(probe_context, batch);
    for (int i = 0; i < batch.size; ++i) {
      const auto sent_bits = static_cast<std::uint8_t>(
          batch.sent_mask[i] & ((1u << batch.probes) - 1));
      EXPECT_EQ(batch.live_mask[i] & ~sent_bits, 0) << iter << " " << i;
      if (batch.live_mask[i] != 0) {
        EXPECT_NE(batch.has_host[i], 0);
        EXPECT_LT(batch.as[i], as_count);
      }
    }
  }
}

// Feeds `bytes` to a fresh server for `protocol` (after its greeting),
// as a peer would: it must answer or wait, never crash.
void feed_server(proto::Protocol protocol,
                 std::span<const std::uint8_t> bytes) {
  sim::Host host;
  host.addr = net::Ipv4Addr(10, 0, 0, 1);
  host.services = 0b111;
  host.seed = bytes.size();
  sim::Server server;
  server.start(host, protocol);
  std::vector<std::uint8_t> out;
  server.greet(out);
  (void)server.on_bytes(bytes, out);
  (void)server.on_bytes(bytes, out);  // and again, on top of any leftover
}

TEST(Fuzz, TlsRecordAndHandshakeParsers) {
  net::Rng rng(103);
  std::vector<std::uint8_t> valid;
  proto::wrap_handshake(valid, proto::TlsHandshakeType::kClientHello,
                        [](auto& body) {
                          proto::write_client_hello(
                              body, proto::chrome_cipher_suites(),
                              "fuzz.example");
                        });

  for (int i = 0; i < 5000; ++i) {
    const auto bytes = i % 2 == 0 ? random_bytes(rng, 200)
                                  : mutate(rng, valid);
    feed_server(proto::Protocol::kHttps, bytes);
    std::size_t consumed = 0;
    auto record = proto::TlsRecord::parse(bytes, consumed);
    if (!record) continue;
    EXPECT_LE(consumed, bytes.size());
    proto::HandshakeWalker messages(record->fragment);
    while (const auto message = messages.next()) {
      // Sub-parsers must tolerate arbitrary bodies.
      (void)proto::ClientHello::parse(message->body);
      (void)proto::ServerHello::parse(message->body);
      (void)proto::Certificate::parse(message->body);
    }
  }
}

TEST(Fuzz, SshParsers) {
  net::Rng rng(104);
  std::vector<std::uint8_t> valid;
  const std::size_t packet = proto::begin_ssh_packet(valid);
  proto::SshKexInit{}.write(valid);
  proto::end_ssh_packet(valid, packet, 9);

  for (int i = 0; i < 5000; ++i) {
    const auto bytes = i % 2 == 0 ? random_bytes(rng, 200)
                                  : mutate(rng, valid);
    auto parsed = proto::SshPacket::parse(bytes);
    if (parsed) {
      (void)proto::SshKexInit::parse(parsed->payload);
    }
    // Identification-line parser on random text.
    (void)proto::SshIdentification::parse(net::as_text(bytes));
    feed_server(proto::Protocol::kSsh, bytes);
  }
}

TEST(Fuzz, HttpParsers) {
  net::Rng rng(105);
  std::vector<std::uint8_t> valid_request;
  proto::HttpRequest{}.write(valid_request);
  std::vector<std::uint8_t> valid_response;
  proto::HttpResponse{.title = "t"}.write(valid_response);

  for (int i = 0; i < 5000; ++i) {
    const auto bytes = i % 3 == 0 ? random_bytes(rng, 300)
                                  : mutate(rng, i % 2 == 0 ? valid_request
                                                           : valid_response);
    const std::string_view text = net::as_text(bytes);
    (void)proto::HttpRequest::parse(text);
    (void)proto::HttpResponse::parse(text);
    (void)proto::extract_title(text);
    feed_server(proto::Protocol::kHttp, bytes);
  }
}

// Round trip through the real client: for every host of a seeded world
// and each protocol, ZGrab reads the server's flight back to exactly the
// banner that host must give — its page title, the suite the server
// picks from Chrome's list as 0x%04X, or its SSH software version. With
// every banner truncated to its first half (banner_trunc), the same
// grabs are all rejected as protocol errors, without crashing.
TEST(Fuzz, L7FlightsRoundTripAndTruncationsAreRejected) {
  auto world = originscan::testing::make_mini_world({.blocks_per_as = 4});
  sim::PersistentState persistent;
  sim::TrialContext context;
  context.experiment_seed = world.seed;
  sim::Internet internet(&world, context, &persistent);
  auto plan = fault::FaultPlan::parse("banner_trunc:host%1==0");
  ASSERT_TRUE(plan.has_value());
  const fault::FaultInjector truncate_all(*plan, 0x7A5Eu);
  const net::Ipv4Addr source = world.origins[0].source_ips[0];

  char suite[8];
  std::snprintf(suite, sizeof(suite), "0x%04X",
                proto::chrome_cipher_suites().front());
  std::size_t grabs = 0;
  for (proto::Protocol protocol : proto::kAllProtocols) {
    scan::ZGrabEngine clean({.protocol = protocol}, &internet, 0);
    scan::ZGrabEngine truncated({.protocol = protocol, .faults = &truncate_all},
                                &internet, 0);
    for (std::uint32_t a = 0; a < world.universe_size; ++a) {
      const net::Ipv4Addr addr(a);
      const auto host = world.host_at(addr);
      if (!host || !host->runs(protocol)) continue;
      const std::string expected =
          protocol == proto::Protocol::kHttp ? "host-" + addr.to_string()
          : protocol == proto::Protocol::kHttps
              ? std::string(suite)
              : std::string(sim::ssh_server_software(host->seed));
      const auto full = clean.grab(source, addr, {});
      ASSERT_EQ(full.outcome, sim::L7Outcome::kCompleted) << addr.to_string();
      EXPECT_EQ(full.banner, expected);
      const auto half = truncated.grab(source, addr, {});
      EXPECT_EQ(half.outcome, sim::L7Outcome::kProtocolError)
          << proto::name_of(protocol) << " " << addr.to_string();
      EXPECT_TRUE(half.banner.empty());
      ++grabs;
    }
  }
  EXPECT_GT(grabs, 3u * 2000u);
}

TEST(Fuzz, StoreParserSurvivesMutations) {
  net::Rng rng(106);
  std::vector<scan::ScanResult> results(2);
  results[0].origin_code = "AU";
  results[1].origin_code = "CEN";
  results[1].trial = 1;
  for (int i = 0; i < 20; ++i) {
    scan::ScanRecord record;
    record.addr = net::Ipv4Addr(static_cast<std::uint32_t>(i * 7));
    results[i % 2].records.push_back(record);
  }
  const auto valid = core::serialize_results(results);
  for (int i = 0; i < 5000; ++i) {
    const auto bytes = i % 2 == 0 ? random_bytes(rng, 400)
                                  : mutate(rng, valid);
    (void)core::parse_results(bytes);  // must neither crash nor overalloc
  }
}

TEST(Fuzz, StoreV2TruncationsAndBitFlips) {
  // Directed variant of the mutation fuzz for the CRC'd v2 format:
  // every truncation must be rejected, and random bit flips must never
  // crash (single flips are also always *detected* — store_test sweeps
  // that property exhaustively).
  net::Rng rng(112);
  std::vector<scan::ScanResult> results(2);
  results[0].origin_code = "ONE";
  results[1].origin_code = "TWO";
  results[1].trial = 1;
  for (int i = 0; i < 30; ++i) {
    scan::ScanRecord record;
    record.addr = net::Ipv4Addr(static_cast<std::uint32_t>(i * 13));
    record.synack_mask = static_cast<std::uint8_t>(i & 3);
    results[i % 2].records.push_back(record);
  }
  const auto valid = core::serialize_results(results);
  ASSERT_TRUE(core::parse_results(valid).has_value());

  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    auto truncated = valid;
    truncated.resize(cut);
    EXPECT_FALSE(core::parse_results(truncated).has_value()) << "cut=" << cut;
  }
  for (int i = 0; i < 5000; ++i) {
    auto flipped = valid;
    const int flips = 1 + static_cast<int>(rng.below(8));
    for (int f = 0; f < flips; ++f) {
      flipped[rng.below(flipped.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    (void)core::parse_results(flipped);  // must not crash or overalloc
  }
}

TEST(Fuzz, Ipv4AndPrefixParsers) {
  net::Rng rng(107);
  const char alphabet[] = "0123456789./abcx -";
  for (int i = 0; i < 20000; ++i) {
    std::string text;
    const std::size_t length = rng.below(24);
    for (std::size_t j = 0; j < length; ++j) {
      text.push_back(alphabet[rng.below(sizeof(alphabet) - 1)]);
    }
    const auto addr = net::Ipv4Addr::parse(text);
    if (addr) {
      EXPECT_EQ(net::Ipv4Addr::parse(addr->to_string()), addr);
    }
    const auto prefix = net::Prefix::parse(text);
    if (prefix) {
      EXPECT_EQ(net::Prefix::parse(prefix->to_string()), prefix);
    }
  }
}

TEST(Fuzz, FaultSpecParserSurvivesGarbage) {
  net::Rng rng(108);
  // Biased toward the spec grammar's alphabet so mutations stay near the
  // parseable frontier (pure noise rarely reaches the deep code paths).
  const char alphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789:;,=%._ -drop:slot=p&";
  for (int i = 0; i < 20000; ++i) {
    std::string spec;
    const std::size_t length = rng.below(64);
    for (std::size_t j = 0; j < length; ++j) {
      spec.push_back(alphabet[rng.below(sizeof(alphabet) - 1)]);
    }
    std::string error;
    const auto plan = fault::FaultPlan::parse(spec, &error);
    if (plan) {
      // Anything accepted must round-trip through its own rendering.
      const auto reparsed = fault::FaultPlan::parse(plan->to_string());
      ASSERT_TRUE(reparsed.has_value()) << plan->to_string();
      EXPECT_EQ(plan->to_string(), reparsed->to_string());
    } else {
      EXPECT_FALSE(error.empty()) << spec;
    }
  }
}

TEST(Fuzz, FaultSpecParserSurvivesMutations) {
  net::Rng rng(109);
  const std::string valid =
      "drop:slot=1024..2048,p=0.3;outage:sec=0..600,origin=1;"
      "send_fail:slot=0..99,p=1;mac_corrupt:slot=5..6,p=0.5;"
      "rst:host%7==0,attempts=2;banner_trunc:host%3==1;"
      "banner_stall:host%5==4,p=0.25;segment_corrupt:file=3,count=2;"
      "cell_crash:cell=3;cell_hang:cell=1,sec=60,attempts=2";
  const std::vector<std::uint8_t> valid_bytes(valid.begin(), valid.end());
  for (int i = 0; i < 20000; ++i) {
    const auto mutated = mutate(rng, valid_bytes);
    const std::string spec(mutated.begin(), mutated.end());
    const auto plan = fault::FaultPlan::parse(spec);  // must not crash
    if (plan) {
      const auto reparsed = fault::FaultPlan::parse(plan->to_string());
      ASSERT_TRUE(reparsed.has_value()) << plan->to_string();
    }
  }
}

TEST(Fuzz, FaultSpecRejectsOverflowAndEmpty) {
  // The non-negotiable rejections: overflow slots, inverted ranges, and
  // empty input must error (with a reason), never crash or accept.
  const char* bad[] = {
      "",
      "   ",
      ";",
      "drop:slot=18446744073709551615..18446744073709551616,p=1",
      "drop:slot=99999999999999999999999999..5,p=1",
      "drop:slot=7..3,p=1",
      "outage:sec=100..1",
      "segment_corrupt:file=18446744073709551616",
      "rst:host%4294967296==0",
  };
  for (const char* spec : bad) {
    std::string error;
    EXPECT_FALSE(fault::FaultPlan::parse(spec, &error).has_value()) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

TEST(Fuzz, BlocklistParserSurvivesGarbage) {
  net::Rng rng(110);
  const char alphabet[] = "0123456789./# \nabcdefx-";
  for (int i = 0; i < 10000; ++i) {
    std::string body;
    const std::size_t length = rng.below(120);
    for (std::size_t j = 0; j < length; ++j) {
      body.push_back(alphabet[rng.below(sizeof(alphabet) - 1)]);
    }
    scan::Blocklist blocklist;
    const auto added = blocklist.load(body);  // must not crash
    if (added.has_value()) {
      // Whatever loaded must answer membership queries sanely.
      (void)blocklist.is_blocked(net::Ipv4Addr(rng.below(1u << 16)));
      EXPECT_LE(*added, 120u);
    }
  }
  // A valid body keeps working after the garbage barrage.
  scan::Blocklist blocklist;
  const auto added = blocklist.load("# comment\n10.0.0.0/8\n\n192.168.1.1\n");
  ASSERT_TRUE(added.has_value());
  EXPECT_EQ(*added, 2u);
  EXPECT_TRUE(blocklist.is_blocked(net::Ipv4Addr(10, 1, 2, 3)));
}

TEST(Fuzz, FrameCodecTruncationsBitFlipsOversizeAndDuplicates) {
  // The framing layer under the journal segments and the dist wire
  // protocol: every mangled input must come back as a classified
  // FrameError (or a clean parse when the CRC happens to survive),
  // never a crash, and a lying length field must never over-allocate.
  net::Rng rng(114);
  const auto payload = random_bytes(rng, 64);
  const auto valid = net::encode_frame(payload);

  // Every truncation of a single-frame buffer is kTruncated.
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    auto truncated = valid;
    truncated.resize(cut);
    std::span<const std::uint8_t> out;
    EXPECT_EQ(net::parse_single_frame(truncated, out),
              net::FrameError::kTruncated)
        << "cut=" << cut;
  }

  // A duplicated frame is trailing garbage for the file-shaped parser
  // but two clean frames for the stream decoder.
  auto doubled = valid;
  doubled.insert(doubled.end(), valid.begin(), valid.end());
  std::span<const std::uint8_t> single;
  EXPECT_NE(net::parse_single_frame(doubled, single), net::FrameError::kNone);
  net::FrameDecoder stream;
  stream.feed(doubled);
  for (int i = 0; i < 2; ++i) {
    const auto frame = stream.next();
    ASSERT_TRUE(frame.has_value()) << "frame " << i;
    EXPECT_TRUE(std::equal(frame->begin(), frame->end(), payload.begin(),
                           payload.end()));
  }
  EXPECT_FALSE(stream.next().has_value());
  EXPECT_EQ(stream.buffered(), 0u);

  // An oversized declared length poisons the decoder before any
  // allocation in its size class can happen.
  std::vector<std::uint8_t> oversized = {0xFF, 0xFF, 0xFF, 0xFF, 0x00};
  net::FrameDecoder capped(/*max_payload=*/1024);
  capped.feed(oversized);
  EXPECT_FALSE(capped.next().has_value());
  EXPECT_EQ(capped.error(), net::FrameError::kOversized);

  // Random mutations: classified or parsed, never a crash; a decoder
  // that survives must either yield frames or report why not.
  for (int i = 0; i < 5000; ++i) {
    const auto mangled = i % 2 == 0 ? random_bytes(rng, 128)
                                    : mutate(rng, valid);
    std::span<const std::uint8_t> out;
    (void)net::parse_single_frame(mangled, out);
    net::FrameDecoder decoder(/*max_payload=*/4096);
    decoder.feed(mangled);
    while (decoder.next().has_value()) {
    }
    if (decoder.error() == net::FrameError::kNone) {
      EXPECT_LE(decoder.buffered(), mangled.size());
    }
  }
}

TEST(Fuzz, DistMessageCodecRoundTripsAndSurvivesMutations) {
  net::Rng rng(115);
  // One representative valid frame per message type.
  std::vector<std::vector<std::uint8_t>> valid;
  {
    core::WireMessage hello;
    hello.type = core::MsgType::kHello;
    hello.worker = 7;
    core::WireMessage claim;
    claim.type = core::MsgType::kClaim;
    core::WireMessage grant;
    grant.type = core::MsgType::kGrant;
    grant.origin = 3;
    grant.chain_pos = 5;
    grant.grant = 1;
    grant.have_snapshot = true;
    grant.snapshot = random_bytes(rng, 48);
    core::WireMessage segment;
    segment.type = core::MsgType::kSegment;
    segment.slot = 42;
    segment.kind = core::SegmentKind::kIds;
    segment.bytes = random_bytes(rng, 96);
    core::WireMessage done;
    done.type = core::MsgType::kDone;
    done.slot = 42;
    done.attempts = 2;
    done.sha256 = "abc123";
    core::WireMessage abort_msg;
    abort_msg.type = core::MsgType::kAbort;
    abort_msg.text = "cell_crash fault";
    for (const auto* message :
         {&hello, &claim, &grant, &segment, &done, &abort_msg}) {
      valid.push_back(core::encode_message(*message));
      // Round trip: the frame decodes back to the same typed fields.
      net::FrameDecoder decoder;
      decoder.feed(valid.back());
      const auto payload = decoder.next();
      ASSERT_TRUE(payload.has_value());
      const auto decoded = core::decode_message(*payload);
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(decoded->type, message->type);
      EXPECT_EQ(decoded->worker, message->worker);
      EXPECT_EQ(decoded->origin, message->origin);
      EXPECT_EQ(decoded->chain_pos, message->chain_pos);
      EXPECT_EQ(decoded->grant, message->grant);
      EXPECT_EQ(decoded->have_snapshot, message->have_snapshot);
      EXPECT_EQ(decoded->snapshot, message->snapshot);
      EXPECT_EQ(decoded->slot, message->slot);
      EXPECT_EQ(decoded->kind, message->kind);
      EXPECT_EQ(decoded->bytes, message->bytes);
      EXPECT_EQ(decoded->attempts, message->attempts);
      EXPECT_EQ(decoded->lost, message->lost);
      EXPECT_EQ(decoded->sha256, message->sha256);
      EXPECT_EQ(decoded->text, message->text);
    }
  }

  // The master's exact ingestion path under mutation: frame decode, then
  // message decode of whatever payloads survive the CRC. Both must
  // classify (decoder error / nullopt message), never crash.
  for (int i = 0; i < 5000; ++i) {
    const auto& base = valid[rng.below(valid.size())];
    const auto mangled = i % 3 == 0 ? random_bytes(rng, 160)
                                    : mutate(rng, base);
    net::FrameDecoder decoder;
    decoder.feed(mangled);
    while (auto payload = decoder.next()) {
      (void)core::decode_message(*payload);
    }
  }

  // Raw payload fuzz (bypassing the CRC): decode_message alone must
  // reject garbage without crashing or over-allocating.
  for (int i = 0; i < 5000; ++i) {
    (void)core::decode_message(random_bytes(rng, 96));
  }
}

TEST(Fuzz, SegmentMergerDigestIsInterleavingInvariant) {
  // The merge-commutativity property the distributed master relies on:
  // any arrival order of the same keyed segments — including duplicated
  // deliveries after a worker retry — produces the same digest.
  net::Rng rng(116);
  for (int round = 0; round < 200; ++round) {
    const std::size_t slots = 1 + rng.below(6);
    struct Entry {
      std::uint64_t slot;
      core::SegmentKind kind;
      std::vector<std::uint8_t> bytes;
    };
    std::vector<Entry> entries;
    for (std::uint64_t slot = 0; slot < slots; ++slot) {
      for (auto kind : {core::SegmentKind::kRecords, core::SegmentKind::kIds,
                        core::SegmentKind::kMetrics}) {
        entries.push_back({slot, kind, random_bytes(rng, 32)});
      }
    }

    core::SegmentMerger reference;
    for (const auto& entry : entries) {
      reference.add(entry.slot, entry.kind, entry.bytes);
    }
    const std::string expected = reference.digest();

    // A few random interleavings, each with random duplicate deliveries.
    for (int perm = 0; perm < 4; ++perm) {
      auto shuffled = entries;
      for (std::size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
      }
      core::SegmentMerger merger;
      for (const auto& entry : shuffled) {
        merger.add(entry.slot, entry.kind, entry.bytes);
        if (rng.below(4) == 0) {  // duplicated frame: last write wins
          merger.add(entry.slot, entry.kind, entry.bytes);
        }
      }
      EXPECT_EQ(merger.digest(), expected) << "round=" << round;
      for (std::uint64_t slot = 0; slot < slots; ++slot) {
        EXPECT_TRUE(merger.complete(slot));
      }
      // Rollback erases the slot completely; re-adding restores the
      // exact digest (what a chain re-grant does after a worker death).
      merger.drop_slot(0);
      EXPECT_FALSE(merger.complete(0));
      EXPECT_NE(merger.digest(), expected);
      for (const auto& entry : entries) {
        if (entry.slot == 0) merger.add(entry.slot, entry.kind, entry.bytes);
      }
      EXPECT_EQ(merger.digest(), expected);
    }
  }
}

TEST(Fuzz, ServiceMessageCodecRoundTripsAndSurvivesMutations) {
  net::Rng rng(117);
  // One representative valid frame per service message type.
  std::vector<std::vector<std::uint8_t>> valid;
  {
    service::ServiceWire hello;
    hello.type = service::ServiceMsg::kHello;
    service::ServiceWire ack;
    ack.type = service::ServiceMsg::kHelloAck;
    ack.universe_seed = 0x05CA9;
    ack.universe_size = 1u << 12;
    service::ServiceWire submit;
    submit.type = service::ServiceMsg::kSubmit;
    submit.request_id = 7;
    submit.tenant = 3;
    submit.origin_code = "US64";
    submit.protocol = proto::Protocol::kSsh;
    submit.trial = 2;
    submit.probes = 1;
    submit.retries = 1;
    service::ServiceWire status;
    status.type = service::ServiceMsg::kStatus;
    status.request_id = 7;
    status.state = service::SessionState::kQueued;
    status.queue_position = 4;
    service::ServiceWire result;
    result.type = service::ServiceMsg::kResult;
    result.request_id = 7;
    result.records = random_bytes(rng, 128);
    service::ServiceWire cancel;
    cancel.type = service::ServiceMsg::kCancel;
    cancel.request_id = 7;
    service::ServiceWire shutdown;
    shutdown.type = service::ServiceMsg::kShutdown;
    service::ServiceWire error;
    error.type = service::ServiceMsg::kError;
    error.request_id = 7;
    error.error = service::ServiceError::kAdmissionFull;
    error.text = "admission caps reached";
    for (const auto* message : {&hello, &ack, &submit, &status, &result,
                                &cancel, &shutdown, &error}) {
      valid.push_back(service::encode_service_message(*message));
      net::FrameDecoder decoder;
      decoder.feed(valid.back());
      const auto payload = decoder.next();
      ASSERT_TRUE(payload.has_value());
      const auto decoded = service::decode_service_message(*payload);
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(decoded->type, message->type);
      EXPECT_EQ(decoded->version, message->version);
      EXPECT_EQ(decoded->universe_seed, message->universe_seed);
      EXPECT_EQ(decoded->universe_size, message->universe_size);
      EXPECT_EQ(decoded->request_id, message->request_id);
      EXPECT_EQ(decoded->tenant, message->tenant);
      EXPECT_EQ(decoded->origin_code, message->origin_code);
      EXPECT_EQ(decoded->protocol, message->protocol);
      EXPECT_EQ(decoded->trial, message->trial);
      EXPECT_EQ(decoded->probes, message->probes);
      EXPECT_EQ(decoded->retries, message->retries);
      EXPECT_EQ(decoded->state, message->state);
      EXPECT_EQ(decoded->queue_position, message->queue_position);
      EXPECT_EQ(decoded->records, message->records);
      EXPECT_EQ(decoded->error, message->error);
      EXPECT_EQ(decoded->text, message->text);
    }
  }

  // The daemon's exact ingestion path under mutation: frame decode, then
  // strict message decode. Both must classify, never crash, and trailing
  // bytes must always reject.
  for (int i = 0; i < 5000; ++i) {
    const auto& base = valid[rng.below(valid.size())];
    const auto mangled =
        i % 3 == 0 ? random_bytes(rng, 160) : mutate(rng, base);
    net::FrameDecoder decoder;
    decoder.feed(mangled);
    while (auto payload = decoder.next()) {
      (void)service::decode_service_message(*payload);
    }
  }

  // Payload-level trailing garbage (valid frame, padded message) must
  // reject even though the CRC passes.
  for (const auto& frame : valid) {
    net::FrameDecoder decoder;
    decoder.feed(frame);
    auto payload = decoder.next();
    ASSERT_TRUE(payload.has_value());
    payload->push_back(0);
    EXPECT_FALSE(service::decode_service_message(*payload).has_value());
  }

  // Oversized string caps: an origin code longer than the decoder's cap
  // rejects rather than allocating from a lying length.
  {
    service::ServiceWire submit;
    submit.type = service::ServiceMsg::kSubmit;
    submit.origin_code = std::string(64, 'A');  // > kMaxOriginCodeBytes
    net::FrameDecoder decoder;
    decoder.feed(service::encode_service_message(submit));
    const auto payload = decoder.next();
    ASSERT_TRUE(payload.has_value());
    EXPECT_FALSE(service::decode_service_message(*payload).has_value());
  }
}

// A string length above its cap must fail the whole decode. The SUBMIT
// below once decoded as valid: the rejected origin-code length stepped
// the reader back one byte, so the length's low byte (0x01) read as the
// protocol and the three spec bytes filled the message exactly.
TEST(Fuzz, ServiceStringAboveItsCapRejectsTheMessage) {
  const auto decode = [](std::initializer_list<std::uint8_t> head,
                         std::size_t tail_bytes) {
    std::vector<std::uint8_t> payload(head);
    payload.resize(payload.size() + tail_bytes, 1);
    return service::decode_service_message(payload);
  };
  // type, request id, tenant, origin-code length 0x0101 (cap 16), then
  // only trial, probes and retries.
  EXPECT_FALSE(decode({static_cast<std::uint8_t>(service::ServiceMsg::kSubmit),
                       0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 3, 0x01, 0x01},
                      3)
                   .has_value());
  // type, request id, error code, text length 0x1001 (cap 4096), then
  // that many text bytes.
  EXPECT_FALSE(decode({static_cast<std::uint8_t>(service::ServiceMsg::kError),
                       0, 0, 0, 0, 0, 0, 0, 7,
                       static_cast<std::uint8_t>(
                           service::ServiceError::kMalformed),
                       0x10, 0x01},
                      0x1001)
                   .has_value());
  // At the cap both still decode.
  EXPECT_TRUE(decode({static_cast<std::uint8_t>(service::ServiceMsg::kSubmit),
                      0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 3, 0x00, 0x10},
                     16 + 4)
                  .has_value());
  EXPECT_TRUE(decode({static_cast<std::uint8_t>(service::ServiceMsg::kError),
                      0, 0, 0, 0, 0, 0, 0, 7,
                      static_cast<std::uint8_t>(
                          service::ServiceError::kMalformed),
                      0x10, 0x00},
                     0x1000)
                  .has_value());
}

TEST(Fuzz, CyclicGroupHandlesArbitrarySizes) {
  net::Rng rng(111);
  // The permutation builder must produce a full, duplicate-free cycle
  // for any size, including primes, powers of two, and tiny values.
  for (int i = 0; i < 60; ++i) {
    const std::uint64_t size = 1 + rng.below(2000);
    auto group = scan::CyclicGroup::for_size(size, rng());
    auto iterator = group.all();
    std::vector<bool> seen(size, false);
    std::uint64_t count = 0;
    while (auto value = iterator.next()) {
      ASSERT_LT(*value, size);
      ASSERT_FALSE(seen[*value]) << "duplicate at size " << size;
      seen[*value] = true;
      ++count;
    }
    EXPECT_EQ(count, size);
  }
}

}  // namespace
}  // namespace originscan
