#include <gtest/gtest.h>

#include <cstdio>

#include "core/store.h"
#include "netbase/rng.h"

namespace originscan::core {
namespace {

std::vector<scan::ScanResult> sample_results() {
  std::vector<scan::ScanResult> results;
  net::Rng rng(5);
  for (int i = 0; i < 3; ++i) {
    scan::ScanResult result;
    result.origin_code = i == 0 ? "AU" : (i == 1 ? "US64" : "CEN");
    result.protocol = static_cast<proto::Protocol>(i % 3);
    result.trial = i;
    for (int j = 0; j < 50; ++j) {
      scan::ScanRecord record;
      record.addr = net::Ipv4Addr(static_cast<std::uint32_t>(rng()));
      record.synack_mask = static_cast<std::uint8_t>(rng() & 3);
      record.rst_mask = static_cast<std::uint8_t>(rng() & 3);
      record.l7 = static_cast<sim::L7Outcome>(rng() % 8);
      record.explicit_close = (rng() & 1) != 0;
      record.probe_second = static_cast<std::uint32_t>(rng() % 75600);
      result.records.push_back(record);
    }
    results.push_back(std::move(result));
  }
  return results;
}

TEST(Store, SerializeParseRoundTrip) {
  const auto original = sample_results();
  const auto bytes = serialize_results(original);
  const auto parsed = parse_results(bytes);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ((*parsed)[i].origin_code, original[i].origin_code);
    EXPECT_EQ((*parsed)[i].protocol, original[i].protocol);
    EXPECT_EQ((*parsed)[i].trial, original[i].trial);
    ASSERT_EQ((*parsed)[i].records.size(), original[i].records.size());
    for (std::size_t j = 0; j < original[i].records.size(); ++j) {
      const auto& a = original[i].records[j];
      const auto& b = (*parsed)[i].records[j];
      EXPECT_EQ(a.addr, b.addr);
      EXPECT_EQ(a.synack_mask, b.synack_mask);
      EXPECT_EQ(a.rst_mask, b.rst_mask);
      EXPECT_EQ(a.l7, b.l7);
      EXPECT_EQ(a.explicit_close, b.explicit_close);
      EXPECT_EQ(a.probe_second, b.probe_second);
    }
  }
}

TEST(Store, RejectsCorruptStreams) {
  const auto bytes = serialize_results(sample_results());

  // Bad magic.
  auto bad = bytes;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(parse_results(bad).has_value());

  // Bad version.
  bad = bytes;
  bad[7] = 99;
  EXPECT_FALSE(parse_results(bad).has_value());

  // Version 1 (the footer-less format) fails to parse: a v1 header on
  // this stream, and an empty stream that is a complete v1 file.
  bad = bytes;
  bad[7] = 1;
  EXPECT_FALSE(parse_results(bad).has_value());
  auto v1_empty = serialize_results({});
  v1_empty[7] = 1;
  EXPECT_FALSE(parse_results(v1_empty).has_value());

  // Truncation anywhere must be caught.
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2, 10ul, 3ul}) {
    auto truncated = bytes;
    truncated.resize(cut);
    EXPECT_FALSE(parse_results(truncated).has_value()) << "cut=" << cut;
  }

  // Trailing garbage.
  bad = bytes;
  bad.push_back(0);
  EXPECT_FALSE(parse_results(bad).has_value());

  // Absurd record count must not over-allocate.
  bad = bytes;
  // record_count is a u64 right after the first result's header
  // (magic 4 + version 4 + count 4 + code_len 2 + "AU" 2 + proto 1 +
  // trial 4 = offset 21).
  for (int i = 0; i < 8; ++i) bad[21 + i] = 0xFF;
  EXPECT_FALSE(parse_results(bad).has_value());
}

TEST(Store, V2CatchesEverySingleBitFlip) {
  // The CRC footer's contract: no single-bit corruption of a v2 stream
  // may parse. Header flips fail structurally; block and footer flips
  // fail the per-block checksum. The stream is fixed, so this sweep is
  // deterministic.
  const auto bytes = serialize_results(sample_results());
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bad = bytes;
      bad[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(parse_results(bad).has_value())
          << "undetected flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST(Store, EmptyResultListRoundTrips) {
  const auto bytes = serialize_results({});
  const auto parsed = parse_results(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->empty());
}

TEST(Store, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/osn_store_test.bin";
  const auto original = sample_results();
  ASSERT_TRUE(save_results(path, original));
  const auto loaded = load_results(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), original.size());
  std::remove(path.c_str());

  EXPECT_FALSE(load_results("/nonexistent/osn.bin").has_value());
}

}  // namespace
}  // namespace originscan::core
