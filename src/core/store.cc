#include "core/store.h"

#include <cstdio>

#include "netbase/byteio.h"
#include "netbase/crc32.h"

namespace originscan::core {
namespace {

constexpr std::uint32_t kMagic = 0x4F534E52;  // "OSNR"

}  // namespace

std::vector<std::uint8_t> serialize_results(
    const std::vector<scan::ScanResult>& results) {
  std::vector<std::uint8_t> out;
  net::ByteWriter w(out);
  w.u32(kMagic);
  w.u32(kStoreVersion);
  w.u32(static_cast<std::uint32_t>(results.size()));
  for (const auto& result : results) {
    const std::size_t block_start = out.size();
    w.u16(static_cast<std::uint16_t>(result.origin_code.size()));
    w.bytes(std::span(
        reinterpret_cast<const std::uint8_t*>(result.origin_code.data()),
        result.origin_code.size()));
    w.u8(static_cast<std::uint8_t>(result.protocol));
    w.u32(static_cast<std::uint32_t>(result.trial));
    w.u64(result.records.size());
    for (const auto& record : result.records) {
      w.u32(record.addr.value());
      w.u8(record.synack_mask);
      w.u8(record.rst_mask);
      w.u8(static_cast<std::uint8_t>(record.l7));
      w.u8(record.explicit_close ? 1 : 0);
      w.u32(record.probe_second);
    }
    w.u32(net::crc32(
        std::span(out.data() + block_start, out.size() - block_start)));
  }
  return out;
}

std::optional<std::vector<scan::ScanResult>> parse_results(
    std::span<const std::uint8_t> data) {
  net::ByteReader r(data);
  if (r.u32() != kMagic) return std::nullopt;
  if (r.u32() != kStoreVersion) return std::nullopt;
  const std::uint32_t count = r.u32();
  if (!r.ok()) return std::nullopt;
  // Each result needs at least its 15-byte header; bound the allocation
  // by what the stream could possibly hold.
  if (count > r.remaining() / 15) return std::nullopt;

  std::vector<scan::ScanResult> results;
  results.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    scan::ScanResult result;
    const std::size_t block_start = r.position();
    const std::uint16_t code_length = r.u16();
    auto code = r.bytes(code_length);
    if (!r.ok()) return std::nullopt;
    result.origin_code.assign(code.begin(), code.end());
    const std::uint8_t protocol = r.u8();
    if (protocol > 2) return std::nullopt;
    result.protocol = static_cast<proto::Protocol>(protocol);
    result.trial = static_cast<int>(r.u32());
    const std::uint64_t record_count = r.u64();
    if (!r.ok()) return std::nullopt;
    // Sanity bound: each record needs 12 bytes of remaining stream.
    // (Divide rather than multiply — a hostile count must not overflow.)
    if (record_count > r.remaining() / 12) return std::nullopt;
    result.records.reserve(record_count);
    for (std::uint64_t j = 0; j < record_count; ++j) {
      scan::ScanRecord record;
      record.addr = net::Ipv4Addr(r.u32());
      record.synack_mask = r.u8();
      record.rst_mask = r.u8();
      record.l7 = static_cast<sim::L7Outcome>(r.u8());
      record.explicit_close = r.u8() != 0;
      record.probe_second = r.u32();
      result.records.push_back(record);
    }
    if (!r.ok()) return std::nullopt;
    const std::uint32_t want =
        net::crc32(data.subspan(block_start, r.position() - block_start));
    if (r.u32() != want || !r.ok()) return std::nullopt;
    results.push_back(std::move(result));
  }
  if (r.remaining() != 0) return std::nullopt;
  return results;
}

bool save_results(const std::string& path,
                  const std::vector<scan::ScanResult>& results) {
  const auto bytes = serialize_results(results);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const std::size_t written =
      std::fwrite(bytes.data(), 1, bytes.size(), file);
  const int close_result = std::fclose(file);
  return written == bytes.size() && close_result == 0;
}

std::optional<std::vector<scan::ScanResult>> load_results(
    const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  std::vector<std::uint8_t> data;
  std::uint8_t buffer[65536];
  std::size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    data.insert(data.end(), buffer, buffer + read);
  }
  std::fclose(file);
  return parse_results(data);
}

}  // namespace originscan::core
