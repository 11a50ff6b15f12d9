#include "core/store.h"

#include <cstdio>
#include <cstring>

#include "netbase/byteio.h"
#include "netbase/crc32.h"
#include "netbase/sha256.h"

namespace originscan::core {
namespace {

constexpr std::uint32_t kMagic = 0x4F534E52;  // "OSNR"
constexpr std::size_t kStreamHeaderBytes = 12;  // magic, version, count
// u16 code length, u8 protocol, u32 trial, u64 record count, u32 CRC.
constexpr std::size_t kBlockFixedBytes = 2 + 1 + 4 + 8 + 4;
constexpr std::size_t kRecordBytes = 12;

// The one record encoding: addr u32, synack u8, rst u8, l7 u8,
// explicit_close u8, probe_second u32.
std::uint8_t* store_record(std::uint8_t* p, const scan::ScanRecord& record) {
  p = net::store_u32(p, record.addr.value());
  p[0] = record.synack_mask;
  p[1] = record.rst_mask;
  p[2] = static_cast<std::uint8_t>(record.l7);
  p[3] = record.explicit_close ? 1 : 0;
  return net::store_u32(p + 4, record.probe_second);
}

scan::ScanRecord load_record(const std::uint8_t* p) {
  scan::ScanRecord record;
  record.addr = net::Ipv4Addr(net::load_u32(p));
  record.synack_mask = p[4];
  record.rst_mask = p[5];
  record.l7 = static_cast<sim::L7Outcome>(p[6]);
  record.explicit_close = p[7] != 0;
  record.probe_second = net::load_u32(p + 8);
  return record;
}

std::vector<std::uint8_t> serialize(std::span<const scan::ScanResult> results) {
  std::size_t size = kStreamHeaderBytes;
  for (const auto& result : results) {
    size += kBlockFixedBytes + result.origin_code.size() +
            kRecordBytes * result.records.size();
  }
  std::vector<std::uint8_t> out(size);
  std::uint8_t* p = out.data();
  p = net::store_u32(p, kMagic);
  p = net::store_u32(p, kStoreVersion);
  p = net::store_u32(p, static_cast<std::uint32_t>(results.size()));
  for (const auto& result : results) {
    std::uint8_t* const block = p;
    p = net::store_u16(p,
                       static_cast<std::uint16_t>(result.origin_code.size()));
    std::memcpy(p, result.origin_code.data(), result.origin_code.size());
    p += result.origin_code.size();
    *p++ = static_cast<std::uint8_t>(result.protocol);
    p = net::store_u32(p, static_cast<std::uint32_t>(result.trial));
    p = net::store_u64(p, result.records.size());
    for (const auto& record : result.records) p = store_record(p, record);
    p = net::store_u32(p, net::crc32(std::span(
                              block, static_cast<std::size_t>(p - block))));
  }
  return out;
}

}  // namespace

std::vector<std::uint8_t> serialize_results(
    const std::vector<scan::ScanResult>& results) {
  return serialize(results);
}

std::vector<std::uint8_t> serialize_results(const scan::ScanResult& result) {
  return serialize(std::span(&result, 1));
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
    // One bounds check for the whole record region (dividing, so a
    // hostile count cannot overflow), then the records are read in place.
    if (record_count > r.remaining() / kRecordBytes) return std::nullopt;
    const auto region = r.bytes(record_count * kRecordBytes);
    result.records.resize(record_count);
    for (std::size_t j = 0; j < record_count; ++j) {
      result.records[j] = load_record(region.data() + j * kRecordBytes);
    }
    const std::uint32_t want =
        net::crc32(data.subspan(block_start, r.position() - block_start));
    if (r.u32() != want || !r.ok()) return std::nullopt;
    results.push_back(std::move(result));
  }
  if (r.remaining() != 0) return std::nullopt;
  return results;
}

std::string record_sha256(std::span<const std::uint8_t> segment) {
  net::ByteReader r(segment);
  r.skip(8);  // magic, version
  const bool one_block = r.u32() == 1;
  r.skip(r.u16());  // origin code
  r.skip(1 + 4);    // protocol, trial
  const std::uint64_t record_count = r.u64();
  std::span<const std::uint8_t> region;
  if (one_block && r.ok() && record_count <= r.remaining() / kRecordBytes) {
    region = r.bytes(record_count * kRecordBytes);
  }
  return net::Sha256::hex(net::Sha256::of(region));
}

std::optional<std::vector<std::uint8_t>> read_file_bytes(
    const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  std::vector<std::uint8_t> data;
  if (std::fseek(file, 0, SEEK_END) == 0) {
    const long size = std::ftell(file);
    if (size > 0 && std::fseek(file, 0, SEEK_SET) == 0) {
      data.resize(static_cast<std::size_t>(size));
      data.resize(std::fread(data.data(), 1, data.size(), file));
    }
  }
  std::fclose(file);
  return data;
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
  const auto data = read_file_bytes(path);
  if (!data.has_value()) return std::nullopt;
  return parse_results(*data);
}

}  // namespace originscan::core
