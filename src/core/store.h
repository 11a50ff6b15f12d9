// Binary persistence for scan results: save a completed experiment's
// records to disk and reload them later for analysis without re-running
// the scans (the Scans.io-repository analog for this library).
//
// Format (network byte order, version 2):
//   magic "OSNR" | u32 version | u32 result_count
//   per result:
//     u16 origin_code_len | bytes | u8 protocol | u32 trial
//     u64 record_count | packed records (addr u32, synack u8, rst u8,
//                        l7 u8, explicit u8, probe_second u32)
//     u32 crc32 over the result block
//
// The CRC32 footer on every result block means bit-rot and mid-record
// truncation are detected instead of parsing into garbage. Any other
// version (including the footer-less version 1) fails to parse.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "scanner/orchestrator.h"

namespace originscan::core {

// The one format version written and read.
inline constexpr std::uint32_t kStoreVersion = 2;

// Serializes results to the on-disk format.
std::vector<std::uint8_t> serialize_results(
    const std::vector<scan::ScanResult>& results);

// Parses results; nullopt on any structural error (bad magic, truncated
// stream, unknown version).
std::optional<std::vector<scan::ScanResult>> parse_results(
    std::span<const std::uint8_t> data);

// File convenience wrappers.
bool save_results(const std::string& path,
                  const std::vector<scan::ScanResult>& results);
std::optional<std::vector<scan::ScanResult>> load_results(
    const std::string& path);

}  // namespace originscan::core
