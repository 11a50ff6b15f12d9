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
#include <span>
#include <string>
#include <vector>

#include "scanner/orchestrator.h"

namespace originscan::core {

// The one format version written and read.
inline constexpr std::uint32_t kStoreVersion = 2;

// Serializes results to the on-disk format.
std::vector<std::uint8_t> serialize_results(
    const std::vector<scan::ScanResult>& results);
// One result as a one-block stream: a journal segment, a dist RECORDS
// payload. (A braced `serialize_results({result})` resolves here too.)
std::vector<std::uint8_t> serialize_results(const scan::ScanResult& result);

// A cell's record_sha256 (golden digests, journal MANIFEST lines, the
// dist DONE message): lower-case hex SHA-256 of the record region of a
// one-block stream, its packed 12-byte records between the block header
// and the CRC footer. The worker, the master and the journal hash a
// segment where it lies instead of re-packing its records. `segment`
// must be a stream serialize_results wrote or parse_results accepted
// with exactly one result; anything else hashes an empty region.
std::string record_sha256(std::span<const std::uint8_t> segment);

// Parses results; nullopt on any structural error (bad magic, truncated
// stream, unknown version).
std::optional<std::vector<scan::ScanResult>> parse_results(
    std::span<const std::uint8_t> data);

// File convenience wrappers.
//
// read_file_bytes returns a file's bytes from one sized read (nullopt
// if it cannot be opened; a short read yields the bytes read, which the
// parsers then reject); load_results parses what it returns.
std::optional<std::vector<std::uint8_t>> read_file_bytes(
    const std::string& path);
bool save_results(const std::string& path,
                  const std::vector<scan::ScanResult>& results);
std::optional<std::vector<scan::ScanResult>> load_results(
    const std::string& path);

}  // namespace originscan::core
