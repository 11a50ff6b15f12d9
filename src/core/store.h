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

#include "faultinject/faultinject.h"
#include "obsv/metrics.h"
#include "scanner/orchestrator.h"

namespace originscan::core {

// Diagnostics from one checkpointed save (see the fault-aware
// save_results overload).
struct SaveStats {
  std::uint64_t writes = 0;            // physical write attempts issued
  std::uint64_t transient_errors = 0;  // writes that failed with EIO
  std::uint64_t resumes = 0;           // reopen-and-seek recoveries
  // Save abandoned on a permanent no-space failure (enospc fault point).
  // Unlike EIO, exhausted storage does not recover within a run, so the
  // retry ladder is skipped and the save fails immediately.
  bool storage_exhausted = false;
};

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

// Checkpointing save: writes in 64 KiB chunks, tracking the committed
// offset after every successful chunk. A transient write error — real,
// or injected through `faults` (store_eio fault point, keyed by the
// physical write-attempt index) — triggers a reopen of the file and a
// seek back to the last committed offset, then the write resumes. The
// resulting file is byte-identical to an error-free save. The enospc
// fault point (keyed by cumulative committed bytes) is a *permanent*
// failure: the save stops without retrying — storage exhaustion does
// not heal on a reopen. `stats` (optional) reports the recovery work
// done; `metrics` (optional) taps fault.store_eio / fault.enospc per
// injected failure and store.write_retries per recovery write.
bool save_results(const std::string& path,
                  const std::vector<scan::ScanResult>& results,
                  const fault::FaultInjector* faults,
                  SaveStats* stats = nullptr,
                  obsv::MetricBlock* metrics = nullptr);
std::optional<std::vector<scan::ScanResult>> load_results(
    const std::string& path);

}  // namespace originscan::core
