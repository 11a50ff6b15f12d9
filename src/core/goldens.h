// Golden-trace differential harness: canonical scan scenarios, compact
// run digests (per-result record SHA-256 + summary stats) persisted as
// JSON under tests/goldens/, and a record-level differ that reports the
// first diverging record readably instead of a bare hash mismatch.
//
// Two registered scenarios:
//
//   clean_small  A loss-free, outage-free, policy-free world (no
//                MaxStartups): every injected *recoverable* fault must be
//                absorbed invisibly, so runs under any recoverable plan —
//                at any --jobs level — are byte-identical to the golden.
//   paper_small  A scaled-down paper world (loss bursts, outages,
//                policies): the no-fault regression anchor, and the stage
//                for classifying *degrading* plans (probe_drop, outage,
//                mac_corrupt), whose damage no retry can undo.
//
// The split matters: recoverable L7 faults consume retry attempts and
// shift handshake times, which in a lossy world perturbs the simulation's
// deterministic draws. Only the clean world makes "recovered" mean
// "byte-identical"; the paper world instead gets a structured
// DegradationClass verdict. tools/goldens records and checks the digests;
// tests/differential_test.cc replays the matrix.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "faultinject/faultinject.h"
#include "scanner/orchestrator.h"

namespace originscan::core {

// ---- Digests --------------------------------------------------------

// Compact fingerprint of one ScanResult: identity, summary stats, the
// SHA-256 of its record region (core/store.h record_sha256: the packed
// 12-byte records of its store block) plus the banner list.
struct ResultDigest {
  std::string origin_code;
  int trial = 0;
  proto::Protocol protocol{};
  std::uint64_t record_count = 0;
  std::uint64_t completed = 0;
  std::uint64_t synacks = 0;
  std::string record_sha256;  // lowercase hex
  std::string banner_sha256;  // empty when banners were not kept

  friend bool operator==(const ResultDigest&, const ResultDigest&) = default;
};

[[nodiscard]] ResultDigest digest_of(const scan::ScanResult& result);
[[nodiscard]] std::vector<ResultDigest> digest_all(
    const std::vector<scan::ScanResult>& results);

// A committed golden: scenario name + its digest list, serialized as
// JSON (tests/goldens/<scenario>.json).
struct GoldenFile {
  std::string scenario;
  std::vector<ResultDigest> digests;

  [[nodiscard]] std::string to_json() const;
  static std::optional<GoldenFile> from_json(std::string_view text);

  friend bool operator==(const GoldenFile&, const GoldenFile&) = default;
};

// ---- Scenario registry ----------------------------------------------

[[nodiscard]] std::vector<std::string_view> golden_scenario_names();

// Runs a registered scenario and returns its flat result list (the same
// grid order regardless of jobs). `faults` threads a fault injector
// through every layer; the scan options are otherwise identical with and
// without faults — that is what makes the golden a valid oracle.
// Throws std::invalid_argument for an unknown scenario name.
[[nodiscard]] std::vector<scan::ScanResult> run_golden_scenario(
    std::string_view name, int jobs = 1,
    const fault::FaultInjector* faults = nullptr);

// The paper_small scenario's ExperimentConfig (jobs/faults at their
// defaults). Exported so tools/goldens --via-resume can reproduce the
// scenario through a kill-and-resume journal cycle and check the result
// against the same committed digests.
[[nodiscard]] ExperimentConfig paper_small_config();

// ---- Differential comparison ----------------------------------------

// How a faulted run's output relates to the golden run's.
enum class DegradationClass {
  kIdentical,      // byte-identical records (recovered or untouched)
  kL4Loss,         // records missing or probe masks weakened only
  kL7Degradation,  // same L4 view, handshake outcomes/banners degraded
  kMixed,          // both L4 and L7 damage
  kStructural,     // result grids don't even line up
};

[[nodiscard]] std::string_view degradation_name(DegradationClass klass);

// One readable record-level difference.
struct RecordDivergence {
  std::size_t result_index = 0;  // index into the flat result list
  std::string origin_code;
  int trial = 0;
  proto::Protocol protocol{};
  std::string description;  // field-by-field account of the difference
};

struct DifferentialReport {
  DegradationClass klass = DegradationClass::kIdentical;
  std::uint64_t records_golden = 0;
  std::uint64_t records_actual = 0;
  std::uint64_t missing_records = 0;  // in golden, absent from actual
  std::uint64_t extra_records = 0;    // in actual, absent from golden
  std::uint64_t l4_diffs = 0;         // shared addr, different L4 view
  std::uint64_t l7_diffs = 0;         // shared addr + L4, different L7
  // First few divergences, in grid order (capped; enough to read).
  std::vector<RecordDivergence> divergences;

  [[nodiscard]] bool identical() const {
    return klass == DegradationClass::kIdentical;
  }
  [[nodiscard]] std::string summary() const;
};

// Record-level comparison of two runs of the same scenario grid.
[[nodiscard]] DifferentialReport compare_results(
    const std::vector<scan::ScanResult>& golden,
    const std::vector<scan::ScanResult>& actual);

// Digest-level comparison: nullopt when equal, otherwise a readable
// account of the first mismatching entry (used when only the committed
// digests — not full golden records — are available).
[[nodiscard]] std::optional<std::string> compare_digests(
    const std::vector<ResultDigest>& golden,
    const std::vector<ResultDigest>& actual);

}  // namespace originscan::core
