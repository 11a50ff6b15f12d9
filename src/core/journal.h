// Crash-safe experiment journal: every completed (trial, protocol,
// origin) cell is persisted the moment it finishes, so a run killed at
// any instant resumes from its journal and completes with byte-identical
// output (see DESIGN.md §6d and Experiment::run_journaled).
//
// On-disk layout — one directory per run:
//
//   MANIFEST                      append-only, fsync'd per line:
//     osnr-journal v1 fingerprint=<hex>         (header, written at open)
//     done <origin> <proto> <trial> attempts=N sha256=<hex> segment=<stem>
//     lost <origin> <proto> <trial> attempts=N reason=<text>
//   <stem>.osnr                   single-cell store segment (v2, CRC'd)
//   <stem>.ids                    framed sidecar: the origin's post-cell
//                                 IDS snapshot + the result fields the
//                                 store format omits (L4 stats, attempt
//                                 histogram) so adopted cells reproduce
//                                 golden digests exactly
//   <stem>.metrics                framed sidecar: the cell's metric delta
//
// Both sidecars are wrapped in the shared length-prefixed CRC32 frame
// (netbase/frame.h) — the same codec the distributed worker protocol
// streams segments with. The frame's length check means a reader never
// trusts a corrupt length prefix and over-reads past the end of the
// file; a sidecar that is not exactly one intact frame is corrupt.
//
// The manifest line is appended only *after* both sidecar files are
// durably written, so a crash between cell completion and manifest
// append simply re-runs the cell: every state the journal can be left in
// is either "cell fully recorded" or "cell absent". A torn trailing line
// (crash mid-append) is detected by the missing newline and dropped.
//
// Why IDS snapshots make cell-granular resume sound: the only mutable
// cross-cell state in the simulation is PersistentState's per-AS IDS
// counters, keyed by source IP. Origins own disjoint source IPs and an
// origin's cells run as one serial chain, so the snapshot taken after an
// origin's k-th cell is exactly the state its (k+1)-th cell started from
// — restoring the origin's latest snapshot and re-running its remaining
// cells reproduces the uninterrupted run byte for byte.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "faultinject/faultinject.h"
#include "obsv/metrics.h"
#include "proto/protocol.h"
#include "scanner/orchestrator.h"
#include "sim/policy.h"

namespace originscan::core {

// One origin's view of the cross-trial IDS state, captured after a cell
// completes. Only entries keyed by the origin's own source IPs are
// included — that is the entire slice of PersistentState the origin's
// chain can read or write.
struct IdsSnapshot {
  struct AsEntry {
    sim::AsId as = 0;
    // (source IP, value) pairs, sorted by IP (map iteration order).
    std::vector<std::pair<std::uint32_t, std::uint32_t>> probe_counts;
    std::vector<std::pair<std::uint32_t, int>> blocked_ips;

    friend bool operator==(const AsEntry&, const AsEntry&) = default;
  };
  std::vector<AsEntry> entries;  // sorted by AS id

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static std::optional<IdsSnapshot> parse(std::span<const std::uint8_t> data);

  friend bool operator==(const IdsSnapshot&, const IdsSnapshot&) = default;
};

// Captures the slice of `state` keyed by `source_ips` (one origin's
// addresses). Takes the per-AS shard locks, so it is safe while other
// origins' chains are scanning.
[[nodiscard]] IdsSnapshot capture_ids(
    sim::PersistentState& state, std::span<const net::Ipv4Addr> source_ips);

// Restores the origin's slice: erases every entry keyed by `source_ips`,
// then reinserts the snapshot's. Other origins' entries are untouched.
void restore_ids(sim::PersistentState& state,
                 std::span<const net::Ipv4Addr> source_ips,
                 const IdsSnapshot& snapshot);

// The `.ids` sidecar payload: the origin's IDS snapshot plus the result
// fields the `.osnr` segment cannot carry (L4 stats and the attempt
// histogram live outside the store format, but golden digests include
// the SYN-ACK count, so an adopted — or remotely executed — cell must
// reproduce them exactly). Public because the distributed runtime's
// SEGMENT messages carry exactly these bytes: a worker serializes the
// sidecar once and the master persists it verbatim, so the journal a
// distributed run writes is byte-identical to a single-process one.
[[nodiscard]] std::vector<std::uint8_t> serialize_cell_sidecar(
    const IdsSnapshot& ids, const scan::ZMapScanner::Stats& stats,
    const std::vector<std::uint64_t>& histogram);
[[nodiscard]] bool parse_cell_sidecar(std::span<const std::uint8_t> data,
                                      IdsSnapshot& ids,
                                      scan::ZMapScanner::Stats& stats,
                                      std::vector<std::uint64_t>& histogram);

// Identity of one grid cell, as spelled in the manifest.
struct CellKey {
  std::string origin_code;
  proto::Protocol protocol{};
  int trial = 0;

  friend bool operator==(const CellKey&, const CellKey&) = default;
};

// A done cell's store segment as the journal writes it: the one-block
// stream serialize_results(result) produces, and the lower-case hex
// SHA-256 of its record region (store.h record_sha256). Views; the
// caller keeps the bytes alive.
struct CellSegment {
  std::span<const std::uint8_t> bytes;
  std::string_view record_sha256;
};

struct JournalEntry {
  enum class Status { kDone, kLost };
  Status status = Status::kDone;
  CellKey key;
  int attempts = 1;
  std::string record_sha256;  // done only: digest of the record region
  std::string segment;        // done only: sidecar file stem
  std::string reason;         // lost only
};

// Outcome of ExperimentJournal::repair — how much of a damaged run
// directory survived.
struct RepairReport {
  std::size_t entries_kept = 0;
  // Manifest lines that did not parse (plus a torn trailing line).
  std::size_t lines_dropped_malformed = 0;
  // Done entries whose segment/sidecar failed CRC or digest checks.
  std::size_t entries_dropped_corrupt = 0;
  // Entries demoted because an earlier cell of their origin's chain was
  // dropped: adopting them would violate the chain-prefix invariant.
  std::size_t entries_dropped_followers = 0;
  std::string fingerprint;
};

// Append-only journal over one experiment run. Open once per process;
// record_* calls are not internally synchronized (Experiment serializes
// them behind a mutex).
class ExperimentJournal {
 public:
  // Opens (creating if needed) the journal directory. `fingerprint`
  // identifies the experiment configuration (Experiment::
  // config_fingerprint); opening an existing journal with a different
  // fingerprint fails — resuming under a changed config would silently
  // produce a franken-run. An empty fingerprint is inspect mode: the
  // journal must already exist and its own fingerprint is adopted
  // (read-only use; never record cells through such a handle).
  static std::optional<ExperimentJournal> open(const std::string& dir,
                                               const std::string& fingerprint,
                                               std::string* error = nullptr);

  // Rewrites a damaged run directory in place so that everything
  // survivable becomes resumable: malformed and torn manifest lines are
  // dropped, done entries whose segment/sidecar fails verification are
  // dropped, and — because an origin's cells form a serial chain —
  // every entry after a dropped one in the same origin's chain is
  // demoted too (adopting it would violate the chain-prefix invariant).
  // The MANIFEST is rebuilt via a durable tmp-write + rename; orphaned
  // segment files are left on disk (resume overwrites them). Requires a
  // readable header line; everything after it is salvage.
  static std::optional<RepairReport> repair(const std::string& dir,
                                            std::string* error = nullptr);

  ExperimentJournal(ExperimentJournal&&) = default;
  ExperimentJournal& operator=(ExperimentJournal&&) = default;

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] const std::string& fingerprint() const { return fingerprint_; }
  // Entries replayed from the manifest at open, in append order. A later
  // line for an already-seen cell replaces the earlier entry and takes
  // its position at the end — last-wins, which is what makes quarantined
  // cells re-recordable: the fresh `done` line appended after a
  // re-execution supersedes the line whose segment went bad.
  [[nodiscard]] const std::vector<JournalEntry>& entries() const {
    return entries_;
  }
  // Whether open() dropped a torn trailing manifest line (crash
  // mid-append). Diagnostic only; the referenced cell simply re-runs.
  [[nodiscard]] bool dropped_torn_line() const { return dropped_torn_line_; }

  // Optional deterministic fault injection for the chaos harness: when
  // set, durable writes consult the injector's enospc/segment_corrupt
  // points. `fault_metrics` (optional, single-writer like every
  // MetricBlock) receives the fault.* counts.
  void set_fault_injector(const fault::FaultInjector* faults,
                          obsv::MetricBlock* fault_metrics = nullptr) {
    faults_ = faults;
    fault_metrics_ = fault_metrics;
  }
  // Latched true after any durable-write failure (real or injected).
  // Storage does not come back within a run: callers fail remaining
  // cells fast instead of burning retry budget on a dead disk.
  [[nodiscard]] bool storage_dead() const { return storage_dead_; }
  // Cumulative payload bytes this handle has durably written (segments,
  // sidecars, and manifest appends) — the enospc clause's clock.
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }
  [[nodiscard]] const JournalEntry* find(const CellKey& key) const;
  // Demotes a cell to absent (adopt_journal's quarantine path: the
  // entry's segment or sidecar failed verification, or it follows a
  // quarantined cell in its origin's chain). Only the in-memory view
  // changes — the manifest line stays on disk, superseded by the fresh
  // line the re-execution appends (last-wins replay at the next open).
  void quarantine(const CellKey& key);
  // Claim check for the distributed master: a settled cell (done or
  // lost) must never be granted again — its outcome is already durable.
  [[nodiscard]] bool settled(const CellKey& key) const {
    return find(key) != nullptr;
  }

  // Loads a done cell's segment, verifying the store CRCs and the
  // manifest's record digest. `snapshot` (optional out) receives the
  // cell's IDS sidecar. `metrics` (optional out) receives the cell's
  // persisted metric delta; a journal written before metrics existed has
  // no `.metrics` sidecar and yields an all-zero block (documented in
  // docs/METRICS.md), but a *corrupt* one fails the load. Returns
  // nullopt (with `error`) on any integrity failure — a corrupt segment
  // means the cell must be re-run, never silently adopted.
  std::optional<scan::ScanResult> load_cell(
      const JournalEntry& entry, IdsSnapshot* snapshot = nullptr,
      std::string* error = nullptr, obsv::MetricBlock* metrics = nullptr) const;

  // Persists a completed cell: writes segment + IDS sidecar, fsyncs
  // them, then appends (and fsyncs) the manifest line. When `metrics` is
  // non-null it receives this cell's journal-layer counters
  // (journal.cells_recorded, journal.segments_fsynced, the segment-size
  // histogram) and is then persisted as a CRC'd `<stem>.metrics` sidecar
  // — before the manifest append, so a recorded cell always carries its
  // delta and a resumed run reproduces an uninterrupted run's metrics
  // byte for byte.
  //
  // The segment is the cell's one-block store stream and the manifest's
  // sha256= is the SHA-256 of its record region (store.h). `segment`
  // (optional) carries both when the caller already holds them — the
  // dist master passes the bytes a worker streamed, verified against the
  // worker's digest — and they are written as received; null means
  // serialize `result` and hash its record region here, once.
  bool record_done(const CellKey& key, const scan::ScanResult& result,
                   const IdsSnapshot& snapshot, int attempts,
                   std::string* error = nullptr);
  bool record_done(const CellKey& key, const scan::ScanResult& result,
                   const CellSegment* segment, const IdsSnapshot& snapshot,
                   int attempts, obsv::MetricBlock* metrics,
                   std::string* error);

  // Marks a cell lost (retry budget exhausted). Analysis treats the cell
  // as absent; resume does not re-run it (see Experiment::run_journaled).
  bool record_lost(const CellKey& key, int attempts, const std::string& reason,
                   std::string* error = nullptr);

 private:
  ExperimentJournal() = default;

  bool append_manifest_line(const std::string& line, std::string* error);
  bool durable_write(const std::string& path,
                     std::span<const std::uint8_t> data, std::string* error);
  void push_entry(JournalEntry entry);

  std::string dir_;
  std::string fingerprint_;
  std::vector<JournalEntry> entries_;
  bool dropped_torn_line_ = false;
  const fault::FaultInjector* faults_ = nullptr;
  obsv::MetricBlock* fault_metrics_ = nullptr;
  bool storage_dead_ = false;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t files_written_ = 0;  // segment_corrupt's file= index
};

}  // namespace originscan::core
