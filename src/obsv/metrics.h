// Deterministic observability: a registry of counters, gauges, and
// fixed-bucket histograms with stable dotted names, designed so that
// enabling metrics can never change a scan's output and disabling them
// costs nothing on the hot path.
//
// Determinism contract (DESIGN.md §9):
//   * Every metric update is a pure consequence of simulation decisions
//     that are themselves pure functions of (seed, slot, host). No wall
//     time, no allocation counts, no thread identity.
//   * Hot-path updates go into a MetricBlock — a flat array of uint64
//     slots owned by exactly one scan lane (single writer, no locks),
//     mirroring the ProbeContext pattern from DESIGN.md §7. Lanes merge
//     at scan end; merging is commutative (counters and histogram
//     buckets add, gauges take the max), so the merged totals are
//     byte-identical for any lane count or interleaving.
//   * A metrics snapshot therefore compares equal across `--jobs`
//     values, and — because per-cell deltas are journaled next to the
//     MANIFEST — across killed-and-resumed vs uninterrupted runs.
//   * Disabled path: every tap is guarded by a null pointer check on a
//     pointer that defaults to null. No registry, no blocks, no atomics.
//
// The metric tables below are the single source of truth: docs/METRICS.md
// is checked against them by tools/metrics_doc_check (ctest label
// `metrics`), and the snapshot JSON emits them in definition order.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace originscan::obsv {

// ---- Counter registry -----------------------------------------------
// X(symbol, "dotted.name", "unit", "incremented-by site")
#define OSN_COUNTER_METRICS(X)                                                \
  X(kZmapTargetsProbed, "zmap.targets_probed", "targets",                     \
    "src/scanner/zmap.cc:probe_batch")                                        \
  X(kZmapProbesSent, "zmap.probes_sent", "packets",                           \
    "src/scanner/zmap.cc:probe_batch")                                        \
  X(kZmapBlocklistedSkipped, "zmap.blocklisted_skipped", "targets",           \
    "src/scanner/zmap.cc:run + src/scanner/orchestrator.cc:run_scan")         \
  X(kZmapSendRetries, "zmap.send_retries", "retries",                         \
    "src/scanner/zmap.cc:probe_batch")                                        \
  X(kZmapResponsesSynack, "zmap.responses_synack", "packets",                 \
    "src/scanner/zmap.cc:probe_batch")                                        \
  X(kZmapResponsesRst, "zmap.responses_rst", "packets",                       \
    "src/scanner/zmap.cc:probe_batch")                                        \
  X(kZmapValidationFailures, "zmap.validation_failures", "packets",           \
    "src/scanner/zmap.cc:probe_batch")                                        \
  X(kZmapCooldownResponses, "zmap.cooldown_responses", "packets",             \
    "src/scanner/zmap.cc:probe_batch")                                        \
  X(kSimProbesRouted, "sim.probes_routed", "packets",                         \
    "src/sim/internet.cc:handle_probe_batch")                                 \
  X(kSimDropsUnrouted, "sim.drops.unrouted", "packets",                       \
    "src/sim/internet.cc:handle_probe_batch")                                 \
  X(kSimDropsFault, "sim.drops.fault", "packets",                             \
    "src/sim/internet.cc:handle_probe_batch")                                 \
  X(kSimDropsOutage, "sim.drops.outage", "packets",                           \
    "src/sim/internet.cc:handle_probe_batch")                                 \
  X(kSimDropsLossModel, "sim.drops.loss_model", "packets",                    \
    "src/sim/internet.cc:handle_probe_batch + ProbeContext::respond")         \
  X(kSimDropsNoHost, "sim.drops.no_host", "packets",                          \
    "src/sim/internet.cc:handle_probe_batch")                                 \
  X(kSimDropsIds, "sim.drops.ids", "packets",                                 \
    "src/sim/internet.cc:ProbeContext::respond")                              \
  X(kSimResponsesSynack, "sim.responses_synack", "packets",                   \
    "src/sim/internet.cc:ProbeContext::respond")                              \
  X(kSimResponsesRst, "sim.responses_rst", "packets",                         \
    "src/sim/internet.cc:ProbeContext::respond")                              \
  X(kZgrabGrabs, "zgrab.grabs", "handshakes",                                 \
    "src/scanner/zgrab.cc:grab")                                              \
  X(kZgrabRetries, "zgrab.retries", "retries",                                \
    "src/scanner/zgrab.cc:grab")                                              \
  X(kZgrabConnectFailures, "zgrab.connect_failures", "attempts",              \
    "src/scanner/zgrab.cc:attempt")                                           \
  X(kZgrabCompleted, "zgrab.completed", "handshakes",                         \
    "src/scanner/zgrab.cc:grab")                                              \
  X(kFaultProbeDrop, "fault.probe_drop", "hits",                              \
    "src/scanner/zmap.cc:probe_batch + "                                      \
    "src/sim/internet.cc:handle_probe_batch")                                 \
  X(kFaultOutage, "fault.outage", "hits",                                     \
    "src/sim/internet.cc:handle_probe_batch")                                 \
  X(kFaultSendFail, "fault.send_fail", "hits",                                \
    "src/scanner/zmap.cc:probe_batch")                                        \
  X(kFaultMacCorrupt, "fault.mac_corrupt", "hits",                            \
    "src/scanner/zmap.cc:probe_batch")                                        \
  X(kFaultConnectRst, "fault.connect_rst", "hits",                            \
    "src/scanner/zgrab.cc:attempt")                                           \
  X(kFaultBannerTrunc, "fault.banner_trunc", "hits",                          \
    "src/scanner/zgrab.cc:read_bytes")                                        \
  X(kFaultBannerStall, "fault.banner_stall", "hits",                          \
    "src/scanner/zgrab.cc:read_bytes")                                        \
  X(kFaultCellCrash, "fault.cell_crash", "hits",                              \
    "src/core/supervisor.cc:run_cell")                                        \
  X(kFaultCellHang, "fault.cell_hang", "hits",                                \
    "src/core/supervisor.cc:run_cell")                                        \
  X(kJournalCellsRecorded, "journal.cells_recorded", "cells",                 \
    "src/core/journal.cc:record_done")                                        \
  X(kJournalSegmentsFsynced, "journal.segments_fsynced", "files",             \
    "src/core/journal.cc:record_done")                                        \
  X(kSupervisorRetries, "supervisor.retries", "attempts",                     \
    "src/core/experiment.cc:run_journaled")                                   \
  X(kExperimentCellsLost, "experiment.cells_lost", "cells",                   \
    "src/core/experiment.cc:GridRecorder::finish")                            \
  X(kUniverseProceduralDerivations, "universe.procedural_derivations",        \
    "hosts", "src/sim/internet.cc:ProbeContext::resolve_batch")               \
  X(kUniverseBatchBatches, "universe.batch.batches", "batches",               \
    "src/sim/internet.cc:ProbeContext::resolve_batch")                        \
  X(kUniverseBatchTargets, "universe.batch.targets", "targets",               \
    "src/sim/internet.cc:ProbeContext::resolve_batch")                        \
  X(kDistWorkersSpawned, "dist.workers_spawned", "processes",                 \
    "src/core/dist.cc:GridMaster")                                            \
  X(kDistWorkersRestarted, "dist.workers_restarted", "processes",             \
    "src/core/dist.cc:GridMaster")                                            \
  X(kDistWorkersFailed, "dist.workers_failed", "processes",                   \
    "src/core/dist.cc:GridMaster")                                            \
  X(kDistChainsGranted, "dist.chains_granted", "grants",                      \
    "src/core/dist.cc:GridMaster")                                            \
  X(kDistGrantRetries, "dist.grant_retries", "grants",                        \
    "src/core/dist.cc:GridMaster")                                            \
  X(kDistCellsCompleted, "dist.cells_completed", "cells",                     \
    "src/core/dist.cc:GridMaster")                                            \
  X(kDistCellsLost, "dist.cells_lost", "cells",                               \
    "src/core/dist.cc:GridMaster")                                            \
  X(kDistSegmentsReceived, "dist.segments_received", "segments",              \
    "src/core/dist.cc:GridMaster")                                            \
  X(kDistFrameErrors, "dist.frame_errors", "frames",                          \
    "src/core/dist.cc:GridMaster")                                            \
  X(kDistDeadlinesExpired, "dist.deadlines_expired", "workers",               \
    "src/core/dist.cc:GridMaster")                                            \
  X(kFaultEnospc, "fault.enospc", "hits",                                     \
    "src/core/journal.cc:durable_write")                                      \
  X(kFaultSegmentCorrupt, "fault.segment_corrupt", "hits",                    \
    "src/core/journal.cc:durable_write")                                      \
  X(kFaultFrameGarble, "fault.frame_garble", "hits",                          \
    "src/core/dist.cc:send_message")                                          \
  X(kJournalQuarantinedCells, "journal.quarantined_cells", "cells",           \
    "src/core/experiment.cc:GridRecorder::adopt_journal")                     \
  X(kJournalQuarantinedFollowers, "journal.quarantined_followers", "cells",   \
    "src/core/experiment.cc:GridRecorder::adopt_journal")                     \
  X(kJournalWritesFailed, "journal.writes_failed", "writes",                  \
    "src/core/experiment.cc:GridRecorder")                                    \
  X(kChaosEpisodes, "chaos.episodes", "episodes",                             \
    "src/core/chaos.cc:run_chaos_soak")                                       \
  X(kChaosResumes, "chaos.resumes", "episodes",                               \
    "src/core/chaos.cc:run_chaos_soak")                                       \
  X(kChaosPartialGrids, "chaos.partial_grids", "episodes",                    \
    "src/core/chaos.cc:run_chaos_soak")                                       \
  X(kChaosQuarantines, "chaos.quarantines", "cells",                          \
    "src/core/chaos.cc:run_chaos_soak")                                       \
  X(kChaosViolations, "chaos.violations", "episodes",                        \
    "src/core/chaos.cc:run_chaos_soak")                                       \
  X(kServiceConnections, "service.connections", "connections",                \
    "src/service/service.cc:Loop")                                            \
  X(kServiceRequestsAccepted, "service.requests_accepted", "requests",        \
    "src/service/service.cc:Loop")                                            \
  X(kServiceRequestsRejected, "service.requests_rejected", "requests",        \
    "src/service/service.cc:Loop")                                            \
  X(kServiceRequestsCompleted, "service.requests_completed", "requests",      \
    "src/service/service.cc:Loop")                                            \
  X(kServiceRequestsCancelled, "service.requests_cancelled", "requests",      \
    "src/service/service.cc:Loop")                                            \
  X(kServiceFramesMalformed, "service.frames_malformed", "frames",            \
    "src/service/service.cc:Loop")                                            \
  X(kServiceDisconnects, "service.disconnects", "connections",                \
    "src/service/service.cc:Loop")                                            \
  X(kServiceShutdownDrained, "service.shutdown_drained", "requests",          \
    "src/service/service.cc:Loop")

// ---- Gauge registry (merge = max) -----------------------------------
#define OSN_GAUGE_METRICS(X)                                                  \
  X(kScanUniverseSize, "scan.universe_size", "addresses",                     \
    "src/scanner/orchestrator.cc:run_scan")                                   \
  X(kExperimentCellsTotal, "experiment.cells_total", "cells",                 \
    "src/core/experiment.cc:GridRecorder::finish")                            \
  X(kServiceInflightPeak, "service.inflight_peak", "requests",                \
    "src/service/service.cc:Loop")

// ---- Histogram registry (fixed bucket bounds, values <= bound) ------
// X(symbol, "dotted.name", "unit", "site", bounds...)
#define OSN_HISTOGRAM_METRICS(X)                                              \
  X(kZgrabAttempts, "zgrab.attempts", "attempts",                             \
    "src/scanner/zgrab.cc:grab", 1, 2, 3, 4, 8)                               \
  X(kJournalSegmentBytes, "journal.segment_bytes", "bytes",                   \
    "src/core/journal.cc:record_done", 1024, 16384, 262144, 1048576,          \
    16777216)                                                                 \
  X(kSupervisorBackoffMicros, "supervisor.backoff_micros", "microseconds",    \
    "src/core/experiment.cc:run_journaled", 1000000, 4000000, 16000000,       \
    64000000)                                                                 \
  X(kServiceQueueDepth, "service.queue_depth", "requests",                    \
    "src/service/service.cc:Loop", 1, 4, 16, 64, 256, 1024)

enum class Counter : int {
#define OSN_X(symbol, name, unit, site) symbol,
  OSN_COUNTER_METRICS(OSN_X)
#undef OSN_X
};

enum class Gauge : int {
#define OSN_X(symbol, name, unit, site) symbol,
  OSN_GAUGE_METRICS(OSN_X)
#undef OSN_X
};

enum class Histogram : int {
#define OSN_X(symbol, name, unit, site, ...) symbol,
  OSN_HISTOGRAM_METRICS(OSN_X)
#undef OSN_X
};

#define OSN_X(symbol, name, unit, site) +1
inline constexpr int kCounterCount = 0 OSN_COUNTER_METRICS(OSN_X);
inline constexpr int kGaugeCount = 0 OSN_GAUGE_METRICS(OSN_X);
#undef OSN_X
#define OSN_X(symbol, name, unit, site, ...) +1
inline constexpr int kHistogramCount = 0 OSN_HISTOGRAM_METRICS(OSN_X);
#undef OSN_X

enum class MetricKind { kCounter, kGauge, kHistogram };

// Introspection row, one per registered metric (used by the snapshot
// serializer and the docs/METRICS.md consistency check).
struct MetricInfo {
  std::string_view name;
  MetricKind kind = MetricKind::kCounter;
  std::string_view unit;
  std::string_view site;  // file:function responsible for updates
};

[[nodiscard]] std::span<const MetricInfo> all_metrics();
[[nodiscard]] std::string_view counter_name(Counter c);
[[nodiscard]] std::string_view gauge_name(Gauge g);
[[nodiscard]] std::string_view histogram_name(Histogram h);
[[nodiscard]] std::span<const std::uint64_t> histogram_bounds(Histogram h);

namespace detail {
// Slot layout: counters, then gauges, then per-histogram bucket counts
// (bounds + 1 overflow bucket) followed by a sum slot.
[[nodiscard]] int histogram_slot_offset(int histogram_index);
[[nodiscard]] int total_slot_count();
}  // namespace detail

// A flat block of metric slots with exactly one writer (a scan lane, a
// cell, or the merged registry). All updates are plain stores — the
// single-writer discipline is what keeps the hot path lock-free; cross-
// thread aggregation happens only through MetricsRegistry::merge_block
// after the writing lane has joined.
class MetricBlock {
 public:
  MetricBlock();

  void add(Counter c, std::uint64_t by = 1) {
    slots_[static_cast<int>(c)] += by;
  }
  void gauge_max(Gauge g, std::uint64_t value);
  void observe(Histogram h, std::uint64_t value);

  [[nodiscard]] std::uint64_t counter(Counter c) const {
    return slots_[static_cast<int>(c)];
  }
  [[nodiscard]] std::uint64_t gauge(Gauge g) const {
    return slots_[kCounterCount + static_cast<int>(g)];
  }
  // Bucket counts (bounds + overflow), then use histogram_sum for totals.
  [[nodiscard]] std::span<const std::uint64_t> histogram_buckets(
      Histogram h) const;
  [[nodiscard]] std::uint64_t histogram_count(Histogram h) const;
  [[nodiscard]] std::uint64_t histogram_sum(Histogram h) const;

  // Commutative merge: counters and histogram slots add, gauges max.
  void merge_from(const MetricBlock& other);

  [[nodiscard]] bool empty() const;

  // Versioned, CRC-guarded wire form (the journal's per-cell `.metrics`
  // sidecar). parse() rejects torn or corrupt blocks and blocks written
  // by a build with a different metric table (slot-count mismatch) —
  // a changed registry must not silently misattribute old deltas.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static std::optional<MetricBlock> parse(std::span<const std::uint8_t> data);

  friend bool operator==(const MetricBlock&, const MetricBlock&) = default;

 private:
  std::vector<std::uint64_t> slots_;
};

// Deterministic JSON snapshot of a block: every registered metric, in
// definition order, zero or not — so two snapshots of equal blocks are
// byte-identical strings (`--metrics-out` and the determinism tests
// compare these bytes directly).
[[nodiscard]] std::string snapshot_json(const MetricBlock& block);

// Appends `s` as the body of a JSON string: `"` and `\` are
// backslash-escaped, control bytes become \u00XX. The one escaper behind
// the metrics snapshot, the trace export and the CLI's JSON reports.
void append_json_escaped(std::string& out, std::string_view s);

// Thread-safe aggregate over many single-writer blocks. merge_block is
// the only cross-thread entry point; it is called once per lane or cell
// (never per packet), so a plain mutex costs nothing measurable.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void merge_block(const MetricBlock& block) {
    std::scoped_lock lock(mutex_);
    total_.merge_from(block);
  }
  void add(Counter c, std::uint64_t by = 1) {
    std::scoped_lock lock(mutex_);
    total_.add(c, by);
  }
  void gauge_max(Gauge g, std::uint64_t value) {
    std::scoped_lock lock(mutex_);
    total_.gauge_max(g, value);
  }
  void observe(Histogram h, std::uint64_t value) {
    std::scoped_lock lock(mutex_);
    total_.observe(h, value);
  }

  [[nodiscard]] MetricBlock snapshot() const {
    std::scoped_lock lock(mutex_);
    return total_;
  }
  [[nodiscard]] std::string snapshot_json() const {
    return obsv::snapshot_json(snapshot());
  }

 private:
  mutable std::mutex mutex_;
  MetricBlock total_;
};

}  // namespace originscan::obsv
