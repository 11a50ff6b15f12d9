// Multi-process experiment grids: a master process forks N workers,
// connects each over a socketpair speaking a CRC32-framed message
// protocol (netbase/frame.h), and distributes the grid's origin chains
// to them. See DESIGN.md §11 for the protocol state machine and the
// claim/rollback invariants.
//
// Wire protocol (every message is one frame; payload starts with a
// message-type byte):
//
//   worker → master   HELLO   {worker_index}
//   worker → master   CLAIM   {}                 "give me a chain"
//   master → worker   GRANT   {origin, chain_pos, grant, snapshot}
//   worker → master   SEGMENT {slot, kind, bytes}   kind ∈ {records,
//                                                    ids, metrics}
//   worker → master   DONE    {slot, attempts, lost, reason, sha256}
//   master → worker   ABORT   {}                 clean shutdown
//   worker → master   ABORT   {reason}           run killed (cell_crash)
//
// Why the distribution unit is the origin chain: origins own disjoint
// source IPs, and the only cross-cell mutable state is the per-AS IDS
// counters keyed by source IP — so an origin's cells must run serially,
// in chain order, but whole chains are independent. A GRANT carries the
// chain's latest IDS snapshot (exactly what the journal's `.ids`
// sidecars persist), so ANY worker can pick a chain up mid-way: resume
// after a worker death is the same operation as resume after a process
// kill, just over a socket instead of a directory.
//
// Merge commutativity: the master keys every received segment by
// (cell slot, kind). Cell outputs are deterministic — a re-granted
// cell's re-streamed segments are byte-identical to the originals — so
// keyed merging is order-independent. Every DONE cell is then settled by
// the same GridRecorder run_journaled uses, so the final grid, CSVs,
// journal, and metrics snapshot are byte-identical for any --workers ×
// --jobs combination, and to the single-process run (tests/dist_test.cc,
// tests/differential_test.cc).
//
// Failure handling: a worker that dies (SIGKILL, torn mid-frame write)
// or stalls past its deadline is detected by the master, its un-DONEd
// cell's segments are dropped, and the chain is re-queued from its
// first un-DONEd cell with the grant-failure count incremented. When a
// cell's grant failures exhaust the supervisor budget
// (SupervisorPolicy::max_attempts), the cell is recorded lost and the
// chain continues past it — the same labeled-partial-grid degradation a
// single-process run exhibits. A worker-reported ABORT (cell_crash
// fault) degrades the whole run to RunReport::kKilled, mirroring
// run_journaled.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/journal.h"
#include "core/supervisor.h"
#include "obsv/metrics.h"

namespace originscan::core {

// ---- Wire protocol ---------------------------------------------------
// The X-macro tables are the single source of truth for the dist
// protocol's symbol/value pairs: docs/PROTOCOL.md is checked against
// them by tools/protocol_doc_check (ctest label `docs`), the same way
// the metric tables back docs/METRICS.md.

// X(symbol, wire_value, "DOC-NAME")
#define OSN_DIST_MESSAGES(X)                                                  \
  X(kHello, 1, "HELLO")                                                       \
  X(kClaim, 2, "CLAIM")                                                       \
  X(kGrant, 3, "GRANT")                                                       \
  X(kSegment, 4, "SEGMENT")                                                   \
  X(kDone, 5, "DONE")                                                         \
  X(kAbort, 6, "ABORT")

enum class MsgType : std::uint8_t {
#define OSN_X(symbol, value, name) symbol = value,
  OSN_DIST_MESSAGES(OSN_X)
#undef OSN_X
};

// SEGMENT payload kinds:
//   RECORDS  serialize_results({result}) — the cell's .osnr bytes
//   IDS      serialize_cell_sidecar(...) — the cell's .ids bytes
//   METRICS  MetricBlock::serialize() — the cell's .metrics bytes
#define OSN_DIST_SEGMENT_KINDS(X)                                             \
  X(kRecords, 0, "RECORDS")                                                   \
  X(kIds, 1, "IDS")                                                           \
  X(kMetrics, 2, "METRICS")

enum class SegmentKind : std::uint8_t {
#define OSN_X(symbol, value, name) symbol = value,
  OSN_DIST_SEGMENT_KINDS(OSN_X)
#undef OSN_X
};

[[nodiscard]] std::string_view segment_kind_name(SegmentKind kind);

// Introspection rows (doc-name, wire-value) in definition order, for
// tools/protocol_doc_check. Mirrors service::ProtocolSymbol.
struct DistProtocolSymbol {
  std::string_view name;
  unsigned value;
};
[[nodiscard]] std::span<const DistProtocolSymbol> dist_message_symbols();
[[nodiscard]] std::span<const DistProtocolSymbol> dist_segment_symbols();

// One decoded protocol message. Fields are populated per type; unused
// fields keep their defaults on the wire (encode writes only the typed
// fields, decode rejects payloads with trailing or missing bytes).
struct WireMessage {
  MsgType type = MsgType::kHello;
  // HELLO
  std::uint32_t worker = 0;
  // GRANT
  std::uint32_t origin = 0;
  std::uint32_t chain_pos = 0;  // first chain position the worker runs
  std::uint32_t grant = 0;      // prior failed grants of the start cell
  bool have_snapshot = false;
  std::vector<std::uint8_t> snapshot;  // serialized IdsSnapshot
  // SEGMENT
  std::uint64_t slot = 0;  // also DONE
  SegmentKind kind = SegmentKind::kRecords;
  std::vector<std::uint8_t> bytes;
  // DONE
  std::uint32_t attempts = 1;
  bool lost = false;
  std::string sha256;  // done (not lost): worker-side record digest
  std::string text;    // DONE lost reason / worker-ABORT kill reason
};

// Encodes `message` as one complete frame (length + payload + CRC),
// ready to write to the transport.
[[nodiscard]] std::vector<std::uint8_t> encode_message(
    const WireMessage& message);

// Decodes one frame payload. nullopt = structurally invalid (unknown
// type, truncated fields, trailing bytes) — the caller must treat the
// peer as faulty; there is no resynchronization.
[[nodiscard]] std::optional<WireMessage> decode_message(
    std::span<const std::uint8_t> payload);

// ---- Segment merging -------------------------------------------------

// Commutative segment store: segments are keyed by (slot, kind), so any
// arrival interleaving of deterministic per-cell segments produces the
// same final state (fuzz_test.cc asserts digest equality over random
// interleavings). drop_slot implements the master's rollback of an
// un-DONEd cell when its worker dies.
class SegmentMerger {
 public:
  void add(std::uint64_t slot, SegmentKind kind,
           std::vector<std::uint8_t> bytes);
  void drop_slot(std::uint64_t slot);
  [[nodiscard]] const std::vector<std::uint8_t>* get(std::uint64_t slot,
                                                     SegmentKind kind) const;
  [[nodiscard]] bool complete(std::uint64_t slot) const;  // all three kinds
  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }
  // Order-independent content digest (hex SHA-256 over the sorted keyed
  // contents).
  [[nodiscard]] std::string digest() const;

 private:
  std::map<std::pair<std::uint64_t, std::uint8_t>, std::vector<std::uint8_t>>
      segments_;
};

// ---- Distributed run -------------------------------------------------

struct DistOptions {
  int workers = 2;
  // A spawned worker must HELLO within this wall-clock budget (covers
  // fork/exec plus world construction), and an active worker must show
  // protocol progress (any message) at least this often.
  std::chrono::milliseconds hello_timeout{60'000};
  std::chrono::milliseconds cell_timeout{600'000};
  // Total replacement workers the master may spawn after failures before
  // it gives up (throws). Each dead worker consumes one.
  int respawn_budget = 32;
  // Exec transport: argv for worker processes (argv[0] = executable);
  // the master appends "--fd N --worker-index I". Empty = fork mode: the
  // child calls `worker_main(fd, index)` — or, when that is also empty,
  // builds `Experiment(master.config())` and calls run_worker with the
  // master's policy. Tests with custom worlds supply worker_main.
  std::vector<std::string> worker_argv;
  std::function<void(int fd, int worker_index)> worker_main;
};

// Worker-process entry point: HELLO, then CLAIM/execute/stream until the
// master ABORTs or closes the transport. `experiment` must be freshly
// constructed (never run) from the master's exact config; its
// config().faults injector drives the worker_kill / worker_stall
// checkpoints. Returns on clean shutdown; does not return if a kill or
// stall fault fires.
void run_worker(int fd, int worker_index, Experiment& experiment,
                const SupervisorPolicy& policy = {});

// Master entry point: distributes `experiment`'s grid over
// `options.workers` processes and fills the experiment's results exactly
// as run_journaled would have: both settle cells through one
// GridRecorder. `journal` (optional) is both the resume source — settled
// cells are adopted, not re-granted — and the durable ledger the master
// records streamed cells into; its journal.* and fault.* counters reach
// the run registry (config().metrics) exactly as in-process. Once the
// journal's storage is dead, waiting cells are lost without a write.
// `dist_metrics` (optional) receives only the master-side dist.*
// counters; they are kept out of the run registry so metrics snapshots
// stay byte-identical across worker counts. The caller must be
// single-threaded (fork).
// Throws std::runtime_error on protocol-fatal conditions (journal
// corruption, respawn budget exhausted).
RunReport run_distributed(
    Experiment& experiment, ExperimentJournal* journal,
    const SupervisorPolicy& policy, const DistOptions& options,
    obsv::MetricBlock* dist_metrics = nullptr,
    const std::function<void(std::string_view)>& progress = {});

}  // namespace originscan::core
