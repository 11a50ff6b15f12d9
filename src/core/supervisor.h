// Per-cell execution supervision: deadlines, bounded retries with capped
// backoff, and simulated process death. The supervisor wraps the
// execution of one experiment grid cell (Experiment::run_journaled); its
// fault hooks are the cell_crash / cell_hang injection points.
//
// Failure ladder for one cell:
//   1. cell_crash fires at the cell's start: the process-wide kill token
//      trips, every chain winds down at its next batch check, and the
//      run reports kKilled — resumable from the journal, nothing else.
//   2. An attempt exceeds the per-cell deadline (cell_hang): the attempt
//      is aborted, the origin's IDS state is rolled back to the pre-cell
//      snapshot, and the cell retries after a capped exponential backoff
//      (accounted in virtual time — nothing actually sleeps).
//   3. The retry budget runs out: the cell is recorded lost and the run
//      degrades to a partial grid (see AccessMatrix::lost_cells).
//
// Rollback before every retry is what keeps retries deterministic: an
// aborted attempt may have fed IDS counters for a prefix of the sweep,
// and replaying on top of that would double-count probes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "core/journal.h"
#include "faultinject/faultinject.h"
#include "netbase/vtime.h"
#include "scanner/cancel.h"
#include "scanner/orchestrator.h"

namespace originscan::core {

struct SupervisorPolicy {
  // Attempts per cell before it is declared lost.
  int max_attempts = 3;
  // An attempt stalling longer than this (virtual time) is aborted. The
  // default comfortably clears a 21-hour scan plus retry slack.
  net::VirtualTime cell_deadline = net::VirtualTime::from_hours(48);
  // Exponential backoff between attempts: base << attempt, capped, then
  // jittered ±25% (deterministically — see CellSupervisor::backoff_for).
  net::VirtualTime backoff_base = net::VirtualTime::from_seconds(1);
  net::VirtualTime backoff_cap = net::VirtualTime::from_seconds(64);
};

struct CellOutcome {
  enum class Status {
    kDone,    // an attempt completed; `result` is valid
    kLost,    // retry budget exhausted; cell excluded from the grid
    kKilled,  // process death (cell_crash or an already-tripped kill)
  };
  Status status = Status::kDone;
  scan::ScanResult result;
  int attempts = 0;  // attempts consumed (including the successful one)
  // Total backoff charged between attempts, in virtual time.
  net::VirtualTime backoff_total;
  std::string reason;  // kLost/kKilled: human-readable cause
};

class CellSupervisor {
 public:
  // `seed` drives the deterministic backoff jitter; pass the experiment
  // seed so every execution mode (serial, --jobs N, --workers N, resume)
  // charges identical backoff to the same cell.
  CellSupervisor(SupervisorPolicy policy, const fault::FaultInjector* faults,
                 std::uint64_t seed = 0)
      : policy_(policy), faults_(faults), seed_(seed) {}

  // Backoff charged after failed attempt `attempt` of cell `cell_index`:
  // min(cap, base << attempt) jittered by ±25%, where the jitter is a
  // pure integer function of (seed, cell_index, attempt) — the cell
  // index encodes the origin, so retries of different origins' cells
  // never synchronize, yet every re-execution of the same cell charges
  // the exact same virtual time (the byte-identity contract).
  [[nodiscard]] net::VirtualTime backoff_for(std::uint64_t cell_index,
                                             int attempt) const;

  // Whether the process-wide kill token fired. Chains poll it (via
  // per-attempt child tokens) so a simulated process death stops the
  // whole run, not just the crashing cell.
  [[nodiscard]] bool killed() const { return kill_.cancelled(); }

  // Runs one cell to an outcome. `run_attempt` executes the scan under a
  // per-attempt cancel token; `capture`/`restore` snapshot and roll back
  // the origin's IDS slice around failed attempts. Thread-safe across
  // cells (distinct origins), serial within one origin's chain.
  // `metrics` (optional) is the CELL-level metric block: the supervisor's
  // fault points (fault.cell_crash, fault.cell_hang) tap into it, never
  // into a per-attempt block — an aborted attempt's block is discarded on
  // rollback, but the hang that aborted it is part of the cell's history.
  CellOutcome run_cell(
      std::uint64_t cell_index,
      const std::function<scan::ScanResult(const scan::CancelToken&)>&
          run_attempt,
      const std::function<IdsSnapshot()>& capture,
      const std::function<void(const IdsSnapshot&)>& restore,
      obsv::MetricBlock* metrics = nullptr);

 private:
  SupervisorPolicy policy_;
  const fault::FaultInjector* faults_;
  std::uint64_t seed_ = 0;
  scan::CancelToken kill_;
};

}  // namespace originscan::core
