// Experiment orchestration: the paper's nine synchronized scans —
// `trials` x `protocols` x origin roster — run against one simulated
// Internet, with cross-trial policy state (tripped IDSes) carried between
// trials exactly as it would persist in the real world.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/journal.h"
#include "core/supervisor.h"
#include "proto/protocol.h"
#include "scanner/orchestrator.h"
#include "sim/internet.h"
#include "sim/scenario.h"

namespace originscan::core {

struct ExperimentConfig {
  sim::ScenarioConfig scenario = sim::ScenarioConfig::paper_default();

  enum class Roster {
    kPaper,             // AU BR DE JP US1 US64 CEN
    kPaperWithCarinet,  // + CAR (one-trial origin, Section 2)
    kColocated,         // AU DE JP US1 CEN + HE NTT TELIA (follow-up)
  };
  Roster roster = Roster::kPaper;

  int trials = 3;
  // Copied from the constexpr table rather than an initializer list:
  // GCC 12 misreads the list's backing array as maybe-uninitialized
  // (-Wmaybe-uninitialized) once this default is inlined.
  std::vector<proto::Protocol> protocols = std::vector<proto::Protocol>(
      proto::kAllProtocols.begin(), proto::kAllProtocols.end());
  int probes = 2;
  net::VirtualTime probe_interval;  // delay between probes to one target
  int l7_retries = 0;
  // Ablation: strip the burst structure from path loss (see
  // sim::World::uniform_random_loss).
  bool uniform_random_loss = false;
  scan::Blocklist blocklist;  // synchronized across all origins
  net::VirtualTime scan_duration = net::VirtualTime::from_hours(21);
  // Worker threads for Experiment::run. With jobs > 1 the (trial,
  // protocol, origin) cells fan out as one serial chain per origin —
  // origins own disjoint source IPs, so their IDS trajectories cannot
  // interact — and the results are bit-identical to jobs == 1 (see
  // "Parallel execution" in DESIGN.md).
  int jobs = 1;
  // Extend the L7 retry ladder to banner-level failures (see
  // scan::RetryPolicy::retry_banner_failures).
  bool retry_banner_failures = false;
  // Deterministic fault injection, attached to every per-trial Internet
  // and threaded into the scan engines. Null = no faults. The injector
  // must outlive the experiment run.
  const fault::FaultInjector* faults = nullptr;
  // Observability sinks (both null by default = disabled at zero cost;
  // see DESIGN.md §9). `metrics` aggregates per-cell deltas: each cell
  // accumulates into a single-writer block (successful attempt's scan
  // counters + supervisor fault taps + journal counters), the block is
  // persisted as the cell's `.metrics` sidecar, then merged here — so a
  // killed-and-resumed run's snapshot is byte-identical to an
  // uninterrupted run's. `trace` receives virtual-clock spans for every
  // executed scan plus journal.replay / supervisor.retry instants. Both
  // are deliberately excluded from config_fingerprint: observing a run
  // must not change its identity.
  obsv::MetricsRegistry* metrics = nullptr;
  obsv::TraceRecorder* trace = nullptr;
};

// Outcome of one (possibly resumed, possibly degraded) experiment run.
struct RunReport {
  enum class Status {
    kComplete,  // every cell present
    kPartial,   // some cells lost (retry budget, worker deaths or dead
                // journal storage); grid usable
    kKilled,    // simulated process death; results cleared, resume from
                // the journal with a fresh Experiment
  };
  Status status = Status::kComplete;
  std::size_t cells_total = 0;
  std::size_t cells_adopted = 0;  // taken from the journal, not re-run
  std::size_t cells_run = 0;
  std::size_t cells_lost = 0;
  std::uint64_t retries = 0;  // attempts beyond the first, summed
  std::vector<CellKey> lost;  // lost cells, grid order
  std::string kill_reason;    // kKilled only

  [[nodiscard]] bool complete() const { return status == Status::kComplete; }
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);

  // Runs the experiment against a caller-supplied world instead of the
  // paper scenario (custom topologies, tests). The config's scenario
  // settings are ignored except for the seed, which must match the
  // world's.
  Experiment(ExperimentConfig config, sim::World world);

  // Runs every scan. `progress` (optional) receives one line per scan.
  // Throws std::runtime_error if a cell_crash fault kills the run (use
  // run_journaled with a journal to make that recoverable).
  void run(const std::function<void(std::string_view)>& progress = {});

  // Crash-safe run: journaled cells are adopted (skipping their scans,
  // restoring the persisted IDS snapshots), missing cells run under the
  // CellSupervisor and are journaled as they complete. The determinism
  // contract extends across the kill: a run killed after any cell and
  // resumed — at any jobs value — produces results byte-identical to an
  // uninterrupted run. `journal` may be null (plain supervised run, no
  // persistence). A journaled cell whose segment or sidecar fails
  // verification is quarantined — demoted to absent along with every
  // later cell of its origin's chain (counted in journal.quarantined_*)
  // and re-executed — rather than aborting the resume. A journal write
  // failure (ENOSPC, I/O error) fails the cell, not the run: the cell
  // is recorded lost and, once the journal reports storage_dead,
  // remaining cells fail fast instead of scanning into a dead disk.
  // Throws std::runtime_error only on structural mismatch: unknown
  // origins, entries outside the grid, or a journal that is not a
  // per-origin chain prefix of this grid.
  RunReport run_journaled(
      ExperimentJournal* journal, const SupervisorPolicy& policy = {},
      const std::function<void(std::string_view)>& progress = {});

  // Hex fingerprint of everything that determines this experiment's
  // output (seed, universe, roster, grid shape, scan parameters —
  // deliberately not jobs or faults). Journals are bound to it so a
  // resume under a changed config fails loudly.
  [[nodiscard]] std::string config_fingerprint() const;

  // Adopts previously saved results (core/store.h) instead of scanning.
  // The results must cover exactly this experiment's trials x protocols
  // x origins grid (matched by origin code, protocol, and trial);
  // returns false and leaves the experiment unrun otherwise. The
  // diagnostic overload explains the first mismatch (expected/got cell
  // listing) in `error`.
  bool adopt_results(std::vector<scan::ScanResult> results);
  bool adopt_results(std::vector<scan::ScanResult> results,
                     std::string* error);

  // Flat view of all results, e.g. for core::save_results.
  [[nodiscard]] const std::vector<scan::ScanResult>& all_results() const {
    return results_;
  }

  [[nodiscard]] const sim::World& world() const { return world_; }
  [[nodiscard]] const ExperimentConfig& config() const { return config_; }
  [[nodiscard]] std::size_t origin_count() const {
    return world_.origins.size();
  }
  [[nodiscard]] sim::OriginId origin_id(std::string_view code) const {
    return world_.origin_id(code);
  }

  [[nodiscard]] const scan::ScanResult& result(int trial,
                                               proto::Protocol protocol,
                                               sim::OriginId origin) const;
  [[nodiscard]] bool has_run() const { return !results_.empty(); }

  // Partial-grid support: whether this cell's scan actually completed
  // (false for lost cells — their result slots are empty and analysis
  // must exclude them).
  [[nodiscard]] bool has_cell(int trial, proto::Protocol protocol,
                              sim::OriginId origin) const;
  [[nodiscard]] std::vector<CellKey> lost_cells() const;

  // Ad-hoc extra scans against this experiment's world (used by the
  // retry experiment of Section 6 and the fresh-IP confirmation of
  // Section 7). `trial` selects host liveness; persistent IDS state is
  // shared with the main runs.
  scan::ScanResult run_extra_scan(int trial, proto::Protocol protocol,
                                  sim::OriginId origin,
                                  const scan::ScanOptions& options);

  // Grid geometry, public for the distributed runtime (core/dist.h) and
  // tests. Cells are numbered in serial execution order:
  // (trial * protocols + protocol_index) * origins + origin. An origin's
  // chain therefore occupies slots {c * origins + origin} for chain
  // positions c in [0, trials * protocols).
  [[nodiscard]] std::size_t cell_count() const {
    return static_cast<std::size_t>(config_.trials) *
           config_.protocols.size() * world_.origins.size();
  }
  [[nodiscard]] CellKey cell_key_at(std::size_t slot) const;

 private:
  friend class CellEngine;
  friend class GridRecorder;

  // A slot's grid coordinates (the inverse of index()).
  struct CellCoords {
    int trial = 0;
    std::size_t protocol_index = 0;
    sim::OriginId origin = 0;
  };
  [[nodiscard]] CellCoords coords_at(std::size_t slot) const;
  [[nodiscard]] std::size_t index(int trial, std::size_t protocol_index,
                                  sim::OriginId origin) const;

  ExperimentConfig config_;
  sim::World world_;
  sim::PersistentState persistent_;
  std::vector<scan::ScanResult> results_;
  // Parallel to results_ once run: true for lost cells. Empty (= all
  // present) for adopted result sets.
  std::vector<bool> lost_;
};

// Settles the cells of one grid run: the only code that commits a
// finished or lost cell to the journal, the metrics registry, the
// progress output and the RunReport. Both grid runners use it —
// Experiment::run_journaled (in-process chains, under its mutex) and
// the distributed master (core/dist.h, from its single-threaded poll
// loop) — so a cell's outcome means the same thing however the grid ran.
// Not internally synchronized.
class GridRecorder {
 public:
  using Progress = std::function<void(std::string_view)>;

  // `journal` (optional) is the resume source and the durable ledger;
  // `progress` (optional) receives one line per settled cell.
  GridRecorder(Experiment& experiment, ExperimentJournal* journal,
               const Progress& progress);
  ~GridRecorder();

  // Sizes the experiment's grid, routes the journal's fault points
  // (enospc, segment_corrupt) into the recorder's fault block, and adopts
  // the journal. Returns each origin's latest journaled IDS snapshot
  // (nullopt = the chain starts fresh) WITHOUT restoring it: only a
  // process that scans needs live IDS state. Throws std::runtime_error
  // on a journal that does not fit the grid.
  std::vector<std::optional<IdsSnapshot>> start();

  // Adopted from the journal, or lost (in the journal or earlier in this
  // run): the cell never runs again.
  [[nodiscard]] bool settled(std::size_t slot) const;

  // A completed cell. Journals it (result, post-cell IDS snapshot, metric
  // delta), then merges the delta, prints its progress line and stores
  // the result. If storage is dead or the journal write fails the cell is
  // lost instead — an unpersisted result would silently vanish on resume
  // — and done returns false. `segment` (optional) is the cell's store
  // segment and record digest when the caller already holds them (the
  // dist master: the bytes as received, digest verified); the journal
  // writes them as they are (ExperimentJournal::record_done).
  bool done(std::size_t slot, scan::ScanResult result,
            const IdsSnapshot& post, int attempts, obsv::MetricBlock delta,
            const CellSegment* segment = nullptr);
  // A cell the run gave up on (retry budget, worker deaths): journaled
  // lost best-effort and excluded from the grid. A lost cell contributes
  // no metric delta: a resume adopts the loss without re-running it.
  void lost(std::size_t slot, int attempts, const std::string& reason);

  // Latched once a journal write fails. From then on nothing more is
  // written: done and lost degrade to fail_fast, and callers should
  // fail_fast cells instead of running them.
  [[nodiscard]] bool storage_dead() const {
    return journal_ != nullptr && journal_->storage_dead();
  }
  // A cell lost to dead storage: nothing is written, so a resume on a
  // healthy disk re-runs it.
  void fail_fast(std::size_t slot);

  // The final report of a run that reached the end of the grid: lost
  // cells in grid order, grid-level metrics, the fault block merged.
  RunReport finish();
  // The report of a killed run (simulated process death): the in-memory
  // grid is dropped; everything recoverable lives in the journal.
  RunReport killed(std::string reason);

 private:
  // Validates every journal entry against the grid and adopts the
  // per-origin chain prefixes into results_/lost_ (merging persisted
  // metric deltas, emitting journal.replay trace instants). Cells whose
  // segment or sidecar fails verification are quarantined with the rest
  // of their chain and re-run.
  std::vector<std::optional<IdsSnapshot>> adopt_journal();
  void mark_lost(std::size_t slot, const std::string& reason);

  Experiment& experiment_;
  ExperimentJournal* journal_;
  const Progress& progress_;
  std::vector<bool> adopted_;
  // The journal's fault.* counts and journal.writes_failed; merged into
  // the registry when the run ends.
  obsv::MetricBlock faults_;
  RunReport report_;
};

// The per-cell execution engine: the supervised scan machinery shared by
// Experiment::run_journaled (in-process chains) and core::run_worker
// (distributed worker processes). Owns the per-trial Internets — the
// PolicyEngine constructors pre-insert the persistent IDS map entries
// serially at construction, which must precede any restore_origin call
// (restore writes into those entries). One engine per process; run_cell
// is thread-safe across distinct origins' chains, serial within one.
class CellEngine {
 public:
  explicit CellEngine(Experiment& experiment);

  // Runs one cell under `supervisor`: prewarm, supervised scan with
  // per-attempt IDS rollback, and — when `cell_block` is non-null — the
  // cell's metric attribution (the successful attempt's counters, the
  // supervisor's fault taps, retry/backoff accounting). Settling the
  // outcome (journal, report, progress) is the GridRecorder's job.
  [[nodiscard]] CellOutcome run_cell(std::size_t slot,
                                     CellSupervisor& supervisor,
                                     obsv::MetricBlock* cell_block);

  // The origin's current IDS slice (for journaling a completed cell or
  // streaming it to the distributed master).
  [[nodiscard]] IdsSnapshot capture_origin(sim::OriginId origin) const;
  // Overwrites the origin's IDS slice with `snapshot` (an empty snapshot
  // clears it). How a worker adopts the chain state a GRANT carries.
  void restore_origin(sim::OriginId origin, const IdsSnapshot& snapshot);

  // Thread count for the scans themselves (scan::ScanOptions::jobs,
  // bit-identical for any value). run_journaled keeps this at 1 — its
  // parallelism is across origin chains; distributed workers run chains
  // serially and parallelize inside the scan instead.
  void set_scan_jobs(int jobs) { scan_jobs_ = std::max(1, jobs); }

 private:
  Experiment& experiment_;
  std::vector<std::unique_ptr<sim::Internet>> internets_;
  int scan_jobs_ = 1;
};

}  // namespace originscan::core
