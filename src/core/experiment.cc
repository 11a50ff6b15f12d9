#include "core/experiment.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "core/parallel.h"
#include "netbase/sha256.h"

namespace originscan::core {
namespace {

std::vector<sim::OriginSpec> roster_for(const ExperimentConfig& config) {
  switch (config.roster) {
    case ExperimentConfig::Roster::kPaper:
      return sim::paper_origins(config.scenario.universe_size);
    case ExperimentConfig::Roster::kPaperWithCarinet:
      return sim::paper_origins_with_carinet(config.scenario.universe_size);
    case ExperimentConfig::Roster::kColocated:
      return sim::colocated_origins(config.scenario.universe_size);
  }
  return sim::paper_origins(config.scenario.universe_size);
}

// A cell's trace track: "ORIGIN/proto/tN".
std::string track_of(const CellKey& key) {
  return key.origin_code + "/" + std::string(proto::name_of(key.protocol)) +
         "/t" + std::to_string(key.trial);
}

// The progress line of a settled cell starts "trial 1 HTTP AU: ".
std::string progress_prefix(const CellKey& key) {
  return "trial " + std::to_string(key.trial + 1) + " " +
         std::string(proto::name_of(key.protocol)) + " " + key.origin_code +
         ": ";
}

std::uint64_t retries_of(int attempts) {
  return static_cast<std::uint64_t>(std::max(0, attempts - 1));
}

}  // namespace

Experiment::Experiment(ExperimentConfig config)
    : config_(std::move(config)),
      world_(sim::build_world(config_.scenario, roster_for(config_))) {
  world_.uniform_random_loss = config_.uniform_random_loss;
}

Experiment::Experiment(ExperimentConfig config, sim::World world)
    : config_(std::move(config)), world_(std::move(world)) {
  config_.scenario.seed = world_.seed;
}

std::size_t Experiment::index(int trial, std::size_t protocol_index,
                              sim::OriginId origin) const {
  return (static_cast<std::size_t>(trial) * config_.protocols.size() +
          protocol_index) *
             world_.origins.size() +
         origin;
}

Experiment::CellCoords Experiment::coords_at(std::size_t slot) const {
  const std::size_t origin_count = world_.origins.size();
  const std::size_t protocol_count = config_.protocols.size();
  return CellCoords{static_cast<int>(slot / (origin_count * protocol_count)),
                    (slot / origin_count) % protocol_count,
                    static_cast<sim::OriginId>(slot % origin_count)};
}

CellKey Experiment::cell_key_at(std::size_t slot) const {
  const CellCoords cell = coords_at(slot);
  return CellKey{world_.origins[cell.origin].code,
                 config_.protocols[cell.protocol_index], cell.trial};
}

// ---- CellEngine ------------------------------------------------------

CellEngine::CellEngine(Experiment& experiment) : experiment_(experiment) {
  // One Internet per trial, created up front: the PolicyEngine
  // constructors pre-insert the persistent IDS map entries serially,
  // before any worker thread can touch them. This must also precede any
  // journal adoption restore — restore_ids writes into those entries.
  const ExperimentConfig& config = experiment_.config_;
  internets_.reserve(static_cast<std::size_t>(config.trials));
  for (int trial = 0; trial < config.trials; ++trial) {
    sim::TrialContext context;
    context.trial = trial;
    context.experiment_seed = config.scenario.seed;
    context.simultaneous_origins =
        static_cast<int>(experiment_.world_.origins.size());
    context.scan_duration = config.scan_duration;
    internets_.push_back(std::make_unique<sim::Internet>(
        &experiment_.world_, context, &experiment_.persistent_));
    internets_.back()->set_fault_injector(config.faults);
  }
}

IdsSnapshot CellEngine::capture_origin(sim::OriginId origin) const {
  return capture_ids(experiment_.persistent_,
                     experiment_.world_.origins[origin].source_ips);
}

void CellEngine::restore_origin(sim::OriginId origin,
                                const IdsSnapshot& snapshot) {
  restore_ids(experiment_.persistent_,
              experiment_.world_.origins[origin].source_ips, snapshot);
}

CellOutcome CellEngine::run_cell(std::size_t slot, CellSupervisor& supervisor,
                                 obsv::MetricBlock* cell_block) {
  const ExperimentConfig& config = experiment_.config_;
  const Experiment::CellCoords cell = experiment_.coords_at(slot);
  const proto::Protocol protocol = config.protocols[cell.protocol_index];
  sim::Internet& internet = *internets_[static_cast<std::size_t>(cell.trial)];
  const std::string track = track_of(experiment_.cell_key_at(slot));
  const auto source_ips = std::span<const net::Ipv4Addr>(
      experiment_.world_.origins[cell.origin].source_ips);

  // Per-cell metric attribution: `attempt_block` is a fresh scratch
  // block per attempt — an aborted attempt's counters are simply thrown
  // away with it, mirroring the IDS rollback. `cell_block` is the cell's
  // durable delta: the supervisor's fault taps, the successful attempt's
  // counters, and the retry accounting.
  obsv::MetricBlock attempt_block;

  CellOutcome outcome = supervisor.run_cell(
      slot,
      [&](const scan::CancelToken& token) {
        // Warm the (origin, protocol) loss/outage caches before the
        // sweep: the scan's ProbeContexts then resolve against warm
        // entries, and neither the probe hot loop nor the ZGrab
        // connect path ever takes the cache writer lock — regardless
        // of how concurrently-running origin chains interleave.
        internet.prewarm(cell.origin, protocol);
        scan::ScanOptions options;
        options.probes = config.probes;
        options.probe_interval = config.probe_interval;
        options.l7_retries = config.l7_retries;
        options.blocklist = config.blocklist;
        options.scan_duration = config.scan_duration;
        options.retry_banner_failures = config.retry_banner_failures;
        options.faults = config.faults;
        options.cancel = &token;
        options.jobs = scan_jobs_;
        if (cell_block != nullptr) {
          attempt_block = obsv::MetricBlock{};
          options.metrics = &attempt_block;
        }
        options.trace = config.trace;
        options.trace_track = track;
        return scan::run_scan(internet, cell.origin, protocol, options);
      },
      [&] { return capture_ids(experiment_.persistent_, source_ips); },
      [&](const IdsSnapshot& snapshot) {
        restore_ids(experiment_.persistent_, source_ips, snapshot);
      },
      cell_block);

  if (outcome.status == CellOutcome::Status::kDone && cell_block != nullptr) {
    const std::uint64_t retries = retries_of(outcome.attempts);
    cell_block->merge_from(attempt_block);
    cell_block->add(obsv::Counter::kSupervisorRetries, retries);
    if (retries > 0) {
      cell_block->observe(
          obsv::Histogram::kSupervisorBackoffMicros,
          static_cast<std::uint64_t>(outcome.backoff_total.micros()));
    }
  }
  return outcome;
}

void Experiment::run(const std::function<void(std::string_view)>& progress) {
  const RunReport report = run_journaled(nullptr, SupervisorPolicy{}, progress);
  if (report.status == RunReport::Status::kKilled) {
    throw std::runtime_error(
        "experiment killed (" + report.kill_reason +
        "); run with a journal (--resume-dir) to make this recoverable");
  }
}

std::string Experiment::config_fingerprint() const {
  // Canonical description of everything that determines the output.
  // jobs and faults are deliberately excluded: a journal written at one
  // jobs value resumes at any other, and resuming *without* the fault
  // that killed the original run is the whole point.
  std::string canon = "seed=" + std::to_string(config_.scenario.seed);
  canon += ";universe=" + std::to_string(world_.universe_size);
  canon += ";origins=";
  for (const auto& origin : world_.origins) canon += origin.code + ",";
  canon += ";trials=" + std::to_string(config_.trials);
  canon += ";protocols=";
  for (proto::Protocol p : config_.protocols) {
    canon += std::string(proto::name_of(p)) + ",";
  }
  canon += ";probes=" + std::to_string(config_.probes);
  canon +=
      ";probe_interval=" + std::to_string(config_.probe_interval.micros());
  canon += ";l7_retries=" + std::to_string(config_.l7_retries);
  canon += ";uniform_loss=" +
           std::to_string(config_.uniform_random_loss ? 1 : 0);
  canon += ";duration=" + std::to_string(config_.scan_duration.micros());
  canon += ";banner_retry=" +
           std::to_string(config_.retry_banner_failures ? 1 : 0);
  canon += ";blocklist=" + std::to_string(config_.blocklist.blocked_count());
  return net::Sha256::hex(net::Sha256::of(std::span(
      reinterpret_cast<const std::uint8_t*>(canon.data()), canon.size())));
}

RunReport Experiment::run_journaled(
    ExperimentJournal* journal, const SupervisorPolicy& policy,
    const std::function<void(std::string_view)>& progress) {
  // The engine builds the per-trial Internets; construction must precede
  // the snapshot restores below (see CellEngine).
  CellEngine engine(*this);
  GridRecorder recorder(*this, journal, progress);
  const std::vector<std::optional<IdsSnapshot>> latest = recorder.start();
  for (sim::OriginId origin = 0; origin < latest.size(); ++origin) {
    if (latest[origin].has_value()) {
      engine.restore_origin(origin, *latest[origin]);
    }
  }

  CellSupervisor supervisor(policy, config_.faults, config_.scenario.seed);
  std::mutex mutex;  // guards the recorder (and through it the journal)

  // Runs one cell under the supervisor; false aborts the caller's chain
  // (simulated process death).
  const auto run_cell = [&](std::size_t slot) -> bool {
    {
      std::scoped_lock lock(mutex);
      if (recorder.settled(slot)) return true;
      if (recorder.storage_dead()) {
        // Storage died earlier in this run. Scanning would only burn time
        // on a result that cannot be persisted — fail the cell fast.
        recorder.fail_fast(slot);
        return true;
      }
    }

    // `cell_block` is the cell's durable metric delta: the engine's
    // supervised-scan attribution plus (via record_done) the journal
    // counters. It is persisted with the cell and merged into the
    // registry, so an adopted cell replays exactly what a live run of it
    // would have contributed.
    obsv::MetricBlock cell_block;
    CellOutcome outcome = engine.run_cell(
        slot, supervisor, config_.metrics != nullptr ? &cell_block : nullptr);

    if (outcome.status == CellOutcome::Status::kKilled || supervisor.killed()) {
      // A killed process journals nothing more, but its supervisor taps
      // (fault.cell_crash) are still observable in-process.
      if (config_.metrics != nullptr) config_.metrics->merge_block(cell_block);
      return false;
    }
    const bool done = outcome.status == CellOutcome::Status::kDone;
    const IdsSnapshot post = done && journal != nullptr
                                 ? engine.capture_origin(coords_at(slot).origin)
                                 : IdsSnapshot{};

    std::scoped_lock lock(mutex);
    if (config_.trace != nullptr) {
      const std::string track = track_of(cell_key_at(slot)) + "/supervisor";
      for (int attempt = 2; attempt <= outcome.attempts; ++attempt) {
        config_.trace->instant(track, "supervisor.retry", net::VirtualTime{},
                               {{"attempt", std::to_string(attempt)}});
      }
    }
    if (done) {
      recorder.done(slot, std::move(outcome.result), post, outcome.attempts,
                    std::move(cell_block));
    } else {
      recorder.lost(slot, outcome.attempts, outcome.reason);
    }
    return true;
  };

  const int jobs = std::max(1, config_.jobs);
  const std::size_t total = cell_count();
  if (jobs == 1) {
    // Slots are numbered in serial execution order.
    for (std::size_t slot = 0; slot < total; ++slot) {
      if (!run_cell(slot)) break;
    }
  } else {
    // Parallel fan-out: one serial chain per origin, each running its
    // cells in (trial, protocol) order. An origin's IDS counter keys are
    // its own source IPs, so per-key mutation order — the only thing the
    // simulation's outputs can observe — matches the serial schedule no
    // matter how the chains interleave. Scans inside a chain stay
    // single-threaded (no nested pools).
    const std::size_t origin_count = world_.origins.size();
    std::vector<std::function<void()>> chains;
    chains.reserve(origin_count);
    for (std::size_t origin = 0; origin < origin_count; ++origin) {
      chains.push_back([&run_cell, total, origin_count, origin] {
        for (std::size_t slot = origin; slot < total; slot += origin_count) {
          if (!run_cell(slot)) return;
        }
      });
    }
    run_parallel(jobs, std::move(chains));
  }

  if (supervisor.killed()) return recorder.killed("cell_crash fault");
  return recorder.finish();
}

// ---- GridRecorder ----------------------------------------------------

GridRecorder::GridRecorder(Experiment& experiment, ExperimentJournal* journal,
                           const Progress& progress)
    : experiment_(experiment), journal_(journal), progress_(progress) {}

GridRecorder::~GridRecorder() {
  // The journal outlives the run; its fault counts must not point into
  // a destroyed recorder.
  if (journal_ != nullptr) {
    journal_->set_fault_injector(experiment_.config_.faults);
  }
}

std::vector<std::optional<IdsSnapshot>> GridRecorder::start() {
  assert(!experiment_.has_run() && "Experiment::run called twice");
  const std::size_t total = experiment_.cell_count();
  experiment_.results_.resize(total);
  experiment_.lost_.assign(total, false);
  adopted_.assign(total, false);
  report_.cells_total = total;
  if (journal_ == nullptr) {
    return std::vector<std::optional<IdsSnapshot>>(experiment_.origin_count());
  }
  journal_->set_fault_injector(experiment_.config_.faults, &faults_);
  return adopt_journal();
}

std::vector<std::optional<IdsSnapshot>> GridRecorder::adopt_journal() {
  const ExperimentConfig& config = experiment_.config_;
  const std::size_t origin_count = experiment_.origin_count();
  const std::size_t total = experiment_.cell_count();
  std::vector<std::optional<IdsSnapshot>> latest(origin_count);

  const auto count = [&](obsv::Counter counter) {
    if (config.metrics != nullptr) config.metrics->add(counter);
  };
  const auto trace_quarantine = [&](const CellKey& key,
                                    const std::string& error) {
    if (config.trace != nullptr) {
      config.trace->instant("journal", "journal.quarantine",
                            net::VirtualTime{},
                            {{"cell", track_of(key)}, {"error", error}});
    }
  };

  // An entry naming a cell outside this grid belongs to no chain (the
  // fingerprint check at open makes it a garbled line, not a config
  // change): it is quarantined like a corrupt cell. The cell its line
  // once named, if any, is missing now and breaks its chain below.
  std::vector<CellKey> outside;
  for (const JournalEntry& entry : journal_->entries()) {
    const CellKey& key = entry.key;
    const bool in_grid =
        experiment_.origin_id(key.origin_code) != ~sim::OriginId{0} &&
        std::find(config.protocols.begin(), config.protocols.end(),
                  key.protocol) != config.protocols.end() &&
        key.trial >= 0 && key.trial < config.trials;
    if (!in_grid) outside.push_back(key);
  }
  for (const CellKey& key : outside) {
    journal_->quarantine(key);
    count(obsv::Counter::kJournalQuarantinedCells);
    trace_quarantine(key, "outside the experiment grid");
  }

  // Adopt per origin, walking its chain in grid order under the salvage
  // rule (ExperimentJournal::salvage). The walk breaks at the first cell
  // that is missing or fails verification: the IDS snapshots after it no
  // longer describe the state their cells saw, so every later entry of
  // the chain is quarantined (demoted to absent in memory) and re-runs
  // from the last adopted snapshot. Each re-run appends a fresh manifest
  // line that supersedes the old one (last-wins replay).
  for (std::size_t origin = 0; origin < origin_count; ++origin) {
    bool chain_broken = false;
    for (std::size_t slot = origin; slot < total; slot += origin_count) {
      const CellKey key = experiment_.cell_key_at(slot);
      const JournalEntry* entry = journal_->find(key);
      if (entry == nullptr) {
        chain_broken = true;
        continue;
      }
      std::optional<scan::ScanResult> result;
      IdsSnapshot snapshot;
      std::string load_error;
      obsv::MetricBlock delta;
      switch (journal_->salvage(*entry, chain_broken, result, &snapshot,
                                &load_error,
                                config.metrics != nullptr ? &delta : nullptr)) {
        case Verdict::kLost:
          // A lost cell stays lost on resume: its chain already moved
          // past it, so re-running it now would see later IDS state.
          experiment_.lost_[slot] = true;
          break;
        case Verdict::kCorrupt:
          journal_->quarantine(key);
          count(obsv::Counter::kJournalQuarantinedCells);
          trace_quarantine(key, load_error);
          break;
        case Verdict::kFollower:
          journal_->quarantine(key);
          count(obsv::Counter::kJournalQuarantinedFollowers);
          break;
        case Verdict::kOk:
          // Replaying the cell's persisted delta (instead of its scan) is
          // what makes resumed and uninterrupted runs' snapshots
          // byte-identical.
          if (config.metrics != nullptr) config.metrics->merge_block(delta);
          if (config.trace != nullptr) {
            config.trace->instant(
                "journal", "journal.replay", net::VirtualTime{},
                {{"cell", track_of(key)},
                 {"records", std::to_string(result->records.size())}});
          }
          experiment_.results_[slot] = std::move(*result);
          adopted_[slot] = true;
          ++report_.cells_adopted;
          // The latest done cell's snapshot is cumulative for the origin
          // (serial chain, disjoint source IPs): restoring it puts the IDS
          // exactly where the chain's next un-run cell expects it.
          latest[origin] = std::move(snapshot);
          break;
      }
    }
  }
  return latest;
}

bool GridRecorder::settled(std::size_t slot) const {
  return adopted_[slot] || experiment_.lost_[slot];
}

bool GridRecorder::done(std::size_t slot, scan::ScanResult result,
                        const IdsSnapshot& post, int attempts,
                        obsv::MetricBlock delta, const CellSegment* segment) {
  if (storage_dead()) {
    fail_fast(slot);
    return false;
  }
  obsv::MetricsRegistry* metrics = experiment_.config_.metrics;
  const CellKey key = experiment_.cell_key_at(slot);
  report_.retries += retries_of(attempts);
  if (journal_ != nullptr) {
    std::string error;
    if (!journal_->record_done(key, result, segment, post, attempts,
                               metrics != nullptr ? &delta : nullptr,
                               &error)) {
      // Storage-exhaustion degradation: the scan completed but its
      // outcome cannot be made durable, so the cell — not the run —
      // fails. It is marked lost best-effort; if even that line cannot
      // be appended, a resume on a healthy disk simply re-runs it.
      faults_.add(obsv::Counter::kJournalWritesFailed);
      const std::string reason = "journal write failed: " + error;
      journal_->record_lost(key, attempts, reason);
      mark_lost(slot, reason);
      return false;
    }
  }
  if (metrics != nullptr) metrics->merge_block(delta);
  if (progress_) {
    progress_(progress_prefix(key) +
              std::to_string(result.completed_count()) + " hosts");
  }
  experiment_.results_[slot] = std::move(result);
  ++report_.cells_run;
  return true;
}

void GridRecorder::lost(std::size_t slot, int attempts,
                        const std::string& reason) {
  if (storage_dead()) {
    fail_fast(slot);
    return;
  }
  report_.retries += retries_of(attempts);
  if (journal_ != nullptr &&
      !journal_->record_lost(experiment_.cell_key_at(slot), attempts,
                             reason)) {
    // The cell is already lost in-memory; a failed lost-line append just
    // means a resume re-runs it instead of adopting the loss.
    faults_.add(obsv::Counter::kJournalWritesFailed);
  }
  mark_lost(slot, reason);
}

void GridRecorder::fail_fast(std::size_t slot) {
  mark_lost(slot, "journal storage dead");
}

void GridRecorder::mark_lost(std::size_t slot, const std::string& reason) {
  experiment_.lost_[slot] = true;
  if (progress_) {
    progress_(progress_prefix(experiment_.cell_key_at(slot)) + "LOST (" +
              reason + ")");
  }
}

RunReport GridRecorder::finish() {
  report_.lost = experiment_.lost_cells();
  report_.cells_lost = report_.lost.size();
  report_.status = report_.lost.empty() ? RunReport::Status::kComplete
                                        : RunReport::Status::kPartial;
  if (obsv::MetricsRegistry* metrics = experiment_.config_.metrics) {
    // Grid-level figures come from the final report, which is identical
    // for resumed and uninterrupted runs by construction.
    metrics->gauge_max(obsv::Gauge::kExperimentCellsTotal,
                       report_.cells_total);
    metrics->add(obsv::Counter::kExperimentCellsLost, report_.cells_lost);
    metrics->merge_block(faults_);
  }
  return report_;
}

RunReport GridRecorder::killed(std::string reason) {
  // Simulated process death: the in-memory grid is as gone as it would
  // be under a real SIGKILL. Resume with a fresh Experiment over the
  // same journal directory.
  experiment_.results_.clear();
  experiment_.lost_.clear();
  report_.status = RunReport::Status::kKilled;
  report_.kill_reason = std::move(reason);
  if (experiment_.config_.metrics != nullptr) {
    experiment_.config_.metrics->merge_block(faults_);
  }
  return report_;
}

bool Experiment::adopt_results(std::vector<scan::ScanResult> results) {
  return adopt_results(std::move(results), nullptr);
}

bool Experiment::adopt_results(std::vector<scan::ScanResult> results,
                               std::string* error) {
  const auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };
  const auto cell_name = [this](int trial, proto::Protocol protocol,
                                std::string_view code) {
    return std::string(code) + " " + std::string(proto::name_of(protocol)) +
           " trial " + std::to_string(trial);
  };

  if (!results_.empty()) return fail("experiment has already run");
  const std::size_t expected = static_cast<std::size_t>(config_.trials) *
                               config_.protocols.size() *
                               world_.origins.size();
  if (results.size() != expected) {
    return fail("expected " + std::to_string(expected) + " results (" +
                std::to_string(config_.trials) + " trials x " +
                std::to_string(config_.protocols.size()) + " protocols x " +
                std::to_string(world_.origins.size()) + " origins), got " +
                std::to_string(results.size()));
  }

  std::vector<scan::ScanResult> arranged(expected);
  std::vector<bool> filled(expected, false);
  for (auto& result : results) {
    const sim::OriginId origin = world_.origin_id(result.origin_code);
    if (origin == ~sim::OriginId{0}) {
      std::string roster;
      for (const auto& spec : world_.origins) {
        if (!roster.empty()) roster += " ";
        roster += spec.code;
      }
      return fail("unknown origin code \"" + result.origin_code +
                  "\" (roster: " + roster + ")");
    }
    std::size_t protocol_index = config_.protocols.size();
    for (std::size_t p = 0; p < config_.protocols.size(); ++p) {
      if (config_.protocols[p] == result.protocol) protocol_index = p;
    }
    if (protocol_index == config_.protocols.size()) {
      return fail("protocol " + std::string(proto::name_of(result.protocol)) +
                  " is not part of this experiment");
    }
    if (result.trial < 0 || result.trial >= config_.trials) {
      return fail("trial " + std::to_string(result.trial) +
                  " outside 0.." + std::to_string(config_.trials - 1) +
                  " for cell " +
                  cell_name(result.trial, result.protocol,
                            result.origin_code));
    }
    const std::size_t slot = index(result.trial, protocol_index, origin);
    if (filled[slot]) {
      return fail("duplicate cell " + cell_name(result.trial, result.protocol,
                                                result.origin_code));
    }
    arranged[slot] = std::move(result);
    filled[slot] = true;
  }
  for (std::size_t slot = 0; slot < filled.size(); ++slot) {
    if (!filled[slot]) {
      const CellKey key = cell_key_at(slot);
      return fail("missing cell " +
                  cell_name(key.trial, key.protocol, key.origin_code));
    }
  }
  results_ = std::move(arranged);
  lost_.assign(expected, false);
  return true;
}

bool Experiment::has_cell(int trial, proto::Protocol protocol,
                          sim::OriginId origin) const {
  if (results_.empty()) return false;
  for (std::size_t p = 0; p < config_.protocols.size(); ++p) {
    if (config_.protocols[p] == protocol) {
      const std::size_t slot = index(trial, p, origin);
      return lost_.empty() || !lost_[slot];
    }
  }
  return false;
}

std::vector<CellKey> Experiment::lost_cells() const {
  std::vector<CellKey> lost;
  for (std::size_t slot = 0; slot < lost_.size(); ++slot) {
    if (lost_[slot]) lost.push_back(cell_key_at(slot));
  }
  return lost;
}

const scan::ScanResult& Experiment::result(int trial,
                                           proto::Protocol protocol,
                                           sim::OriginId origin) const {
  for (std::size_t p = 0; p < config_.protocols.size(); ++p) {
    if (config_.protocols[p] == protocol) {
      return results_.at(index(trial, p, origin));
    }
  }
  throw std::out_of_range("protocol not part of this experiment");
}

scan::ScanResult Experiment::run_extra_scan(int trial,
                                            proto::Protocol protocol,
                                            sim::OriginId origin,
                                            const scan::ScanOptions& options) {
  sim::TrialContext context;
  context.trial = trial;
  context.experiment_seed = config_.scenario.seed;
  // Extra scans are one-origin follow-ups: no synchronized burst.
  context.simultaneous_origins = 1;
  context.scan_duration = options.scan_duration;
  sim::Internet internet(&world_, context, &persistent_);
  internet.set_fault_injector(config_.faults);
  return scan::run_scan(internet, origin, protocol, options);
}

}  // namespace originscan::core
