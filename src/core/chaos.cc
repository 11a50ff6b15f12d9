#include "core/chaos.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <optional>
#include <stdexcept>

#include "core/dist.h"
#include "core/experiment.h"
#include "core/goldens.h"
#include "core/journal.h"
#include "faultinject/chaos.h"
#include "faultinject/faultinject.h"

namespace originscan::core {
namespace {

namespace fs = std::filesystem;

// The soak grid: 2 trials x 1 protocol x the paper roster (7 origins).
// Small enough that four grid runs per round stay cheap, large enough
// that distributed episodes exercise real chain scheduling.
ExperimentConfig soak_config(const ChaosOptions& options,
                             const fault::FaultPlan& full_plan) {
  ExperimentConfig config;
  config.scenario.universe_size = 1u << options.scale;
  config.scenario.seed = options.seed;
  config.trials = 2;
  config.protocols = {proto::Protocol::kHttp};
  config.probes = 2;
  // Sized to the FULL plan for every run of the round — reference,
  // episode, resume, salvage. The retry budget is a no-op for unfaulted
  // hosts, and keeping it constant keeps the config fingerprint (and so
  // the journal binding) constant across the round's runs.
  config.l7_retries = full_plan.min_l7_retries();
  config.retry_banner_failures = full_plan.needs_banner_retry();
  return config;
}

// The reference/resume/salvage plan: the full plan minus the clauses
// that kill runs or decay storage. This is both what the oracle's serial
// reference runs under and what resume runs under — deliberately the
// same plan. Scan-layer and L7 fault decisions are pure functions of
// (seed, slot/host), so a serial run under these clauses is the exact
// expected output of any execution that survives the kill-class faults:
// recoverable faults consume retries and shift handshake times (which
// perturbs the lossy world's draws — see core/goldens.h), so they must
// be IN the reference, while kills, worker deaths, storage exhaustion,
// and corruption only interrupt persistence or transport and must leave
// the scan bytes of every surviving cell untouched.
fault::FaultPlan without_kill_class(const fault::FaultPlan& plan) {
  std::vector<fault::FaultClause> kept;
  std::copy_if(plan.clauses().begin(), plan.clauses().end(),
               std::back_inserter(kept), [](const fault::FaultClause& c) {
                 return !fault::kill_class(c.point);
               });
  return fault::FaultPlan(std::move(kept));
}

struct GridView {
  std::vector<bool> present;
  std::vector<std::string> sha;  // present slots only
};

GridView view_of(const Experiment& experiment) {
  GridView view;
  const std::size_t total = experiment.cell_count();
  view.present.assign(total, false);
  view.sha.resize(total);
  for (std::size_t slot = 0; slot < total; ++slot) {
    const CellKey key = experiment.cell_key_at(slot);
    const sim::OriginId origin = experiment.origin_id(key.origin_code);
    if (!experiment.has_cell(key.trial, key.protocol, origin)) continue;
    view.present[slot] = true;
    view.sha[slot] =
        digest_of(experiment.result(key.trial, key.protocol, origin))
            .record_sha256;
  }
  return view;
}

std::string cell_name(const CellKey& key) {
  return key.origin_code + "/" + std::string(proto::name_of(key.protocol)) +
         "/t" + std::to_string(key.trial);
}

}  // namespace

ChaosReport run_chaos_soak(const ChaosOptions& options) {
  ChaosReport report;
  const fs::path root = options.work_dir.empty()
                            ? fs::temp_directory_path() / "osn-chaos"
                            : fs::path(options.work_dir);
  fs::create_directories(root);

  for (int round = 0; round < options.rounds; ++round) {
    ++report.rounds;
    if (options.metrics != nullptr) {
      options.metrics->add(obsv::Counter::kChaosEpisodes);
    }
    const std::size_t violations_before = report.violations.size();
    const auto violate = [&](const std::string& what) {
      report.violations.push_back("round " + std::to_string(round) + ": " +
                                  what);
      if (options.metrics != nullptr) {
        options.metrics->add(obsv::Counter::kChaosViolations);
      }
    };

    // The round's episode. Grid geometry is plan-independent; the
    // generator only needs the cell count (2 trials x 1 protocol x 7
    // paper origins) and the universe to scale its windows.
    const fault::ChaosEpisode episode = fault::make_chaos_episode(
        options.seed, static_cast<std::uint64_t>(round), 2 * 7,
        1u << options.scale);
    fault::FaultPlan full_plan;
    if (!episode.plan_spec.empty()) {
      std::string parse_error;
      auto parsed = fault::FaultPlan::parse(episode.plan_spec, &parse_error);
      if (!parsed.has_value()) {
        // The generator emitted a spec its own parser rejects — a bug in
        // the harness itself, reported like any other violation.
        violate("generated plan failed to parse (" + parse_error +
                "): " + episode.plan_spec);
        continue;
      }
      full_plan = std::move(*parsed);
    }

    // ---- Serial reference: the oracle's expected bytes. -------------
    // (Also the source of the round's grid geometry — cell keys, origin
    // count — so the oracle below never rebuilds a world per lookup.)
    const fault::FaultInjector full_injector(full_plan, options.seed);
    const fault::FaultPlan salvage_plan = without_kill_class(full_plan);
    const fault::FaultInjector salvage_injector(salvage_plan, options.seed);

    const ExperimentConfig base = soak_config(options, full_plan);
    GridView reference;
    std::vector<CellKey> keys;
    std::size_t origin_count = 0;
    {
      ExperimentConfig config = base;
      config.faults = salvage_plan.empty() ? nullptr : &salvage_injector;
      Experiment experiment(config);
      const RunReport ref_report = experiment.run_journaled(nullptr);
      if (!ref_report.complete()) {
        violate("reference run not complete (plan \"" +
                salvage_plan.to_string() + "\")");
        continue;
      }
      reference = view_of(experiment);
      origin_count = experiment.origin_count();
      keys.reserve(experiment.cell_count());
      for (std::size_t slot = 0; slot < experiment.cell_count(); ++slot) {
        keys.push_back(experiment.cell_key_at(slot));
      }
    }
    const std::size_t total = keys.size();

    const fs::path dir = root / ("round-" + std::to_string(round));
    fs::remove_all(dir);

    // Per-round registry: run_journaled / the master count quarantine
    // and write-failure events into it; merged into the caller's sink
    // at the end of the round.
    obsv::MetricsRegistry round_metrics;

    // ---- The episode itself. ----------------------------------------
    bool resumed = false;
    std::optional<GridView> episode_view;
    RunReport episode_report;
    try {
      ExperimentConfig config = base;
      config.faults = full_plan.empty() ? nullptr : &full_injector;
      config.jobs = episode.jobs;
      config.metrics = &round_metrics;
      Experiment experiment(config);
      auto journal = ExperimentJournal::open(dir.string(),
                                             experiment.config_fingerprint());
      if (!journal.has_value()) {
        violate("journal open failed for " + dir.string());
        continue;
      }
      if (episode.workers > 0) {
        DistOptions dist_options;
        dist_options.workers = episode.workers;
        // Soak-friendly deadlines: a stalled worker must cost seconds,
        // not the production ten minutes.
        dist_options.hello_timeout = std::chrono::milliseconds(10'000);
        dist_options.cell_timeout = std::chrono::milliseconds(3'000);
        // The master's own block carries only its dist.* grant and
        // transport counters (journal and fault counts reach the round
        // registry through config.metrics); it feeds the round registry
        // like any cell delta would.
        obsv::MetricBlock master_block;
        episode_report =
            run_distributed(experiment, &*journal, SupervisorPolicy{},
                            dist_options, &master_block, {});
        round_metrics.merge_block(master_block);
      } else {
        episode_report = experiment.run_journaled(&*journal);
      }

      if (episode_report.status == RunReport::Status::kKilled) {
        // Simulated process death: resume from the journal without the
        // kill-class clauses, like an operator restarting on a healthy
        // machine. Quarantine (segment_corrupt damage) happens here, at
        // adoption.
        resumed = true;
        ++report.resumes;
        if (options.metrics != nullptr) {
          options.metrics->add(obsv::Counter::kChaosResumes);
        }
        ExperimentConfig resume_config = base;
        resume_config.faults =
            salvage_plan.empty() ? nullptr : &salvage_injector;
        resume_config.jobs = episode.jobs;
        resume_config.metrics = &round_metrics;
        Experiment resume_experiment(resume_config);
        auto resume_journal = ExperimentJournal::open(
            dir.string(), resume_experiment.config_fingerprint());
        if (!resume_journal.has_value()) {
          violate("journal reopen failed after kill");
          continue;
        }
        episode_report = resume_experiment.run_journaled(&*resume_journal);
        if (episode_report.status == RunReport::Status::kKilled) {
          violate("resume was killed with no kill-class clauses in play");
          continue;
        }
        episode_view = view_of(resume_experiment);
      } else {
        episode_view = view_of(experiment);
      }
    } catch (const std::exception& e) {
      violate(std::string("episode threw: ") + e.what());
      continue;
    }

    if (episode_report.status == RunReport::Status::kPartial) {
      ++report.partial_grids;
      if (options.metrics != nullptr) {
        options.metrics->add(obsv::Counter::kChaosPartialGrids);
      }
    }

    // ---- Oracle: byte-identical or honestly labeled. ----------------
    const GridView& grid = *episode_view;
    // 1. Losses are chain suffixes: the generator bounds every
    //    retry-class fault under its budget, so a cell can only be lost
    //    to storage death — which takes the whole rest of the chain
    //    with it. A live cell after a lost one would have run from the
    //    wrong IDS state.
    for (std::size_t origin = 0; origin < origin_count; ++origin) {
      bool seen_absent = false;
      for (std::size_t slot = origin; slot < total; slot += origin_count) {
        if (!grid.present[slot]) {
          seen_absent = true;
        } else if (seen_absent) {
          violate("cell " + cell_name(keys[slot]) +
                  " is present after a lost cell in its origin chain");
        }
      }
    }
    // 2. Present cells are byte-identical to the reference; absent
    //    cells are exactly the labeled losses.
    std::size_t absent = 0;
    for (std::size_t slot = 0; slot < total; ++slot) {
      const bool lost_labeled =
          std::find(episode_report.lost.begin(), episode_report.lost.end(),
                    keys[slot]) != episode_report.lost.end();
      if (grid.present[slot]) {
        if (lost_labeled) {
          violate("cell " + cell_name(keys[slot]) +
                  " present but labeled lost");
        }
        if (grid.sha[slot] != reference.sha[slot]) {
          violate("cell " + cell_name(keys[slot]) +
                  " diverges from the serial reference");
        }
      } else {
        ++absent;
        if (!lost_labeled) {
          violate("cell " + cell_name(keys[slot]) +
                  " silently missing (not in the lost list)");
        }
      }
    }
    if (absent != episode_report.lost.size()) {
      violate("lost list names " +
              std::to_string(episode_report.lost.size()) + " cells but " +
              std::to_string(absent) + " are absent");
    }

    // ---- Salvage pass: the journal directory must carry the run to a
    // complete, reference-identical grid once storage and processes are
    // healthy again. This is where segment_corrupt damage meets the
    // quarantine machinery and gets re-scanned.
    try {
      ExperimentConfig config = base;
      config.faults = salvage_plan.empty() ? nullptr : &salvage_injector;
      config.metrics = &round_metrics;
      Experiment experiment(config);
      auto journal = ExperimentJournal::open(dir.string(),
                                             experiment.config_fingerprint());
      if (!journal.has_value()) {
        violate("journal reopen failed for the salvage pass");
      } else {
        const RunReport final_report = experiment.run_journaled(&*journal);
        const GridView final_view = view_of(experiment);
        for (std::size_t slot = 0; slot < total; ++slot) {
          const bool lost_labeled =
              std::find(final_report.lost.begin(), final_report.lost.end(),
                        keys[slot]) != final_report.lost.end();
          if (final_view.present[slot]) {
            if (final_view.sha[slot] != reference.sha[slot]) {
              violate("salvaged cell " + cell_name(keys[slot]) +
                      " diverges from the serial reference");
            }
          } else if (!lost_labeled) {
            violate("salvaged grid silently missing cell " +
                    cell_name(keys[slot]));
          }
        }
      }
    } catch (const std::exception& e) {
      violate(std::string("salvage pass threw: ") + e.what());
    }

    const obsv::MetricBlock round_block = round_metrics.snapshot();
    const std::uint64_t quarantined =
        round_block.counter(obsv::Counter::kJournalQuarantinedCells);
    const std::uint64_t followers =
        round_block.counter(obsv::Counter::kJournalQuarantinedFollowers);
    report.quarantined_cells += quarantined;
    report.quarantined_followers += followers;
    if (options.metrics != nullptr) {
      options.metrics->add(obsv::Counter::kChaosQuarantines,
                           quarantined + followers);
      options.metrics->merge_block(round_block);
    }

    const bool clean = report.violations.size() == violations_before;
    if (clean) fs::remove_all(dir);
    if (options.progress) {
      std::string line = "round " + std::to_string(round) +
                         ": jobs=" + std::to_string(episode.jobs) +
                         " workers=" + std::to_string(episode.workers);
      line += episode.plan_spec.empty() ? " plan=<none>"
                                        : " plan=" + episode.plan_spec;
      if (resumed) line += " [resumed]";
      if (episode_report.status == RunReport::Status::kPartial) {
        line += " [partial " + std::to_string(episode_report.lost.size()) +
                " lost]";
      }
      if (quarantined + followers > 0) {
        line += " [quarantined " + std::to_string(quarantined + followers) +
                "]";
      }
      line += clean ? " ok" : " VIOLATION";
      options.progress(line);
    }
  }
  return report;
}

}  // namespace originscan::core
