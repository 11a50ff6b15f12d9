// The distributed-grid contract, end to end: a grid run over any
// --workers x --jobs combination is byte-identical to the serial run —
// including the metrics snapshot — and stays byte-identical when worker
// processes are SIGKILLed at every protocol phase, tear frames mid-
// write, or stall until the master's deadlines fire. Grant-budget
// exhaustion degrades to the same labeled partial grid as a
// single-process run, cell_crash degrades to kKilled with a resumable
// journal, and the dist.* counters are pinned to exact values where the
// schedule makes them deterministic.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "core/access_matrix.h"
#include "core/analysis/coverage.h"
#include "core/dist.h"
#include "core/experiment.h"
#include "core/journal.h"
#include "core/store.h"
#include "faultinject/faultinject.h"
#include "netbase/sha256.h"
#include "obsv/metrics.h"
#include "tests/test_world.h"

namespace originscan::core {
namespace {

using originscan::testing::make_mini_world;
using originscan::testing::scratch_dir;

namespace fs = std::filesystem;

// The crash_resume_test world: 2 trials x 1 protocol x 2 single-IP
// origins (4 cells, 2 chains of length 2), with bursty loss and a
// low-threshold rate IDS on Alpha so the output is sensitive to the
// exact IDS trajectory a GRANT's snapshot must carry across workers.
sim::World make_dist_world() {
  auto world = make_mini_world();
  world.origins.pop_back();  // drop FOUR: two single-IP origins remain
  sim::PathProfile lossy;
  lossy.good_loss = 0.02;
  lossy.bad_loss = 0.6;
  lossy.bad_fraction = 0.15;
  world.paths.set_default_profile(lossy);
  sim::RateIdsRule ids;
  ids.probe_threshold = 200;
  world.policies.edit(world.topology.find_as("Alpha")).rate_ids = ids;
  return world;
}

ExperimentConfig dist_config() {
  ExperimentConfig config;
  config.scenario.seed = make_mini_world().seed;
  config.protocols = {proto::Protocol::kHttp};
  config.trials = 2;
  return config;
}

constexpr std::size_t kCells = 4;  // 2 trials x 1 protocol x 2 origins

std::string sha256_of_results(const std::vector<scan::ScanResult>& results) {
  const auto bytes = serialize_results(results);
  return net::Sha256::hex(net::Sha256::of(bytes));
}

std::string golden_sha() {
  static const std::string sha = [] {
    Experiment experiment(dist_config(), make_dist_world());
    experiment.run();
    return sha256_of_results(experiment.all_results());
  }();
  return sha;
}

fault::FaultInjector make_injector(const std::string& spec) {
  std::string error;
  auto plan = fault::FaultPlan::parse(spec, &error);
  EXPECT_TRUE(plan.has_value()) << spec << ": " << error;
  return fault::FaultInjector(plan.value_or(fault::FaultPlan{}),
                              0xFA57BEEFULL);
}

std::uint64_t count(const obsv::MetricBlock& block, obsv::Counter counter) {
  return block.counter(counter);
}

// ------------------------------------------------- clean byte identity ----

TEST(Dist, CleanRunsByteIdenticalAcrossWorkersAndJobs) {
  for (int workers : {1, 2, 4}) {
    for (int jobs : {1, 2}) {
      auto config = dist_config();
      config.jobs = jobs;
      Experiment experiment(config, make_dist_world());
      DistOptions options;
      options.workers = workers;
      const RunReport report =
          run_distributed(experiment, nullptr, SupervisorPolicy{}, options);
      EXPECT_TRUE(report.complete())
          << "workers=" << workers << " jobs=" << jobs;
      EXPECT_EQ(report.cells_total, kCells);
      EXPECT_EQ(report.cells_run, kCells);
      EXPECT_EQ(report.cells_adopted, 0u);
      EXPECT_EQ(sha256_of_results(experiment.all_results()), golden_sha())
          << "workers=" << workers << " jobs=" << jobs;
    }
  }
}

TEST(Dist, MetricsSnapshotByteIdenticalToSerial) {
  // The distributed master merges the exact per-cell deltas the workers
  // streamed, so the registry snapshot is a pure function of (world,
  // config) — not of the worker count (DESIGN.md §11).
  const std::string serial = [] {
    obsv::MetricsRegistry registry;
    auto config = dist_config();
    config.metrics = &registry;
    Experiment experiment(config, make_dist_world());
    EXPECT_TRUE(experiment.run_journaled(nullptr).complete());
    return registry.snapshot_json();
  }();
  EXPECT_NE(serial.find("\"zmap.probes_sent\""), std::string::npos);

  for (int workers : {1, 2}) {
    obsv::MetricsRegistry registry;
    auto config = dist_config();
    config.metrics = &registry;
    Experiment experiment(config, make_dist_world());
    DistOptions options;
    options.workers = workers;
    EXPECT_TRUE(
        run_distributed(experiment, nullptr, SupervisorPolicy{}, options)
            .complete());
    EXPECT_EQ(registry.snapshot_json(), serial) << "workers=" << workers;
  }
}

TEST(Dist, ExactCountersOnCleanRun) {
  // The clean 2-chain schedule is deterministic end to end, so every
  // dist.* counter is pinned, not merely bounded.
  obsv::MetricBlock dist;
  Experiment experiment(dist_config(), make_dist_world());
  DistOptions options;
  options.workers = 2;
  EXPECT_TRUE(
      run_distributed(experiment, nullptr, SupervisorPolicy{}, options, &dist)
          .complete());
  EXPECT_EQ(count(dist, obsv::Counter::kDistWorkersSpawned), 2u);
  EXPECT_EQ(count(dist, obsv::Counter::kDistWorkersRestarted), 0u);
  EXPECT_EQ(count(dist, obsv::Counter::kDistWorkersFailed), 0u);
  EXPECT_EQ(count(dist, obsv::Counter::kDistChainsGranted), 2u);
  EXPECT_EQ(count(dist, obsv::Counter::kDistGrantRetries), 0u);
  EXPECT_EQ(count(dist, obsv::Counter::kDistCellsCompleted), kCells);
  EXPECT_EQ(count(dist, obsv::Counter::kDistCellsLost), 0u);
  EXPECT_EQ(count(dist, obsv::Counter::kDistSegmentsReceived), 3u * kCells);
  EXPECT_EQ(count(dist, obsv::Counter::kDistFrameErrors), 0u);
  EXPECT_EQ(count(dist, obsv::Counter::kDistDeadlinesExpired), 0u);

  // More workers than chains: the spawn count is capped at the number of
  // chains, so idle fork cost is never paid.
  obsv::MetricBlock dist4;
  Experiment experiment4(dist_config(), make_dist_world());
  DistOptions options4;
  options4.workers = 4;
  EXPECT_TRUE(run_distributed(experiment4, nullptr, SupervisorPolicy{},
                              options4, &dist4)
                  .complete());
  EXPECT_EQ(count(dist4, obsv::Counter::kDistWorkersSpawned), 2u);
}

// ------------------------------------------------------- kill matrix ----

TEST(Dist, KillMatrixEveryPhaseEveryWorkerCountByteIdentical) {
  // SIGKILL the worker handling a chosen cell at each post-grant
  // protocol phase (post-CLAIM, mid-SEGMENT with a torn half-frame on
  // the wire, pre-DONE), across worker counts. The master rolls the
  // chain back and re-grants; the default attempts=1 means the retry
  // runs clean, so every final grid is byte-identical to the serial run.
  for (const char* phase : {"claim", "segment", "done"}) {
    for (std::size_t cell : {std::size_t{1}, std::size_t{2}}) {
      for (int workers : {1, 2, 4}) {
        const std::string spec = "worker_kill:cell=" + std::to_string(cell) +
                                 ",phase=" + phase;
        const auto injector = make_injector(spec);
        auto config = dist_config();
        config.faults = &injector;
        Experiment experiment(config, make_dist_world());
        obsv::MetricBlock dist;
        DistOptions options;
        options.workers = workers;
        const RunReport report = run_distributed(
            experiment, nullptr, SupervisorPolicy{}, options, &dist);
        EXPECT_TRUE(report.complete())
            << spec << " workers=" << workers;
        EXPECT_EQ(sha256_of_results(experiment.all_results()), golden_sha())
            << spec << " workers=" << workers;
        EXPECT_EQ(count(dist, obsv::Counter::kDistWorkersFailed), 1u)
            << spec << " workers=" << workers;
        // A mid-SEGMENT death leaves exactly one torn frame buffered at
        // EOF; the other phases die between frames.
        const std::uint64_t torn = std::string(phase) == "segment" ? 1u : 0u;
        EXPECT_EQ(count(dist, obsv::Counter::kDistFrameErrors), torn)
            << spec << " workers=" << workers;
      }
    }
  }
}

TEST(Dist, KillPreHelloRespawnsAndCompletes) {
  // The worker=0 form kills the first worker before it ever speaks;
  // replacements take fresh indices, so the fault fires exactly once.
  for (int workers : {1, 2}) {
    const auto injector = make_injector("worker_kill:worker=0");
    auto config = dist_config();
    config.faults = &injector;
    Experiment experiment(config, make_dist_world());
    obsv::MetricBlock dist;
    DistOptions options;
    options.workers = workers;
    const RunReport report = run_distributed(experiment, nullptr,
                                             SupervisorPolicy{}, options,
                                             &dist);
    EXPECT_TRUE(report.complete()) << "workers=" << workers;
    EXPECT_EQ(sha256_of_results(experiment.all_results()), golden_sha())
        << "workers=" << workers;
    EXPECT_EQ(count(dist, obsv::Counter::kDistWorkersFailed), 1u);
    if (workers == 1) {
      // Single-worker schedule: death and respawn are fully serialized.
      EXPECT_EQ(count(dist, obsv::Counter::kDistWorkersSpawned), 2u);
      EXPECT_EQ(count(dist, obsv::Counter::kDistWorkersRestarted), 1u);
    }
  }
}

// ------------------------------------------------------------ stalls ----

TEST(Dist, StalledHelloDetectedByDeadline) {
  // A worker that wedges before HELLO produces no protocol traffic at
  // all — only the hello deadline can catch it.
  const auto injector = make_injector("worker_stall:worker=0");
  auto config = dist_config();
  config.faults = &injector;
  Experiment experiment(config, make_dist_world());
  obsv::MetricBlock dist;
  DistOptions options;
  options.workers = 1;
  options.hello_timeout = std::chrono::milliseconds(1000);
  const RunReport report =
      run_distributed(experiment, nullptr, SupervisorPolicy{}, options, &dist);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(sha256_of_results(experiment.all_results()), golden_sha());
  EXPECT_EQ(count(dist, obsv::Counter::kDistDeadlinesExpired), 1u);
  EXPECT_EQ(count(dist, obsv::Counter::kDistWorkersFailed), 1u);
  EXPECT_EQ(count(dist, obsv::Counter::kDistWorkersRestarted), 1u);
  EXPECT_EQ(count(dist, obsv::Counter::kDistWorkersSpawned), 2u);
}

TEST(Dist, StalledMidChainDetectedByCellDeadline) {
  // A worker that wedges after completing cell 0 of its chain (slot 2 is
  // origin ONE's second cell) goes quiet mid-protocol; the cell deadline
  // kills it and the re-granted chain restarts at the stalled cell.
  const auto injector = make_injector("worker_stall:cell=2,phase=claim");
  auto config = dist_config();
  config.faults = &injector;
  Experiment experiment(config, make_dist_world());
  obsv::MetricBlock dist;
  DistOptions options;
  options.workers = 2;
  options.cell_timeout = std::chrono::milliseconds(5000);
  const RunReport report =
      run_distributed(experiment, nullptr, SupervisorPolicy{}, options, &dist);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(sha256_of_results(experiment.all_results()), golden_sha());
  EXPECT_EQ(count(dist, obsv::Counter::kDistDeadlinesExpired), 1u);
  EXPECT_EQ(count(dist, obsv::Counter::kDistWorkersFailed), 1u);
  EXPECT_EQ(count(dist, obsv::Counter::kDistGrantRetries), 1u);
}

// ------------------------------------------------- grant exhaustion ----

TEST(Dist, GrantExhaustionDegradesToLabeledPartialGrid) {
  // attempts=3 makes the kill fire on all three grants the supervisor
  // budget allows: the cell is recorded lost with the death count in the
  // reason, the chain continues past it, and the analysis pipeline
  // accepts the partial grid — the same degradation a single-process
  // retry exhaustion produces.
  const auto injector =
      make_injector("worker_kill:cell=2,phase=claim,attempts=3");
  auto config = dist_config();
  config.faults = &injector;
  Experiment experiment(config, make_dist_world());
  const std::string dir = scratch_dir("dist_grant_exhaustion");
  std::string error;
  auto journal =
      ExperimentJournal::open(dir, experiment.config_fingerprint(), &error);
  ASSERT_TRUE(journal.has_value()) << error;
  obsv::MetricBlock dist;
  DistOptions options;
  options.workers = 2;
  const RunReport report = run_distributed(experiment, &*journal,
                                           SupervisorPolicy{}, options, &dist);
  EXPECT_EQ(report.status, RunReport::Status::kPartial);
  EXPECT_EQ(report.cells_lost, 1u);
  ASSERT_EQ(report.lost.size(), 1u);
  EXPECT_EQ(report.lost[0], (CellKey{"ONE", proto::Protocol::kHttp, 1}));
  EXPECT_FALSE(experiment.has_cell(1, proto::Protocol::kHttp, 0));
  EXPECT_TRUE(experiment.has_cell(0, proto::Protocol::kHttp, 0));
  EXPECT_EQ(count(dist, obsv::Counter::kDistWorkersFailed), 3u);
  EXPECT_EQ(count(dist, obsv::Counter::kDistCellsLost), 1u);
  EXPECT_EQ(count(dist, obsv::Counter::kDistCellsCompleted), kCells - 1);
  // Chain ONE granted 3 times (all fatal), chain TWO once.
  EXPECT_EQ(count(dist, obsv::Counter::kDistChainsGranted), 4u);
  EXPECT_EQ(count(dist, obsv::Counter::kDistGrantRetries), 2u);

  // The partial grid flows through analysis like any other.
  const auto matrix = AccessMatrix::build(experiment, proto::Protocol::kHttp);
  EXPECT_TRUE(matrix.partial());
  EXPECT_FALSE(matrix.has_cell(1, 0));
  const auto coverage = compute_coverage(matrix);
  EXPECT_EQ(coverage.lost_cells.size(), 1u);

  // The journaled lost marker carries across modes: a serial resume
  // adopts the three completed cells and re-runs nothing.
  Experiment resumed(dist_config(), make_dist_world());
  auto journal2 =
      ExperimentJournal::open(dir, resumed.config_fingerprint(), &error);
  ASSERT_TRUE(journal2.has_value()) << error;
  const RunReport report2 = resumed.run_journaled(&*journal2);
  EXPECT_EQ(report2.status, RunReport::Status::kPartial);
  EXPECT_EQ(report2.cells_adopted, kCells - 1);
  EXPECT_EQ(report2.cells_run, 0u);
  EXPECT_EQ(report2.cells_lost, 1u);
  fs::remove_all(dir);
}

TEST(Dist, RespawnBudgetExhaustionThrows) {
  // With a zero respawn budget and a worker that always dies pre-HELLO,
  // the master is left with no workers and no way to make progress — it
  // must fail loudly, not spin.
  const auto injector = make_injector("worker_kill:worker=0");
  auto config = dist_config();
  config.faults = &injector;
  Experiment experiment(config, make_dist_world());
  DistOptions options;
  options.workers = 1;
  options.respawn_budget = 0;
  try {
    run_distributed(experiment, nullptr, SupervisorPolicy{}, options);
    FAIL() << "expected respawn-budget exhaustion to throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("respawn budget"),
              std::string::npos)
        << error.what();
  }
}

// ------------------------------------------ journal faults, one registry ----

TEST(Dist, JournalFaultCountersReachTheRunRegistry) {
  // The master settles cells through the same GridRecorder as
  // run_journaled: the journal's fault.* and journal.* counters land in
  // the run registry exactly as in-process, and the dist block carries
  // only dist.* counters. One worker keeps the master's schedule fixed.
  const auto run = [](const fault::FaultInjector& injector, int workers,
                      obsv::MetricBlock* dist, RunReport* report) {
    const std::string dir = scratch_dir("dist_journal_faults");
    obsv::MetricsRegistry registry;
    auto config = dist_config();
    config.faults = &injector;
    config.metrics = &registry;
    Experiment experiment(config, make_dist_world());
    std::string error;
    auto journal =
        ExperimentJournal::open(dir, experiment.config_fingerprint(), &error);
    EXPECT_TRUE(journal.has_value()) << error;
    if (workers == 0) {
      *report = experiment.run_journaled(&*journal);
    } else {
      DistOptions options;
      options.workers = workers;
      *report = run_distributed(experiment, &*journal, SupervisorPolicy{},
                                options, dist);
    }
    fs::remove_all(dir);
    return registry.snapshot();
  };
  const auto expect_dist_only = [](const obsv::MetricBlock& dist) {
    for (obsv::Counter counter :
         {obsv::Counter::kFaultEnospc, obsv::Counter::kFaultSegmentCorrupt,
          obsv::Counter::kJournalWritesFailed}) {
      EXPECT_EQ(count(dist, counter), 0u) << obsv::counter_name(counter);
    }
  };

  {
    // Storage dies on origin ONE's second cell while origin TWO's chain
    // is still queued: the master's storage-dead drain loses both of
    // TWO's cells without writing, so the fault counts match the serial
    // run's (one failed commit: its segment write and its lost line).
    const auto injector = make_injector("enospc:bytes=12000");
    RunReport serial_report;
    const obsv::MetricBlock serial =
        run(injector, 0, nullptr, &serial_report);
    RunReport report;
    obsv::MetricBlock dist;
    const obsv::MetricBlock registry = run(injector, 1, &dist, &report);
    EXPECT_EQ(report.status, RunReport::Status::kPartial);
    EXPECT_EQ(report.cells_run, 1u);
    EXPECT_EQ(report.lost,
              (std::vector<CellKey>{{"TWO", proto::Protocol::kHttp, 0},
                                    {"ONE", proto::Protocol::kHttp, 1},
                                    {"TWO", proto::Protocol::kHttp, 1}}));
    EXPECT_EQ(count(registry, obsv::Counter::kFaultEnospc), 2u);
    EXPECT_EQ(count(registry, obsv::Counter::kJournalWritesFailed), 1u);
    EXPECT_EQ(count(serial, obsv::Counter::kFaultEnospc), 2u);
    EXPECT_EQ(count(serial, obsv::Counter::kJournalWritesFailed), 1u);
    EXPECT_EQ(count(dist, obsv::Counter::kDistCellsLost), 3u);
    expect_dist_only(dist);
  }
  {
    // A latent corruption fails nothing at write time: the run completes
    // and its whole registry matches the serial run's.
    const auto injector = make_injector("segment_corrupt:file=3");
    RunReport serial_report;
    const obsv::MetricBlock serial =
        run(injector, 0, nullptr, &serial_report);
    RunReport report;
    obsv::MetricBlock dist;
    const obsv::MetricBlock registry = run(injector, 1, &dist, &report);
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(count(registry, obsv::Counter::kFaultSegmentCorrupt), 1u);
    EXPECT_EQ(obsv::snapshot_json(registry), obsv::snapshot_json(serial));
    expect_dist_only(dist);
  }
}

// ------------------------------------------------ cross-mode resume ----

TEST(Dist, CellCrashAbortKillsRunAndSerialResumeMatches) {
  // A cell_crash inside a worker ABORTs the whole distributed run to
  // kKilled — exactly run_journaled's degradation — and the journal the
  // master kept makes a plain serial resume byte-identical.
  const std::string dir = scratch_dir("dist_killed_serial_resume");
  {
    const auto injector = make_injector("cell_crash:cell=2");
    auto config = dist_config();
    config.faults = &injector;
    Experiment experiment(config, make_dist_world());
    std::string error;
    auto journal =
        ExperimentJournal::open(dir, experiment.config_fingerprint(), &error);
    ASSERT_TRUE(journal.has_value()) << error;
    DistOptions options;
    options.workers = 2;
    const RunReport report = run_distributed(experiment, &*journal,
                                             SupervisorPolicy{}, options);
    EXPECT_EQ(report.status, RunReport::Status::kKilled);
    EXPECT_NE(report.kill_reason.find("cell_crash"), std::string::npos);
    EXPECT_FALSE(experiment.has_run());  // killed runs yield nothing
  }
  Experiment experiment(dist_config(), make_dist_world());
  std::string error;
  auto journal =
      ExperimentJournal::open(dir, experiment.config_fingerprint(), &error);
  ASSERT_TRUE(journal.has_value()) << error;
  const RunReport report = experiment.run_journaled(&*journal);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(sha256_of_results(experiment.all_results()), golden_sha());
  fs::remove_all(dir);
}

TEST(Dist, SerialKilledRunResumesDistributed) {
  // The other direction: a serial run killed mid-grid resumes under the
  // distributed master. The GRANTs for the adopted chains carry the
  // journaled IDS snapshots, so the workers continue the trajectories
  // byte-identically.
  const std::string dir = scratch_dir("dist_resume_of_serial_kill");
  {
    const auto injector = make_injector("cell_crash:cell=2");
    auto config = dist_config();
    config.faults = &injector;
    Experiment experiment(config, make_dist_world());
    std::string error;
    auto journal =
        ExperimentJournal::open(dir, experiment.config_fingerprint(), &error);
    ASSERT_TRUE(journal.has_value()) << error;
    EXPECT_EQ(experiment.run_journaled(&*journal).status,
              RunReport::Status::kKilled);
  }
  Experiment experiment(dist_config(), make_dist_world());
  std::string error;
  auto journal =
      ExperimentJournal::open(dir, experiment.config_fingerprint(), &error);
  ASSERT_TRUE(journal.has_value()) << error;
  DistOptions options;
  options.workers = 2;
  const RunReport report =
      run_distributed(experiment, &*journal, SupervisorPolicy{}, options);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.cells_adopted, 2u);  // the serial prefix: slots 0, 1
  EXPECT_EQ(report.cells_run, 2u);
  EXPECT_EQ(sha256_of_results(experiment.all_results()), golden_sha());
  fs::remove_all(dir);
}

TEST(Dist, FullyJournaledRunAdoptsWithoutSpawning) {
  const std::string dir = scratch_dir("dist_full_adoption");
  {
    Experiment experiment(dist_config(), make_dist_world());
    std::string error;
    auto journal =
        ExperimentJournal::open(dir, experiment.config_fingerprint(), &error);
    ASSERT_TRUE(journal.has_value()) << error;
    EXPECT_TRUE(experiment.run_journaled(&*journal).complete());
  }
  Experiment experiment(dist_config(), make_dist_world());
  std::string error;
  auto journal =
      ExperimentJournal::open(dir, experiment.config_fingerprint(), &error);
  ASSERT_TRUE(journal.has_value()) << error;
  obsv::MetricBlock dist;
  DistOptions options;
  options.workers = 4;
  const RunReport report = run_distributed(experiment, &*journal,
                                           SupervisorPolicy{}, options, &dist);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.cells_adopted, kCells);
  EXPECT_EQ(report.cells_run, 0u);
  // Nothing to grant, nothing forked.
  EXPECT_EQ(count(dist, obsv::Counter::kDistWorkersSpawned), 0u);
  EXPECT_EQ(sha256_of_results(experiment.all_results()), golden_sha());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace originscan::core
