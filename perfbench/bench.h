// The benchmark's workloads and the traced run's layer ledger. See
// perfbench/README.md for why each workload exists and what every
// metric means.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/dist.h"
#include "core/experiment.h"
#include "scanner/orchestrator.h"
#include "sim/internet.h"
#include "trace.h"
#include "util.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  // The ledger's daemon: offered rate (open loop, Poisson arrivals).
  // Capacity on the 4-CPU reference host ranges 260-900 rps with its
  // load; at 50 rps queueing stays rare even when the host is slow.
  double rate_rps = 50;
  // Where runs leave their files (results, CSVs, journals, sockets,
  // Chrome traces). Relative to the checkout root.
  std::string out_dir = ".bench_out";
  // The `originscan` CLI binary: grid_dist's workers and the ledger's
  // daemon.
  std::string originscan = ".bench_build/originscan/tools/originscan";
};

// What one workload (or the ledger) measured and checked.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // printed as "# ..." lines
  // The figure the tracing overhead compares (wall_s).
  double primary = 0;

  void fail(const std::string& why) {
    correct = false;
    notes.push_back("FAIL: " + why);
  }
  void note(const std::string& line) { notes.push_back(line); }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// The paper's scenario seed. Workload seed 0 runs the paper world;
// seed n runs the paper scenario with seed 0x05CA9 + n.
inline constexpr std::uint64_t kPaperSeed = 0x05CA9;
inline std::uint64_t scenario_seed(std::uint64_t workload_seed) {
  return kPaperSeed + workload_seed;
}
// A grid run cycles through this many worlds: the work in one 2^16 world
// varies with its seed by up to a fifth, and a run over several worlds
// keeps that variety without letting one world decide the run. World j
// of workload seed n has scenario seed 0x05CA9 + n * kGridWorlds + j, so
// seed 0 starts with the paper world.
inline constexpr int kGridWorlds = 8;
inline std::uint64_t grid_world_seed(std::uint64_t workload_seed, int j) {
  return kPaperSeed + workload_seed * kGridWorlds +
         static_cast<std::uint64_t>(j);
}

// The batch workloads time their world build before every pass, as the
// mean of this many builds, so set-up is sampled across the whole run
// (the host's speed drifts over seconds) rather than in one burst.
inline constexpr int kSetupBlock = 4;

// Workload shapes (README.md "Workloads").
inline constexpr int kGridScale = 16;     // 2^16 addresses
inline constexpr int kGridJobs = 4;       // grid: in-process lanes
inline constexpr int kGridWorkers = 4;    // grid_dist: worker processes
inline constexpr int kSweepBits = 25;     // sweep universe 2^25
inline constexpr int kSweepJobs = 4;

// How a workload's pass time moves with the host-speed probe's on the
// reference host: as the probe's time to this power (README.md
// "Host-normalised times"). Fitted per workload, since the grids'
// allocation, file and cache traffic slows more than the probe's pure
// integer work does, and the sweep's hashing about as much.
inline constexpr double kGridProbeElasticity = 1.5;
inline constexpr double kSweepProbeElasticity = 1.0;
inline constexpr int kDaemonScale = 12;
inline constexpr int kDaemonExecutors = 2;
inline constexpr int kDaemonConnections = 4;
inline constexpr int kDaemonTenants = 64;

// Digests recorded for workload seed 0 (the paper seed). The grid digest
// is SHA-256 over results.bin and the six CSVs, in the order
// grid_artifacts() lists them; the sweep digest is SweepResult::digest of
// the 2^24 US1/http sweep.
inline constexpr const char* kGridPaperDigest =
    "301a49cc1ab85e4fd9619c10132d1106c72f9fba9080d4d3c4d6d9538c817574";
inline constexpr int kSweepCheckBits = 24;
inline constexpr std::uint64_t kSweepPaperDigest = 0xc8b6b2c2e4c4be3cULL;

Outcome run_grid(const Options& options, bool distributed, double seconds,
                 bool verify, Tracer* tracer);
Outcome run_sweep(const Options& options, double seconds, bool verify,
                  Tracer* tracer);

// The per-layer ledger every traced run reports (README.md "Per-layer
// metrics"). Appends per-layer metrics to `out`.
void run_ledger(const Options& options, Tracer& tracer, Outcome& out);

// ---- Shared pieces (workloads.cc) ---------------------------------------

// SHA-256 (hex) over the concatenated contents of `paths`; empty string
// if any file is unreadable.
std::string sha256_of_files(const std::vector<std::string>& paths);

// The grid workload's experiment configuration at `scenario_seed`.
originscan::core::ExperimentConfig grid_config(std::uint64_t scenario_seed);

// grid_dist's worker pool, as `originscan experiment --workers 4` sets it
// up: the exec transport, each worker an `originscan worker` process that
// rebuilds the world from the forwarded flags.
originscan::core::DistOptions grid_dist_options(const Options& options,
                                                std::uint64_t scenario_seed);

// The sweep workload's procedural world and trial context.
originscan::sim::World sweep_world(int bits, std::uint64_t scenario_seed);
originscan::sim::TrialContext sweep_context(const originscan::sim::World& world);

// One US1/http run_l4_sweep over a fresh Internet on `world`.
originscan::scan::SweepResult sweep_once(const originscan::sim::World& world,
                                         int jobs, double* seconds,
                                         Tracer* tracer);

}  // namespace perfbench
