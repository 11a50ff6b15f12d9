// The three workloads: grid, grid_dist, sweep. Each runs its operation
// repeatedly for the requested time, reports host-normalised medians,
// and checks its outputs (README.md "Correctness").
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>

#include "bench.h"
#include "core/access_matrix.h"
#include "core/analysis/coverage.h"
#include "core/classify.h"
#include "core/dist.h"
#include "core/experiment.h"
#include "core/journal.h"
#include "core/store.h"
#include "netbase/sha256.h"
#include "report/export.h"
#include "scanner/orchestrator.h"
#include "sim/scenario.h"

namespace perfbench {

using namespace originscan;
namespace fs = std::filesystem;

std::string sha256_of_files(const std::vector<std::string>& paths) {
  net::Sha256 hasher;
  std::vector<char> buffer(1 << 16);
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return {};
    while (in) {
      in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      const auto got = static_cast<std::size_t>(in.gcount());
      hasher.update(std::span(
          reinterpret_cast<const std::uint8_t*>(buffer.data()), got));
    }
  }
  return net::Sha256::hex(hasher.finish());
}

namespace {

// The end-to-end metrics of a pass workload: medians over the passes of
// the host-normalised pass and set-up times (README.md "Host-normalised
// times"); setup[i] was timed next to pass i. The raw figures go to a
// "#" line.
void add_pass_metrics(Outcome& out, const std::vector<double>& setup,
                      const std::vector<double>& wall, double rss,
                      const std::vector<double>& probes, double elasticity) {
  if (wall.empty() || probes.size() != wall.size()) return;
  out.note("closed loop: passes back to back, one at a time, for the "
           "whole run");
  char line[240];
  std::snprintf(line, sizeof line,
                "raw: setup %.3f ms, wall %.4f s over %zu passes; host "
                "probe %.4f s",
                median(setup) * 1e3, median(wall), wall.size(),
                median(probes));
  out.note(line);
  out.primary = median(host_normalised(wall, probes, elasticity));
  out.add("setup_s", median(host_normalised(setup, probes, elasticity)), "s");
  out.add("wall_s", out.primary, "s");
  out.add("peak_rss_mib", rss, "MiB");
}

// Builds `make()` kSetupBlock times and returns the last object; the
// mean build time (destruction of the previous one excluded) is appended
// to `setup`.
template <typename T, typename Make>
std::unique_ptr<T> timed_builds(std::vector<double>& setup, Tracer* tracer,
                                std::string_view span, Make&& make) {
  std::unique_ptr<T> built;
  double total = 0;
  for (int i = 0; i < kSetupBlock; ++i) {
    built.reset();
    Scope scope(tracer, span);
    const auto t0 = Clock::now();
    built = make();
    total += seconds_since(t0);
  }
  setup.push_back(total / kSetupBlock);
  return built;
}

}  // namespace

// ---- grid / grid_dist ---------------------------------------------------

core::ExperimentConfig grid_config(std::uint64_t seed) {
  core::ExperimentConfig config;
  config.scenario.universe_size = 1u << kGridScale;
  config.scenario.seed = seed;
  config.jobs = kGridJobs;
  return config;
}

core::DistOptions grid_dist_options(const Options& options,
                                    std::uint64_t seed) {
  core::DistOptions dist;
  dist.workers = kGridWorkers;
  dist.worker_argv = {fs::absolute(options.originscan).string(),
                      "worker",
                      "--scale",
                      std::to_string(kGridScale),
                      "--seed",
                      std::to_string(seed),
                      "--jobs",
                      std::to_string(kGridJobs)};
  return dist;
}

namespace {

std::vector<std::string> grid_artifacts(const std::string& dir) {
  std::vector<std::string> paths = {dir + "/results.bin"};
  for (proto::Protocol protocol : proto::kAllProtocols) {
    const std::string stem = dir + "/" + std::string(proto::name_of(protocol));
    paths.push_back(stem + "_coverage.csv");
    paths.push_back(stem + "_classification.csv");
  }
  return paths;
}

struct GridPass {
  bool ok = false;
  std::string error;
  double wall_s = 0;   // scans + save + analysis + CSV export
  double scan_s = 0;   // the experiment (or distributed) run alone
  std::string digest;
};

// One pass of the CLI's `experiment --save` pipeline over a freshly
// constructed experiment: the scans (in-process lanes, or the worker
// processes of `dist` journaling into a fresh directory), store save,
// then the per-protocol analysis and CSV export. Everything up to the
// CSVs is timed; the digest is computed afterwards.
GridPass grid_pass(core::Experiment& experiment,
                   const core::DistOptions* dist, const std::string& dir,
                   Tracer* tracer) {
  GridPass pass;
  fs::remove_all(dir);
  fs::create_directories(dir);
  Scope pass_span(tracer, dist != nullptr ? "grid_dist.pass" : "grid.pass");
  const auto t0 = Clock::now();
  try {
    if (dist != nullptr) {
      Scope span(tracer, "core.dist.run_distributed");
      std::string error;
      auto journal = core::ExperimentJournal::open(
          dir + "/journal", experiment.config_fingerprint(), &error);
      if (!journal) {
        pass.error = "journal open failed: " + error;
        return pass;
      }
      const core::RunReport report =
          core::run_distributed(experiment, &*journal,
                                core::SupervisorPolicy{}, *dist, nullptr,
                                {});
      if (!report.complete()) {
        pass.error = "distributed grid incomplete";
        return pass;
      }
    } else {
      Scope span(tracer, "core.experiment.run");
      experiment.run();
    }
    pass.scan_s = seconds_since(t0);
    {
      Scope span(tracer, "core.store.save");
      if (!core::save_results(dir + "/results.bin",
                              experiment.all_results())) {
        pass.error = "save_results failed";
        return pass;
      }
    }
    for (proto::Protocol protocol : proto::kAllProtocols) {
      Scope analysis(tracer, "core.analysis");
      const auto matrix = core::AccessMatrix::build(experiment, protocol);
      const auto coverage = core::compute_coverage(matrix);
      const core::Classification classification(matrix);
      const std::string stem =
          dir + "/" + std::string(proto::name_of(protocol));
      if (!report::write_file(stem + "_coverage.csv",
                              report::coverage_csv(coverage)) ||
          !report::write_file(
              stem + "_classification.csv",
              report::classification_csv(classification,
                                         experiment.world().topology))) {
        pass.error = "CSV export failed";
        return pass;
      }
    }
  } catch (const std::exception& error) {
    pass.error = error.what();
    return pass;
  }
  pass.wall_s = seconds_since(t0);
  pass.digest = sha256_of_files(grid_artifacts(dir));
  pass.ok = !pass.digest.empty();
  if (!pass.ok) pass.error = "artifacts unreadable";
  return pass;
}

// Runs one untimed pass at `seed` and returns its digest ("" on error).
std::string grid_digest_at(std::uint64_t seed, const core::DistOptions* dist,
                           const std::string& dir) {
  core::Experiment experiment(grid_config(seed));
  const GridPass pass = grid_pass(experiment, dist, dir, nullptr);
  fs::remove_all(dir);
  return pass.ok ? pass.digest : std::string();
}

}  // namespace

Outcome run_grid(const Options& options, bool distributed, double seconds,
                 bool verify, Tracer* tracer) {
  Outcome out;
  // The passes cycle through kGridWorlds worlds, whole cycles only, so
  // every world weighs the same in the medians.
  std::vector<core::ExperimentConfig> configs;
  std::vector<core::DistOptions> dists;
  for (int j = 0; j < kGridWorlds; ++j) {
    const std::uint64_t world_seed = grid_world_seed(options.seed, j);
    configs.push_back(grid_config(world_seed));
    dists.push_back(grid_dist_options(options, world_seed));
  }
  const std::string dir = options.out_dir + "/" +
                          (distributed ? "grid_dist" : "grid") + "-" +
                          std::to_string(::getpid());

  // Set-up: building the paper world is what every `originscan
  // experiment` pays before its first scan. One build warms the process
  // up untimed; after that every pass's experiment comes from a timed
  // block of builds.
  std::vector<double> setup;
  { const core::Experiment warm_up(configs[0]); }

  std::vector<double> wall;
  std::vector<double> probes;
  double rss = 0;
  std::vector<std::string> digests(kGridWorlds);
  const auto start = Clock::now();
  while (wall.size() < kGridWorlds ||
         wall.size() % kGridWorlds != 0 ||
         (seconds_since(start) < seconds && wall.size() < 64)) {
    const std::size_t world = wall.size() % kGridWorlds;
    const auto experiment = timed_builds<core::Experiment>(
        setup, tracer, "sim.build_world",
        [&] { return std::make_unique<core::Experiment>(configs[world]); });
    const GridPass pass =
        grid_pass(*experiment, distributed ? &dists[world] : nullptr, dir,
                  tracer);
    out.attempted += experiment->cell_count();
    if (!pass.ok) {
      out.failed += experiment->cell_count();
      out.fail("grid pass: " + pass.error);
      break;
    }
    if (digests[world].empty()) digests[world] = pass.digest;
    if (pass.digest != digests[world]) {
      out.failed += experiment->cell_count();
      out.fail("grid digest changed between passes over one world");
    }
    wall.push_back(pass.wall_s);
    // Peak RSS as one `originscan experiment` would see it: after the
    // first pass of a fresh process (later passes only add allocator
    // fragmentation).
    if (wall.size() == 1) {
      rss = std::max(self_peak_rss_mib(), children_peak_rss_mib());
    }
    // After the RSS reading, so the probe's tables are not counted.
    probes.push_back(host_probe_s());
    char line[112];
    std::snprintf(line, sizeof line,
                  "pass %zu (world %zu): scans %.3f s, total %.3f s, "
                  "probe %.4f s",
                  wall.size(), world, pass.scan_s, pass.wall_s,
                  probes.back());
    out.note(line);
  }
  fs::remove_all(dir);
  for (int j = 0; j < kGridWorlds; ++j) {
    out.note("grid digest " + digests[j] + " (2^" +
             std::to_string(kGridScale) + ", " +
             (distributed ? std::to_string(kGridWorkers) + " workers"
                          : std::to_string(kGridJobs) + " lanes") +
             ", scenario seed " +
             std::to_string(grid_world_seed(options.seed, j)) + ")");
  }

  if (verify && out.correct) {
    // The paper seed's digest is recorded; any other world must agree
    // between the in-process and the distributed grid.
    const core::DistOptions paper_dist =
        grid_dist_options(options, kPaperSeed);
    const std::string paper =
        grid_world_seed(options.seed, 0) == kPaperSeed
            ? digests[0]
            : grid_digest_at(kPaperSeed, distributed ? &paper_dist : nullptr,
                             dir);
    if (paper != kGridPaperDigest) {
      out.fail("paper-seed grid digest " + paper + " != recorded " +
               kGridPaperDigest);
    }
    if (distributed) {
      const std::string in_process =
          grid_digest_at(grid_world_seed(options.seed, 0), nullptr, dir);
      if (in_process != digests[0]) {
        out.fail("grid_dist digest differs from the in-process grid");
      } else {
        out.note("grid_dist digest equals the in-process grid digest");
      }
    }
  }

  add_pass_metrics(out, setup, wall, rss, probes, kGridProbeElasticity);
  return out;
}

// ---- sweep ----------------------------------------------------------------

sim::World sweep_world(int bits, std::uint64_t seed) {
  sim::ScenarioConfig config = sim::ScenarioConfig::full_internet(bits);
  config.seed = seed;
  return sim::build_world(config, sim::paper_origins(config.universe_size));
}

sim::TrialContext sweep_context(const sim::World& world) {
  sim::TrialContext context;
  context.experiment_seed = world.seed;
  context.simultaneous_origins = static_cast<int>(world.origins.size());
  return context;
}

scan::SweepResult sweep_once(const sim::World& world, int jobs,
                             double* seconds, Tracer* tracer) {
  sim::PersistentState persistent;
  sim::Internet internet(&world, sweep_context(world), &persistent);
  scan::SweepOptions sweep;
  sweep.jobs = jobs;
  Scope span(tracer, jobs == 1 ? "scanner.run_l4_sweep.serial"
                               : "scanner.run_l4_sweep");
  const auto t0 = Clock::now();
  const scan::SweepResult result = scan::run_l4_sweep(
      internet, world.origin_id("US1"), proto::Protocol::kHttp, sweep);
  if (seconds != nullptr) *seconds = seconds_since(t0);
  return result;
}

Outcome run_sweep(const Options& options, double seconds, bool verify,
                  Tracer* tracer) {
  Outcome out;
  const std::uint64_t seed = scenario_seed(options.seed);
  // The world every pass sweeps; its build also warms the process up.
  // Set-up is timed in a block of fresh builds after each pass.
  const sim::World world = sweep_world(kSweepBits, seed);
  std::vector<double> setup;

  std::vector<double> wall;
  std::vector<double> probes;
  double rss = 0;
  std::optional<scan::SweepResult> first;
  const auto start = Clock::now();
  while (wall.size() < 2 ||
         (seconds_since(start) < seconds && wall.size() < 64)) {
    double elapsed = 0;
    const scan::SweepResult result =
        sweep_once(world, kSweepJobs, &elapsed, tracer);
    ++out.attempted;
    if (result.aborted || result.l4_stats.targets_probed == 0) {
      ++out.failed;
      out.fail("sweep aborted or probed nothing");
      break;
    }
    if (!first) {
      first = result;
      rss = self_peak_rss_mib();  // as one `originscan sweep` sees it
    }
    if (!(result == *first)) {
      ++out.failed;
      out.fail("sweep result changed between passes");
    }
    wall.push_back(elapsed);
    // After the pass, so the first pass's peak RSS holds one world only.
    timed_builds<sim::World>(setup, tracer, "sim.build_world.procedural", [&] {
      return std::make_unique<sim::World>(sweep_world(kSweepBits, seed));
    });
    probes.push_back(host_probe_s());
    char line[80];
    std::snprintf(line, sizeof line, "pass %zu: sweep %.3f s, probe %.4f s",
                  wall.size(), elapsed, probes.back());
    out.note(line);
  }
  if (first) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "sweep digest %016llx, %llu targets, %llu responsive over "
                  "%zu passes (2^%d, %d jobs, seed %llu)",
                  static_cast<unsigned long long>(first->digest),
                  static_cast<unsigned long long>(
                      first->l4_stats.targets_probed),
                  static_cast<unsigned long long>(first->responsive),
                  wall.size(), kSweepBits, kSweepJobs,
                  static_cast<unsigned long long>(seed));
    out.note(line);
  }
  if (verify && out.correct) {
    const sim::World check = sweep_world(kSweepCheckBits, kPaperSeed);
    const scan::SweepResult result =
        sweep_once(check, kSweepJobs, nullptr, nullptr);
    if (result.digest != kSweepPaperDigest) {
      char line[96];
      std::snprintf(line, sizeof line,
                    "2^24 paper-seed sweep digest %016llx != recorded",
                    static_cast<unsigned long long>(result.digest));
      out.fail(line);
    }
  }

  add_pass_metrics(out, setup, wall, rss, probes, kSweepProbeElasticity);
  return out;
}

}  // namespace perfbench
