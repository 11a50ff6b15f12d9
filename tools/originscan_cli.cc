// originscan — command-line front end for the library.
//
// Subcommands (full reference with flags and exit codes: docs/CLI.md):
//   experiment  run the paper experiment and export coverage +
//               classification CSVs
//   scan        run one origin x protocol scan and export raw records
//   sweep       full-universe L4 sweep over a procedural world (bounded
//               memory at any size; prints a determinism digest)
//   serve       run the originscand daemon over a unix socket
//   client      submit one scan to a running daemon (or --shutdown it)
//   loadgen     replay concurrent tenants against an in-process daemon
//   topology    print the simulated world's AS/country inventory
//   origins     print the vantage-point roster
//
// Exit codes follow core/exit_codes.h: 0 ok, 1 failure, 2 usage,
// 3 killed-but-resumable.
//
// Common flags:
//   --scale N     universe exponent (default 16; addresses = 2^N)
//   --seed N      scenario seed (default 23721)
//   --out DIR     output directory for CSVs (default ".")
//
// scan flags:
//   --origin CODE (default US1)   --protocol http|https|ssh (default http)
//   --trial N     (default 1)     --retries N (0..8, default 0)
#include <charconv>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/access_matrix.h"
#include "core/dist.h"
#include "core/exit_codes.h"
#include "service/client.h"
#include "service/loadgen.h"
#include "service/service.h"
#include "scanner/orchestrator.h"
#include "sim/scenario.h"
#include "core/analysis/coverage.h"
#include "core/classify.h"
#include "core/chaos.h"
#include "core/experiment.h"
#include "core/journal.h"
#include "core/store.h"
#include "faultinject/faultinject.h"
#include "obsv/metrics.h"
#include "obsv/trace.h"
#include "report/export.h"
#include "report/table.h"

using namespace originscan;

namespace {

struct Args {
  std::string command;
  int scale = 16;
  std::uint64_t seed = 0x05CA9;
  std::string out = ".";
  std::string origin = "US1";
  std::string protocol = "http";
  int trial = 1;
  int retries = 0;
  int jobs = 1;      // worker threads; output is identical for any value
  // sweep: universe exponent for the procedural full-Internet world.
  // Deliberately NOT subject to the --scale [12, 22] clamp — procedural
  // worlds have no per-address tables, so 2^32 is affordable.
  int universe_bits = 28;
  int probes = 2;  // sweep: SYN probes per target
  std::string save;  // experiment: also write raw results here
  std::string in;    // analyze: load raw results from here
  std::string resume_dir;  // experiment/journal: crash-safe journal dir
  std::string faults;      // experiment: fault plan spec
  std::string metrics_out;  // experiment/scan: metrics snapshot JSON
  std::string trace_out;    // experiment/scan: Chrome trace_event JSON
  int workers = 0;  // experiment: worker processes (0 = in-process run)
  int rounds = 25;  // chaos: randomized episodes to run
  bool json = false;  // journal inspect: machine-readable output
  // worker subcommand only (spawned by the master, not by hand):
  int fd = -1;           // inherited socketpair transport fd
  int worker_index = 0;  // index the master assigned this worker
  // serve/client/loadgen (the daemon front ends):
  std::string socket_path;       // serve/client: AF_UNIX socket path
  int executor_threads = 2;      // serve/loadgen: concurrent sessions
  int max_inflight = 4096;       // serve/loadgen: global admission cap
  int max_inflight_per_tenant = 1024;
  int tenant = 0;                // client: fair-share tenant key
  int tenants = 64;              // loadgen: simulated tenants
  int requests = 2;              // loadgen: requests per tenant
  int connections = 8;           // loadgen: multiplexed connections
  std::uint64_t mix_seed = 1;    // loadgen: request-mix seed
  std::string json_out;          // loadgen: write the report JSON here
  bool no_verify = false;        // loadgen: skip byte-identity replay
  bool shutdown = false;         // client: send SHUTDOWN instead of SUBMIT
};

void usage() {
  std::fprintf(
      stderr,
      "usage: originscan "
      "<experiment|analyze|scan|sweep|chaos|topology|origins> [options]\n"
      "       originscan serve --socket PATH [options]\n"
      "       originscan client --socket PATH [--shutdown] [scan flags]\n"
      "       originscan loadgen [--tenants N] [--requests N] [options]\n"
      "       originscan journal inspect --resume-dir DIR [--json]\n"
      "       originscan journal repair --resume-dir DIR\n"
      "  --scale N      universe exponent, 12..22 (default 16)\n"
      "  --universe-bits N  sweep: procedural universe exponent, 20..32\n"
      "                 (default 28; 32 sweeps all 4.3B addresses\n"
      "                 with bounded memory — ~15 min serial)\n"
      "  --probes N     sweep: SYN probes per target (default 2)\n"
      "  --seed N       scenario seed (default 23721)\n"
      "  --out DIR      CSV output directory (default .)\n"
      "  --origin CODE  scan/sweep: AU BR DE JP US1 US64 CEN (default US1)\n"
      "  --protocol P   scan/sweep: http|https|ssh (default http)\n"
      "  --trial N      scan/sweep: trial number 1..3 (default 1)\n"
      "  --retries N    scan: L7 retry budget, 0..8 (default 0)\n"
      "  --jobs N       worker threads for experiment/scan/sweep, 1..64\n"
      "                 (default 1; results are bit-identical for any value)\n"
      "  --workers N    experiment: distribute the grid over N worker\n"
      "                 processes (default 0 = run in-process). Output is\n"
      "                 byte-identical for any --workers x --jobs combo;\n"
      "                 killed workers are respawned and their cells\n"
      "                 retried (see DESIGN.md s11)\n"
      "  --save FILE    experiment: also save raw results (binary)\n"
      "  --in FILE      analyze: load raw results saved by experiment\n"
      "  --resume-dir D experiment: journal each cell into D and resume a\n"
      "                 killed run from it (byte-identical to a run that\n"
      "                 was never interrupted, at any --jobs)\n"
      "  --faults SPEC  experiment: fault plan (see faultinject/); the\n"
      "                 worker_kill/worker_stall/frame_garble clauses need\n"
      "                 --workers, enospc/segment_corrupt need --resume-dir\n"
      "  --metrics-out F  experiment/scan/sweep: write the deterministic metrics\n"
      "                 snapshot (JSON; byte-identical for any --jobs and\n"
      "                 across kill/resume — see docs/METRICS.md)\n"
      "  --trace-out F  experiment/scan: write a Chrome trace_event JSON\n"
      "                 timeline of the virtual-clock scan phases (open in\n"
      "                 chrome://tracing or ui.perfetto.dev)\n"
      "  --rounds N     chaos: randomized fault episodes to run (default\n"
      "                 25); each is a pure function of (--seed, round)\n"
      "  --socket PATH  serve/client: AF_UNIX socket the daemon listens on\n"
      "  --executor-threads N  serve/loadgen: concurrent sessions\n"
      "                 (default 2; records are identical for any value)\n"
      "  --max-inflight N  serve/loadgen: global admission cap (4096)\n"
      "  --max-inflight-per-tenant N  per-tenant admission cap (1024)\n"
      "  --tenant N     client: fair-share tenant key (default 0)\n"
      "  --shutdown     client: drain-and-stop the daemon, submit nothing\n"
      "  --tenants N    loadgen: simulated tenants (default 64)\n"
      "  --requests N   loadgen: requests per tenant (default 2)\n"
      "  --connections N  loadgen: multiplexed connections (default 8)\n"
      "  --mix-seed N   loadgen: request-mix seed (default 1)\n"
      "  --json-out F   loadgen: write the loadgen_* report JSON to F\n"
      "  --no-verify    loadgen: skip the byte-identity verification\n"
      "\n"
      "  serve freezes one universe at startup and serves concurrent scan\n"
      "  requests until a client sends SHUTDOWN (docs/OPERATIONS.md).\n"
      "  loadgen replays tenants x requests against an in-process daemon\n"
      "  and fails (exit 1) unless every answer arrived and every RESULT\n"
      "  byte-matched a direct single-run scan (docs/PROTOCOL.md).\n"
      "  analyze re-runs the coverage analysis on saved results; use the\n"
      "  same --scale/--seed the experiment ran with.\n"
      "  chaos soak-tests the recovery machinery: every episode must end\n"
      "  byte-identical to a serial reference or as an honestly labeled\n"
      "  partial grid (exit 0 = no invariant violations, 1 = violations;\n"
      "  --resume-dir overrides the scratch root, --metrics-out dumps the\n"
      "  chaos.*/journal.*/fault.* counters).\n"
      "  journal inspect lists a journal's cells and verifies their\n"
      "  segment checksums; --json emits a machine-readable report.\n"
      "  Exit codes: 0 = every entry verifies, 1 = journal unreadable or\n"
      "  corrupt entries found, 2 = usage error.\n"
      "  journal repair rewrites a damaged run directory in place:\n"
      "  malformed/torn manifest lines and entries failing verification\n"
      "  are dropped (with their chain followers) so the directory is\n"
      "  resumable again. Exit 0 = repaired, 1 = unrepairable, 2 = usage.\n");
}

// Numeric flags take whole decimal integers only: "0x05CA9", "junk" or
// "20x" is refused naming the flag, never read as some other number.
template <typename T>
bool parse_number(const std::string& flag, const std::string& value,
                  T& out) {
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec == std::errc{} && ptr == end) return true;
  std::fprintf(stderr, "%s needs a decimal integer, got '%s'\n",
               flag.c_str(), value.c_str());
  return false;
}

bool parse_args(int argc, char** argv, Args& args) {
  static const std::map<std::string, int Args::*> kIntFlags = {
      {"--scale", &Args::scale},
      {"--trial", &Args::trial},
      {"--retries", &Args::retries},
      {"--jobs", &Args::jobs},
      {"--universe-bits", &Args::universe_bits},
      {"--probes", &Args::probes},
      {"--workers", &Args::workers},
      {"--rounds", &Args::rounds},
      {"--fd", &Args::fd},
      {"--worker-index", &Args::worker_index},
      {"--executor-threads", &Args::executor_threads},
      {"--max-inflight", &Args::max_inflight},
      {"--max-inflight-per-tenant", &Args::max_inflight_per_tenant},
      {"--tenant", &Args::tenant},
      {"--tenants", &Args::tenants},
      {"--requests", &Args::requests},
      {"--connections", &Args::connections},
  };
  if (argc < 2) return false;
  args.command = argv[1];
  int first_flag = 2;
  if (args.command == "journal") {
    if (argc >= 3 && std::strcmp(argv[2], "inspect") == 0) {
      args.command = "journal-inspect";
    } else if (argc >= 3 && std::strcmp(argv[2], "repair") == 0) {
      args.command = "journal-repair";
    } else {
      std::fprintf(stderr,
                   "journal supports two subcommands: inspect, repair\n");
      return false;
    }
    first_flag = 3;
  }
  for (int i = first_flag; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--json") {  // boolean: consumes no value
      args.json = true;
      --i;
      continue;
    }
    if (flag == "--no-verify") {
      args.no_verify = true;
      --i;
      continue;
    }
    if (flag == "--shutdown") {
      args.shutdown = true;
      --i;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[i + 1];
    if (const auto it = kIntFlags.find(flag); it != kIntFlags.end()) {
      if (!parse_number(flag, value, args.*(it->second))) return false;
    } else if (flag == "--seed") {
      if (!parse_number(flag, value, args.seed)) return false;
    } else if (flag == "--mix-seed") {
      if (!parse_number(flag, value, args.mix_seed)) return false;
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--origin") {
      args.origin = value;
    } else if (flag == "--protocol") {
      args.protocol = value;
    } else if (flag == "--save") {
      args.save = value;
    } else if (flag == "--in") {
      args.in = value;
    } else if (flag == "--resume-dir") {
      args.resume_dir = value;
    } else if (flag == "--faults") {
      args.faults = value;
    } else if (flag == "--metrics-out") {
      args.metrics_out = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--socket") {
      args.socket_path = value;
    } else if (flag == "--json-out") {
      args.json_out = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  if (args.scale < 12 || args.scale > 22) {
    std::fprintf(stderr, "--scale must be in [12, 22]\n");
    return false;
  }
  if (args.universe_bits < 20 || args.universe_bits > 32) {
    std::fprintf(stderr, "--universe-bits must be in [20, 32]\n");
    return false;
  }
  if (args.probes < 1 || args.probes > 8) {
    std::fprintf(stderr, "--probes must be in [1, 8]\n");
    return false;
  }
  if (args.trial < 1 || args.trial > 3) {
    std::fprintf(stderr, "--trial must be in [1, 3]\n");
    return false;
  }
  if (args.retries < 0 || args.retries > 8) {
    std::fprintf(stderr, "--retries must be an integer in [0, 8]\n");
    return false;
  }
  if (args.jobs < 1 || args.jobs > 64) {
    std::fprintf(stderr, "--jobs must be in [1, 64]\n");
    return false;
  }
  if (args.workers < 0 || args.workers > 64) {
    std::fprintf(stderr, "--workers must be in [0, 64]\n");
    return false;
  }
  if (args.rounds < 1 || args.rounds > 100000) {
    std::fprintf(stderr, "--rounds must be in [1, 100000]\n");
    return false;
  }
  if (args.executor_threads < 1 || args.executor_threads > 64) {
    std::fprintf(stderr, "--executor-threads must be in [1, 64]\n");
    return false;
  }
  if (args.max_inflight < 1 || args.max_inflight_per_tenant < 1) {
    std::fprintf(stderr, "admission caps must be >= 1\n");
    return false;
  }
  if (args.tenants < 1 || args.requests < 1 || args.connections < 1) {
    std::fprintf(stderr,
                 "--tenants/--requests/--connections must be >= 1\n");
    return false;
  }
  return true;
}

std::optional<proto::Protocol> protocol_from(const std::string& name) {
  if (name == "http") return proto::Protocol::kHttp;
  if (name == "https") return proto::Protocol::kHttps;
  if (name == "ssh") return proto::Protocol::kSsh;
  return std::nullopt;
}

core::ExperimentConfig base_config(const Args& args) {
  core::ExperimentConfig config;
  config.scenario.universe_size = 1u << args.scale;
  config.scenario.seed = args.seed;
  config.jobs = args.jobs;
  return config;
}

std::string cell_to_string(const core::CellKey& key) {
  return key.origin_code + " " + std::string(proto::name_of(key.protocol)) +
         " trial " + std::to_string(key.trial + 1);
}

// Writes the observability artifacts requested on the command line. The
// metrics snapshot is deterministic (byte-identical for any --jobs value
// and across kill/resume); the trace is a Chrome trace_event timeline of
// the virtual-clock schedule.
bool write_observability(const Args& args, const obsv::MetricBlock& metrics,
                         const obsv::TraceRecorder* trace) {
  if (!args.metrics_out.empty()) {
    if (!report::write_file(args.metrics_out, obsv::snapshot_json(metrics))) {
      std::fprintf(stderr, "failed to write %s\n", args.metrics_out.c_str());
      return false;
    }
    std::printf("wrote metrics snapshot to %s\n", args.metrics_out.c_str());
  }
  if (!args.trace_out.empty() && trace != nullptr) {
    if (!report::write_file(args.trace_out, trace->chrome_trace_json())) {
      std::fprintf(stderr, "failed to write %s\n", args.trace_out.c_str());
      return false;
    }
    std::printf("wrote trace to %s (open in chrome://tracing)\n",
                args.trace_out.c_str());
  }
  return true;
}

// The flag without which nothing in an experiment run consults `clause`,
// or nullptr when the run as configured does: the worker faults fire
// only in worker processes, the storage faults only in the journal.
const char* missing_consumer(const fault::FaultClause& clause,
                             const Args& args) {
  switch (clause.point) {
    case fault::Point::kWorkerKill:
    case fault::Point::kWorkerStall:
    case fault::Point::kFrameGarble:
      return args.workers == 0 ? "--workers" : nullptr;
    case fault::Point::kEnospc:
    case fault::Point::kSegmentCorrupt:
      return args.resume_dir.empty() ? "--resume-dir" : nullptr;
    default:
      return nullptr;
  }
}

int cmd_experiment(const Args& args) {
  auto config = base_config(args);
  std::optional<fault::FaultInjector> injector;
  if (!args.faults.empty()) {
    std::string error;
    const auto plan = fault::FaultPlan::parse(args.faults, &error);
    if (!plan.has_value()) {
      std::fprintf(stderr, "bad --faults spec: %s\n", error.c_str());
      return cli::kUsage;
    }
    // Refuse a clause the run would accept and then silently ignore.
    for (const fault::FaultClause& clause : plan->clauses()) {
      if (const char* needs = missing_consumer(clause, args)) {
        std::fprintf(stderr, "--faults clause %s needs %s\n",
                     clause.to_string().c_str(), needs);
        return cli::kUsage;
      }
    }
    injector.emplace(*plan, args.seed);
    config.faults = &*injector;
  }
  obsv::MetricsRegistry registry;
  obsv::TraceRecorder trace;
  if (!args.metrics_out.empty()) config.metrics = &registry;
  if (!args.trace_out.empty()) config.trace = &trace;
  core::Experiment experiment(config);
  std::printf("running %d trials x %zu protocols x %zu origins over %u "
              "addresses...\n",
              config.trials, config.protocols.size(),
              experiment.origin_count(), config.scenario.universe_size);

  const auto progress = [](std::string_view line) {
    std::printf("  %.*s\n", static_cast<int>(line.size()), line.data());
  };
  if (args.workers > 0 && !args.trace_out.empty()) {
    std::fprintf(stderr,
                 "--trace-out is not supported with --workers: trace spans "
                 "are produced inside the worker processes\n");
    return cli::kUsage;
  }
  std::optional<core::ExperimentJournal> journal;
  if (!args.resume_dir.empty()) {
    std::string error;
    journal = core::ExperimentJournal::open(
        args.resume_dir, experiment.config_fingerprint(), &error);
    if (!journal.has_value()) {
      std::fprintf(stderr, "cannot open journal %s: %s\n",
                   args.resume_dir.c_str(), error.c_str());
      return cli::kFailure;
    }
  }
  core::ExperimentJournal* journal_ptr =
      journal.has_value() ? &*journal : nullptr;

  core::RunReport report;
  obsv::MetricBlock dist_block;
  if (args.workers > 0) {
    core::DistOptions dist_options;
    dist_options.workers = args.workers;
    // Exec transport: workers (and respawned replacements) run through
    // this binary's own `worker` subcommand, reconstructing the exact
    // experiment config from forwarded flags. Falls back to the fork
    // transport if /proc/self/exe is unreadable.
    char exe[4096];
    const ssize_t exe_len = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (exe_len > 0) {
      exe[exe_len] = '\0';
      dist_options.worker_argv = {std::string(exe),
                                  "worker",
                                  "--scale",
                                  std::to_string(args.scale),
                                  "--seed",
                                  std::to_string(args.seed),
                                  "--jobs",
                                  std::to_string(args.jobs)};
      if (!args.faults.empty()) {
        dist_options.worker_argv.push_back("--faults");
        dist_options.worker_argv.push_back(args.faults);
      }
    }
    report = core::run_distributed(experiment, journal_ptr,
                                   core::SupervisorPolicy{}, dist_options,
                                   &dist_block, progress);
  } else {
    report = experiment.run_journaled(journal_ptr, core::SupervisorPolicy{},
                                      progress);
  }
  std::printf("cells: %zu total, %zu adopted from journal, %zu run, "
              "%zu lost (%llu retries)\n",
              report.cells_total, report.cells_adopted, report.cells_run,
              report.cells_lost,
              static_cast<unsigned long long>(report.retries));
  if (args.workers > 0) {
    std::printf(
        "dist: %llu workers spawned (%llu restarted, %llu failed), "
        "%llu segments merged\n",
        static_cast<unsigned long long>(
            dist_block.counter(obsv::Counter::kDistWorkersSpawned)),
        static_cast<unsigned long long>(
            dist_block.counter(obsv::Counter::kDistWorkersRestarted)),
        static_cast<unsigned long long>(
            dist_block.counter(obsv::Counter::kDistWorkersFailed)),
        static_cast<unsigned long long>(
            dist_block.counter(obsv::Counter::kDistSegmentsReceived)));
  }
  if (report.status == core::RunReport::Status::kKilled) {
    // No metrics/trace artifacts for a killed run: the per-cell deltas
    // live in the journal, and the resumed run's snapshot will equal an
    // uninterrupted run's. Without a journal nothing is resumable, so
    // the run simply failed.
    if (journal_ptr == nullptr) {
      std::fprintf(stderr,
                   "run killed (%s); nothing was journaled — run with "
                   "--resume-dir to make a crash recoverable\n",
                   report.kill_reason.c_str());
      return cli::kFailure;
    }
    std::fprintf(stderr,
                 "run killed (%s); completed cells are journaled in %s — "
                 "rerun with the same --resume-dir to finish\n",
                 report.kill_reason.c_str(), args.resume_dir.c_str());
    return cli::kKilled;
  }
  for (const auto& key : report.lost) {
    std::printf("  lost cell: %s\n", cell_to_string(key).c_str());
  }
  if (report.status == core::RunReport::Status::kPartial) {
    std::printf("partial grid: analysis excludes the lost cells and CSV "
                "headers label them\n");
  }
  if (!args.save.empty()) {
    if (!core::save_results(args.save, experiment.all_results())) {
      std::fprintf(stderr, "failed to save results to %s\n",
                   args.save.c_str());
      return cli::kFailure;
    }
    std::printf("saved raw results to %s\n", args.save.c_str());
  }
  if (!write_observability(args, registry.snapshot(), &trace)) return cli::kFailure;

  for (proto::Protocol protocol : proto::kAllProtocols) {
    const auto matrix = core::AccessMatrix::build(experiment, protocol);
    const auto coverage = core::compute_coverage(matrix);
    const core::Classification classification(matrix);
    const std::string stem =
        args.out + "/" + std::string(proto::name_of(protocol));

    if (!report::write_file(stem + "_coverage.csv",
                            report::coverage_csv(coverage)) ||
        !report::write_file(
            stem + "_classification.csv",
            report::classification_csv(classification,
                                       experiment.world().topology))) {
      std::fprintf(stderr, "failed to write CSVs under %s\n",
                   args.out.c_str());
      return cli::kFailure;
    }
    std::printf("wrote %s_coverage.csv and %s_classification.csv\n",
                stem.c_str(), stem.c_str());

    report::Table table({"origin", "mean 2-probe", "mean 1-probe"});
    for (std::size_t o = 0; o < matrix.origins(); ++o) {
      table.add_row({matrix.origin_codes()[o],
                     report::Table::percent(coverage.mean_two_probe(o)),
                     report::Table::percent(coverage.mean_single_probe(o))});
    }
    std::printf("\n%s summary:\n%s",
                std::string(proto::name_of(protocol)).c_str(),
                table.to_string().c_str());
  }
  return cli::kOk;
}

// Worker-process entry point for the distributed experiment runner. Not
// meant to be invoked by hand: the master spawns `originscan worker
// --fd N --worker-index I <config flags>` over an inherited socketpair
// and this process claims and executes grid cells until told to stop
// (see core/dist.h).
int cmd_worker(const Args& args) {
  if (args.fd < 0) {
    std::fprintf(stderr,
                 "worker is spawned by `originscan experiment --workers N`, "
                 "not by hand (missing --fd)\n");
    return cli::kUsage;
  }
  auto config = base_config(args);
  std::optional<fault::FaultInjector> injector;
  if (!args.faults.empty()) {
    std::string error;
    const auto plan = fault::FaultPlan::parse(args.faults, &error);
    if (!plan.has_value()) {
      std::fprintf(stderr, "bad --faults spec: %s\n", error.c_str());
      return cli::kUsage;
    }
    injector.emplace(*plan, args.seed);
    config.faults = &*injector;
  }
  core::Experiment experiment(config);
  core::run_worker(args.fd, args.worker_index, experiment);
  return cli::kOk;
}

int cmd_scan(const Args& args) {
  // A scan runs no fault plan: refuse the flag rather than drop it.
  if (!args.faults.empty()) {
    std::fprintf(stderr, "scan does not support --faults\n");
    return cli::kUsage;
  }
  const auto protocol = protocol_from(args.protocol);
  if (!protocol) {
    std::fprintf(stderr, "unknown protocol: %s\n", args.protocol.c_str());
    return cli::kFailure;
  }
  auto config = base_config(args);
  config.protocols = {*protocol};
  core::Experiment experiment(config);
  const auto origin = experiment.origin_id(args.origin);
  if (origin == ~sim::OriginId{0}) {
    std::fprintf(stderr, "unknown origin: %s\n", args.origin.c_str());
    return cli::kFailure;
  }

  std::printf("scanning %s from %s (trial %d, retries %d)...\n",
              args.protocol.c_str(), args.origin.c_str(), args.trial,
              args.retries);
  scan::ScanOptions options;
  options.l7_retries = args.retries;
  options.keep_banners = true;
  options.jobs = args.jobs;
  obsv::MetricBlock metrics;
  obsv::TraceRecorder trace;
  if (!args.metrics_out.empty()) options.metrics = &metrics;
  if (!args.trace_out.empty()) {
    options.trace = &trace;
    options.trace_track = args.origin + "/" + args.protocol + "/t" +
                          std::to_string(args.trial);
  }
  const auto result = experiment.run_extra_scan(args.trial - 1, *protocol,
                                                origin, options);

  const std::string path = args.out + "/scan_" + args.origin + "_" +
                           args.protocol + "_t" + std::to_string(args.trial) +
                           ".csv";
  if (!report::write_file(path, report::scan_result_csv(result))) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return cli::kFailure;
  }

  std::map<std::string, int> outcomes;
  for (const auto& record : result.records) {
    ++outcomes[std::string(sim::to_string(record.l7))];
  }
  std::printf("responsive targets: %zu, completed handshakes: %zu\n",
              result.records.size(), result.completed_count());
  for (const auto& [outcome, count] : outcomes) {
    std::printf("  %-22s %d\n", outcome.c_str(), count);
  }
  std::printf("wrote %s\n", path.c_str());
  if (!write_observability(args, metrics, &trace)) return cli::kFailure;
  return cli::kOk;
}

// Full-universe L4 sweep over a procedural world (DESIGN.md §10): no
// per-address tables, no stored records — memory stays bounded at any
// universe size. Prints commutative aggregates plus an order-independent
// digest; two runs that print the same digest produced identical
// per-target outcomes, so comparing digests across --jobs values checks
// parallel determinism at full scale.
int cmd_sweep(const Args& args) {
  // The sweep writes no trace and takes no fault plan: refuse the flags
  // rather than accept and drop them.
  const char* unsupported = !args.trace_out.empty() ? "--trace-out"
                            : !args.faults.empty()  ? "--faults"
                                                    : nullptr;
  if (unsupported != nullptr) {
    std::fprintf(stderr, "sweep does not support %s\n", unsupported);
    return cli::kUsage;
  }
  const auto protocol = protocol_from(args.protocol);
  if (!protocol) {
    std::fprintf(stderr, "unknown protocol: %s\n", args.protocol.c_str());
    return cli::kFailure;
  }
  auto scenario = sim::ScenarioConfig::full_internet(args.universe_bits);
  scenario.seed = args.seed;
  std::printf("building procedural universe of %u addresses (2^%d)...\n",
              scenario.universe_size, args.universe_bits);
  const auto world = sim::build_world(
      scenario, sim::paper_origins(scenario.universe_size));
  const auto origin = world.origin_id(args.origin);
  if (origin == ~sim::OriginId{0}) {
    std::fprintf(stderr, "unknown origin: %s\n", args.origin.c_str());
    return cli::kFailure;
  }

  sim::TrialContext context;
  context.trial = args.trial - 1;
  context.experiment_seed = scenario.seed;
  context.simultaneous_origins = static_cast<int>(world.origins.size());
  sim::PersistentState persistent;
  sim::Internet internet(&world, context, &persistent);

  std::printf("sweeping %s from %s (trial %d, probes %d, jobs %d)...\n",
              args.protocol.c_str(), args.origin.c_str(), args.trial,
              args.probes, args.jobs);
  scan::SweepOptions options;
  options.probes = args.probes;
  options.jobs = args.jobs;
  obsv::MetricBlock metrics;
  if (!args.metrics_out.empty()) options.metrics = &metrics;
  const auto result = scan::run_l4_sweep(internet, origin, *protocol, options);

  std::printf(
      "targets probed:    %llu\n"
      "packets sent:      %llu\n"
      "responsive:        %llu (%llu SYN-ACK, %llu RST-only)\n"
      "result digest:     %016llx\n",
      static_cast<unsigned long long>(result.l4_stats.targets_probed),
      static_cast<unsigned long long>(result.l4_stats.packets_sent),
      static_cast<unsigned long long>(result.responsive),
      static_cast<unsigned long long>(result.synack_targets),
      static_cast<unsigned long long>(result.rst_only_targets),
      static_cast<unsigned long long>(result.digest));
  if (!write_observability(args, metrics, nullptr)) return cli::kFailure;
  return cli::kOk;
}

int cmd_analyze(const Args& args) {
  if (args.in.empty()) {
    std::fprintf(stderr, "analyze requires --in FILE\n");
    return cli::kFailure;
  }
  auto results = core::load_results(args.in);
  if (!results) {
    std::fprintf(stderr, "could not parse %s\n", args.in.c_str());
    return cli::kFailure;
  }
  auto config = base_config(args);
  core::Experiment experiment(config);
  std::string error;
  if (!experiment.adopt_results(std::move(*results), &error)) {
    std::fprintf(stderr,
                 "results in %s do not match this experiment's shape: %s\n"
                 "(pass the original --scale/--seed)\n",
                 args.in.c_str(), error.c_str());
    return cli::kFailure;
  }
  for (proto::Protocol protocol : proto::kAllProtocols) {
    const auto matrix = core::AccessMatrix::build(experiment, protocol);
    const auto coverage = core::compute_coverage(matrix);
    report::Table table({"origin", "mean 2-probe", "mean 1-probe"});
    for (std::size_t o = 0; o < matrix.origins(); ++o) {
      table.add_row({matrix.origin_codes()[o],
                     report::Table::percent(coverage.mean_two_probe(o)),
                     report::Table::percent(coverage.mean_single_probe(o))});
    }
    std::printf("\n%s (from saved results):\n%s",
                std::string(proto::name_of(protocol)).c_str(),
                table.to_string().c_str());
  }
  return cli::kOk;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

int cmd_journal_inspect(const Args& args) {
  if (args.resume_dir.empty()) {
    std::fprintf(stderr, "journal inspect requires --resume-dir DIR\n");
    return cli::kUsage;
  }
  std::string error;
  const auto journal =
      core::ExperimentJournal::open(args.resume_dir, /*fingerprint=*/"",
                                    &error);
  if (!journal.has_value()) {
    if (args.json) {
      std::printf("{\"dir\": \"%s\", \"error\": \"%s\"}\n",
                  json_escape(args.resume_dir).c_str(),
                  json_escape(error).c_str());
    } else {
      std::fprintf(stderr, "cannot open journal %s: %s\n",
                   args.resume_dir.c_str(), error.c_str());
    }
    return cli::kFailure;
  }

  // Per-cell verdicts: every done entry's segment + sidecars are fully
  // verified (CRC frames, store checksums, manifest digest).
  struct Verdict {
    const core::JournalEntry* entry;
    bool ok = false;
    std::size_t records = 0;
    std::string detail;  // load error (corrupt) or loss reason (lost)
  };
  std::vector<Verdict> verdicts;
  std::size_t done = 0;
  std::size_t lost = 0;
  std::size_t corrupt = 0;
  for (const auto& entry : journal->entries()) {
    Verdict verdict{&entry};
    if (entry.status == core::JournalEntry::Status::kLost) {
      ++lost;
      verdict.ok = true;  // an honest loss is not an integrity failure
      verdict.detail = entry.reason;
    } else {
      ++done;
      std::string load_error;
      const auto result = journal->load_cell(entry, nullptr, &load_error);
      if (result.has_value()) {
        verdict.ok = true;
        verdict.records = result->records.size();
      } else {
        ++corrupt;
        verdict.detail = load_error;
      }
    }
    verdicts.push_back(std::move(verdict));
  }

  if (args.json) {
    std::printf("{\n");
    std::printf("  \"dir\": \"%s\",\n", json_escape(journal->dir()).c_str());
    std::printf("  \"fingerprint\": \"%s\",\n",
                journal->fingerprint().c_str());
    std::printf("  \"entries\": %zu,\n", journal->entries().size());
    std::printf("  \"done\": %zu,\n", done);
    std::printf("  \"lost\": %zu,\n", lost);
    // Corrupt entries are what a resume (or `journal repair`) will
    // quarantine; the torn flag records a crash mid-manifest-append.
    std::printf("  \"quarantine_candidates\": %zu,\n", corrupt);
    std::printf("  \"torn_line_dropped\": %s,\n",
                journal->dropped_torn_line() ? "true" : "false");
    std::printf("  \"cells\": [\n");
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      const Verdict& verdict = verdicts[i];
      const core::JournalEntry& entry = *verdict.entry;
      std::printf("    {\"origin\": \"%s\", \"protocol\": \"%s\", "
                  "\"trial\": %d, \"status\": \"%s\", \"attempts\": %d, "
                  "\"records\": %zu, \"verdict\": \"%s\"",
                  json_escape(entry.key.origin_code).c_str(),
                  std::string(proto::name_of(entry.key.protocol)).c_str(),
                  entry.key.trial + 1,
                  entry.status == core::JournalEntry::Status::kLost ? "lost"
                                                                    : "done",
                  entry.attempts, verdict.records,
                  entry.status == core::JournalEntry::Status::kLost
                      ? "lost"
                      : (verdict.ok ? "ok" : "corrupt"));
      if (!verdict.detail.empty()) {
        std::printf(", \"detail\": \"%s\"",
                    json_escape(verdict.detail).c_str());
      }
      std::printf("}%s\n", i + 1 < verdicts.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
    return corrupt == 0 ? 0 : 1;
  }

  std::printf("journal %s\nfingerprint %s\n", journal->dir().c_str(),
              journal->fingerprint().c_str());
  report::Table table({"cell", "status", "attempts", "records", "integrity"});
  for (const Verdict& verdict : verdicts) {
    const core::JournalEntry& entry = *verdict.entry;
    if (entry.status == core::JournalEntry::Status::kLost) {
      table.add_row({cell_to_string(entry.key), "lost",
                     std::to_string(entry.attempts), "-",
                     "(" + verdict.detail + ")"});
    } else if (verdict.ok) {
      table.add_row({cell_to_string(entry.key), "done",
                     std::to_string(entry.attempts),
                     std::to_string(verdict.records), "ok"});
    } else {
      table.add_row({cell_to_string(entry.key), "done",
                     std::to_string(entry.attempts), "-",
                     "CORRUPT: " + verdict.detail});
    }
  }
  std::printf("%s%zu entries, %zu corrupt\n", table.to_string().c_str(),
              journal->entries().size(), corrupt);
  if (corrupt > 0) {
    std::printf("run `originscan journal repair --resume-dir %s` to drop "
                "the corrupt entries and make the directory resumable\n",
                args.resume_dir.c_str());
  }
  return corrupt == 0 ? 0 : 1;
}

int cmd_journal_repair(const Args& args) {
  if (args.resume_dir.empty()) {
    std::fprintf(stderr, "journal repair requires --resume-dir DIR\n");
    return cli::kUsage;
  }
  std::string error;
  const auto report = core::ExperimentJournal::repair(args.resume_dir, &error);
  if (!report.has_value()) {
    std::fprintf(stderr, "cannot repair journal %s: %s\n",
                 args.resume_dir.c_str(), error.c_str());
    return cli::kFailure;
  }
  std::printf("repaired journal %s (fingerprint %s)\n"
              "  entries kept:               %zu\n"
              "  manifest lines dropped:     %zu (malformed or torn)\n"
              "  corrupt entries dropped:    %zu\n"
              "  chain followers dropped:    %zu\n",
              args.resume_dir.c_str(), report->fingerprint.c_str(),
              report->entries_kept, report->lines_dropped_malformed,
              report->entries_dropped_corrupt,
              report->entries_dropped_followers);
  std::printf("resume with the original flags and the same --resume-dir to "
              "re-run the dropped cells\n");
  return cli::kOk;
}

int cmd_chaos(const Args& args) {
  core::ChaosOptions options;
  options.rounds = args.rounds;
  options.seed = args.seed;
  if (!args.resume_dir.empty()) options.work_dir = args.resume_dir;
  obsv::MetricsRegistry registry;
  options.metrics = &registry;
  options.progress = [](std::string_view line) {
    std::printf("  %.*s\n", static_cast<int>(line.size()), line.data());
  };
  std::printf("chaos soak: %d rounds, seed %llu\n", args.rounds,
              static_cast<unsigned long long>(args.seed));
  const core::ChaosReport report = core::run_chaos_soak(options);

  const auto snapshot = registry.snapshot();
  std::printf(
      "episodes: %d (%d resumed after a kill, %d ended as labeled partial "
      "grids)\n"
      "quarantined: %llu corrupt cells + %llu chain followers\n"
      "storage: %llu journal writes failed (fault.enospc=%llu)\n",
      report.rounds, report.resumes, report.partial_grids,
      static_cast<unsigned long long>(report.quarantined_cells),
      static_cast<unsigned long long>(report.quarantined_followers),
      static_cast<unsigned long long>(
          snapshot.counter(obsv::Counter::kJournalWritesFailed)),
      static_cast<unsigned long long>(
          snapshot.counter(obsv::Counter::kFaultEnospc)));
  if (!write_observability(args, snapshot, nullptr)) return cli::kFailure;
  if (!report.passed()) {
    for (const std::string& violation : report.violations) {
      std::fprintf(stderr, "INVARIANT VIOLATION: %s\n", violation.c_str());
    }
    std::fprintf(stderr, "%zu invariant violation(s) — reproduce any round "
                 "with the same --seed\n",
                 report.violations.size());
    return cli::kFailure;
  }
  std::printf("0 invariant violations\n");
  return cli::kOk;
}

// `originscan serve` — the originscand daemon. Freezes one universe,
// listens on an AF_UNIX socket, and serves concurrent scan requests
// until a client sends SHUTDOWN (docs/OPERATIONS.md is the runbook).
int cmd_serve(const Args& args) {
  if (args.socket_path.empty()) {
    std::fprintf(stderr, "serve requires --socket PATH\n");
    return cli::kUsage;
  }
  service::ServiceConfig config;
  config.scenario.universe_size = 1u << args.scale;
  config.scenario.seed = args.seed;
  config.executor_threads = args.executor_threads;
  config.scan_jobs = args.jobs;
  config.max_inflight = static_cast<std::uint32_t>(args.max_inflight);
  config.max_inflight_per_tenant =
      static_cast<std::uint32_t>(args.max_inflight_per_tenant);
  config.log = [](std::string_view line) {
    std::printf("originscand: %.*s\n", static_cast<int>(line.size()),
                line.data());
    std::fflush(stdout);
  };

  std::string error;
  const int listen_fd = service::make_unix_listener(args.socket_path, &error);
  if (listen_fd < 0) {
    std::fprintf(stderr, "cannot listen on %s: %s\n",
                 args.socket_path.c_str(), error.c_str());
    return cli::kFailure;
  }
  std::printf("originscand: universe scale %d seed %llu, %d executor "
              "thread(s), listening on %s\n",
              args.scale, static_cast<unsigned long long>(args.seed),
              args.executor_threads, args.socket_path.c_str());
  std::fflush(stdout);

  service::Originscand daemon(config);
  daemon.serve(listen_fd);
  ::close(listen_fd);
  ::unlink(args.socket_path.c_str());

  const auto& m = daemon.service_metrics();
  std::printf(
      "originscand: drained. connections %llu, accepted %llu, rejected "
      "%llu, completed %llu, cancelled %llu\n",
      static_cast<unsigned long long>(
          m.counter(obsv::Counter::kServiceConnections)),
      static_cast<unsigned long long>(
          m.counter(obsv::Counter::kServiceRequestsAccepted)),
      static_cast<unsigned long long>(
          m.counter(obsv::Counter::kServiceRequestsRejected)),
      static_cast<unsigned long long>(
          m.counter(obsv::Counter::kServiceRequestsCompleted)),
      static_cast<unsigned long long>(
          m.counter(obsv::Counter::kServiceRequestsCancelled)));
  if (!args.metrics_out.empty()) {
    if (!report::write_file(args.metrics_out, obsv::snapshot_json(m))) {
      std::fprintf(stderr, "failed to write %s\n", args.metrics_out.c_str());
      return cli::kFailure;
    }
  }
  return cli::kOk;
}

// `originscan client` — submit one scan to a running daemon and export
// the RESULT records as CSV, or --shutdown the daemon.
int cmd_client(const Args& args) {
  if (args.socket_path.empty()) {
    std::fprintf(stderr, "client requires --socket PATH\n");
    return cli::kUsage;
  }
  const auto protocol = protocol_from(args.protocol);
  if (!protocol) {
    std::fprintf(stderr, "unknown protocol: %s\n", args.protocol.c_str());
    return cli::kUsage;
  }
  std::string error;
  const int fd = service::connect_unix(args.socket_path, &error);
  if (fd < 0) {
    std::fprintf(stderr, "cannot connect to %s: %s\n",
                 args.socket_path.c_str(), error.c_str());
    return cli::kFailure;
  }
  service::ServiceClient client(fd);
  if (!client.hello()) {
    std::fprintf(stderr, "handshake failed: %s\n", client.error().c_str());
    return cli::kFailure;
  }
  if (args.shutdown) {
    service::ServiceWire message;
    message.type = service::ServiceMsg::kShutdown;
    if (!client.send(message)) {
      std::fprintf(stderr, "send failed: %s\n", client.error().c_str());
      return cli::kFailure;
    }
    std::printf("sent SHUTDOWN; daemon drains and exits\n");
    return cli::kOk;
  }

  service::SessionSpec spec;
  spec.origin_code = args.origin;
  spec.protocol = *protocol;
  spec.trial = args.trial;
  spec.probes = args.probes;
  spec.retries = args.retries;
  std::printf("submitting %s from %s (trial %d) to daemon at %s "
              "(universe seed %llu, %u addresses)...\n",
              args.protocol.c_str(), args.origin.c_str(), args.trial,
              args.socket_path.c_str(),
              static_cast<unsigned long long>(client.universe_seed()),
              client.universe_size());
  if (!client.submit(1, static_cast<std::uint32_t>(args.tenant), spec)) {
    std::fprintf(stderr, "submit failed: %s\n", client.error().c_str());
    return cli::kFailure;
  }
  const auto answer = client.wait_for(1);
  if (!answer) {
    std::fprintf(stderr, "no answer: %s\n", client.error().c_str());
    return cli::kFailure;
  }
  if (answer->type == service::ServiceMsg::kError) {
    std::fprintf(stderr, "daemon refused: %s (%s)\n",
                 std::string(service::service_error_name(answer->error))
                     .c_str(),
                 answer->text.c_str());
    return cli::kFailure;
  }
  const auto results = core::parse_results(answer->records);
  if (!results || results->size() != 1) {
    std::fprintf(stderr, "RESULT payload failed to parse\n");
    return cli::kFailure;
  }
  const scan::ScanResult& result = results->front();
  const std::string path = args.out + "/scan_" + args.origin + "_" +
                           args.protocol + "_t" + std::to_string(args.trial) +
                           ".csv";
  if (!report::write_file(path, report::scan_result_csv(result))) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return cli::kFailure;
  }
  std::printf("responsive targets: %zu, completed handshakes: %zu\n",
              result.records.size(), result.completed_count());
  std::printf("wrote %s\n", path.c_str());
  return cli::kOk;
}

// `originscan loadgen` — the concurrency proof: replay tenants against
// an in-process daemon and byte-compare every RESULT with a direct run.
int cmd_loadgen(const Args& args) {
  service::ServiceConfig config;
  config.scenario.universe_size = 1u << args.scale;
  config.scenario.seed = args.seed;
  config.executor_threads = args.executor_threads;
  config.scan_jobs = args.jobs;
  config.max_inflight = static_cast<std::uint32_t>(args.max_inflight);
  config.max_inflight_per_tenant =
      static_cast<std::uint32_t>(args.max_inflight_per_tenant);

  service::LoadgenOptions options;
  options.tenants = static_cast<std::uint32_t>(args.tenants);
  options.requests_per_tenant = static_cast<std::uint32_t>(args.requests);
  options.connections = static_cast<std::uint32_t>(args.connections);
  options.mix_seed = args.mix_seed;
  options.verify = !args.no_verify;

  std::printf("loadgen: %d tenant(s) x %d request(s) over %d connection(s), "
              "scale %d, %d executor thread(s)%s...\n",
              args.tenants, args.requests, args.connections, args.scale,
              args.executor_threads,
              options.verify ? ", verifying byte-identity" : "");
  std::fflush(stdout);

  const service::LoadgenReport report = service::run_loadgen(config, options);
  std::printf(
      "loadgen: %llu/%llu answered, %llu rejected, %llu distinct spec(s), "
      "%llu verified, %llu mismatch(es)\n"
      "loadgen: latency p50 %lld us, p99 %lld us, max %lld us, wall %lld us\n",
      static_cast<unsigned long long>(report.completed),
      static_cast<unsigned long long>(report.requests),
      static_cast<unsigned long long>(report.rejected),
      static_cast<unsigned long long>(report.distinct_specs),
      static_cast<unsigned long long>(report.verified_specs),
      static_cast<unsigned long long>(report.byte_mismatches),
      static_cast<long long>(report.p50_us),
      static_cast<long long>(report.p99_us),
      static_cast<long long>(report.max_us),
      static_cast<long long>(report.wall_us));
  if (!args.json_out.empty()) {
    if (!report::write_file(args.json_out,
                            service::loadgen_report_json(report))) {
      std::fprintf(stderr, "failed to write %s\n", args.json_out.c_str());
      return cli::kFailure;
    }
    std::printf("wrote %s\n", args.json_out.c_str());
  }
  if (!report.ok) {
    std::fprintf(stderr, "loadgen FAILED: %s\n", report.error.c_str());
    return cli::kFailure;
  }
  std::printf(options.verify
                  ? "loadgen OK: every answer byte-identical to direct runs\n"
                  : "loadgen OK (byte-identity verification skipped)\n");
  return cli::kOk;
}

int cmd_topology(const Args& args) {
  auto config = base_config(args);
  const auto world = sim::build_world(
      config.scenario, sim::paper_origins(config.scenario.universe_size));
  report::Table table({"AS", "country", "/24s", "addresses"});
  std::size_t shown = 0;
  for (const auto& as : world.topology.ases()) {
    if (shown++ >= 40) break;
    table.add_row({as.name, as.country.to_string(),
                   std::to_string(as.prefixes.size()),
                   std::to_string(as.address_count())});
  }
  std::size_t hosts = 0;
  for (std::uint32_t addr = 0; addr < world.universe_size; ++addr) {
    if (world.host_at(net::Ipv4Addr(addr))) ++hosts;
  }
  std::printf("%zu ASes, %zu hosts over %u addresses; first 40 ASes:\n%s",
              world.topology.as_count(), hosts,
              world.universe_size, table.to_string().c_str());
  return cli::kOk;
}

int cmd_origins(const Args& args) {
  auto config = base_config(args);
  const auto origins = sim::paper_origins(config.scenario.universe_size);
  report::Table table({"code", "name", "country", "source IPs",
                       "reputation", "loss multiplier"});
  for (const auto& origin : origins) {
    table.add_row({origin.code, origin.display_name,
                   origin.country.to_string(),
                   std::to_string(origin.source_ips.size()),
                   report::Table::num(origin.scan_reputation, 2),
                   report::Table::num(origin.loss_multiplier, 2)});
  }
  std::printf("%s", table.to_string().c_str());
  return cli::kOk;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    usage();
    return cli::kUsage;
  }
  if (args.command == "experiment") return cmd_experiment(args);
  if (args.command == "worker") return cmd_worker(args);
  if (args.command == "journal-inspect") return cmd_journal_inspect(args);
  if (args.command == "journal-repair") return cmd_journal_repair(args);
  if (args.command == "chaos") return cmd_chaos(args);
  if (args.command == "analyze") return cmd_analyze(args);
  if (args.command == "scan") return cmd_scan(args);
  if (args.command == "sweep") return cmd_sweep(args);
  if (args.command == "serve") return cmd_serve(args);
  if (args.command == "client") return cmd_client(args);
  if (args.command == "loadgen") return cmd_loadgen(args);
  if (args.command == "topology") return cmd_topology(args);
  if (args.command == "origins") return cmd_origins(args);
  usage();
  return cli::kUsage;
}
