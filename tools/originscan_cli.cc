// originscan — command-line front end for the library.
//
// docs/CLI.md documents every subcommand, flag and exit code. The flags
// are declared once, in cli_flags.h; that table drives parse_args, the
// range checks, the refusal of flags a subcommand does not read, and the
// usage text. Exit codes follow core/exit_codes.h: 0 ok, 1 failure,
// 2 usage, 3 killed-but-resumable.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include <unistd.h>

#include "cli_flags.h"
#include "core/access_matrix.h"
#include "core/dist.h"
#include "core/exit_codes.h"
#include "service/client.h"
#include "service/loadgen.h"
#include "service/service.h"
#include "service/session.h"
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
using cli::Args;

namespace {

// The protocol as the command line spells it: http, https, ssh.
std::string lower_name(proto::Protocol protocol) {
  std::string name(proto::name_of(protocol));
  for (char& c : name) c = static_cast<char>(c - 'A' + 'a');
  return name;
}

std::string range_of(const cli::Flag& flag) {
  if (flag.max == INT_MAX) return ">= " + std::to_string(flag.min);
  return std::to_string(flag.min) + ".." + std::to_string(flag.max);
}

// Sets the field `flag` names from `value` (a switch's value is empty).
// Numbers take whole decimal integers only: "0x05CA9", "junk" or "20x"
// is refused naming the flag, never read as some other number.
bool parse_value(const cli::Flag& flag, const std::string& value,
                 Args& args) {
  return std::visit(
      [&](auto field) {
        auto& out = args.*field;
        using T = std::remove_reference_t<decltype(out)>;
        if constexpr (std::is_same_v<T, bool>) {
          out = true;
        } else if constexpr (std::is_same_v<T, std::string>) {
          out = value;
        } else if constexpr (std::is_same_v<T, proto::Protocol>) {
          const auto protocol = proto::protocol_from_name(value);
          if (!protocol) {
            std::fprintf(stderr, "unknown protocol: %s\n", value.c_str());
            return false;
          }
          out = *protocol;
        } else {
          const char* end = value.data() + value.size();
          const auto [ptr, ec] = std::from_chars(value.data(), end, out);
          if (ec != std::errc{} || ptr != end) {
            std::fprintf(stderr, "--%s needs a decimal integer, got '%s'\n",
                         flag.name.data(), value.c_str());
            return false;
          }
          if constexpr (std::is_same_v<T, int>) {
            if (out < flag.min || out > flag.max) {
              std::fprintf(stderr, "--%s must be %s\n", flag.name.data(),
                           range_of(flag).c_str());
              return false;
            }
          }
        }
        return true;
      },
      flag.field);
}

// The names of the subcommands in `commands`, comma-separated.
std::string command_names(std::uint32_t commands) {
  std::string names;
  for (const cli::CommandName& command : cli::kCommands) {
    if (commands & command.command) {
      names += (names.empty() ? "" : ", ") + std::string(command.name);
    }
  }
  return names;
}

void usage() {
  std::fprintf(stderr,
               "usage: originscan <command> [flags]  (reference: "
               "docs/CLI.md)\ncommands: %s\n"
               "flags, each read only by the commands it lists:\n",
               command_names(~0u).c_str());
  const Args defaults;
  for (const cli::Flag& flag : cli::kFlags) {
    const std::string head =
        "--" + std::string(flag.name) + " " + std::string(flag.value);
    std::string help(flag.help);
    if (std::holds_alternative<int Args::*>(flag.field)) {
      help += ", " + range_of(flag);
    }
    std::visit(
        [&](auto field) {
          const auto& value = defaults.*field;
          using T = std::remove_cvref_t<decltype(value)>;
          if constexpr (std::is_same_v<T, std::string>) {
            if (!value.empty()) help += " (default " + value + ")";
          } else if constexpr (std::is_same_v<T, proto::Protocol>) {
            help += " (default " + lower_name(value) + ")";
          } else if constexpr (!std::is_same_v<T, bool>) {
            help += " (default " + std::to_string(value) + ")";
          }
        },
        flag.field);
    std::fprintf(stderr, "  %-28s %s\n  %-28s [%s]\n", head.c_str(),
                 help.c_str(), "", command_names(flag.commands).c_str());
  }
}

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  std::string name = argv[1];
  int first_flag = 2;
  if (name == "journal" && argc > 2) {
    name = name + " " + argv[2];
    first_flag = 3;
  }
  const auto command = std::find_if(
      cli::kCommands.begin(), cli::kCommands.end(),
      [&](const cli::CommandName& known) { return known.name == name; });
  if (command == cli::kCommands.end()) {
    std::fprintf(stderr, "unknown command: %s\n", name.c_str());
    return false;
  }
  args.command = command->command;
  for (int i = first_flag; i < argc; ++i) {
    const std::string_view typed = argv[i];
    const auto flag = std::find_if(
        cli::kFlags.begin(), cli::kFlags.end(), [&](const cli::Flag& known) {
          return typed.starts_with("--") && typed.substr(2) == known.name;
        });
    if (flag == cli::kFlags.end()) {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
    if ((flag->commands & args.command) == 0) {
      std::fprintf(stderr, "%s does not read %s\n", name.c_str(), argv[i]);
      return false;
    }
    std::string value;
    if (!std::holds_alternative<bool Args::*>(flag->field)) {
      if (++i == argc) {
        std::fprintf(stderr, "%s needs a value\n", argv[i - 1]);
        return false;
      }
      value = argv[i];
    }
    if (!parse_value(*flag, value, args)) return false;
  }
  return true;
}

sim::ScenarioConfig scenario_of(const Args& args) {
  sim::ScenarioConfig scenario;
  scenario.universe_size = 1u << args.scale;
  scenario.seed = args.seed;
  return scenario;
}

core::ExperimentConfig base_config(const Args& args) {
  core::ExperimentConfig config;
  config.scenario = scenario_of(args);
  config.jobs = args.jobs;
  return config;
}

service::ServiceConfig service_config(const Args& args) {
  service::ServiceConfig config;
  config.scenario = scenario_of(args);
  config.executor_threads = args.executor_threads;
  config.scan_jobs = args.jobs;
  config.max_inflight = static_cast<std::uint32_t>(args.max_inflight);
  config.max_inflight_per_tenant =
      static_cast<std::uint32_t>(args.max_inflight_per_tenant);
  return config;
}

// One protocol's mean coverage per origin, as experiment and analyze
// print it.
std::string coverage_summary(const core::AccessMatrix& matrix,
                             const core::CoverageTable& coverage) {
  report::Table table({"origin", "mean 2-probe", "mean 1-probe"});
  for (std::size_t o = 0; o < matrix.origins(); ++o) {
    table.add_row({matrix.origin_codes()[o],
                   report::Table::percent(coverage.mean_two_probe(o)),
                   report::Table::percent(coverage.mean_single_probe(o))});
  }
  return table.to_string();
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
// or nullptr when the run as configured does.
const char* missing_consumer(const fault::FaultClause& clause,
                             const Args& args) {
  switch (fault::consumer(clause.point)) {
    case fault::Consumer::kWorkers:
      return args.workers == 0 ? "--workers" : nullptr;
    case fault::Consumer::kJournal:
      return args.resume_dir.empty() ? "--resume-dir" : nullptr;
    default:
      return nullptr;
  }
}

int cmd_experiment(const Args& args) {
  if (args.workers > 0 && !args.trace_out.empty()) {
    std::fprintf(stderr,
                 "--trace-out is not supported with --workers: trace spans "
                 "are produced inside the worker processes\n");
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
    std::printf("\n%s summary:\n%s",
                std::string(proto::name_of(protocol)).c_str(),
                coverage_summary(matrix, coverage).c_str());
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

service::SessionSpec spec_of(const Args& args) {
  service::SessionSpec spec;
  spec.origin_code = args.origin;
  spec.protocol = args.protocol;
  spec.trial = args.trial;
  spec.probes = args.probes;
  spec.retries = args.retries;
  return spec;
}

// The tail `scan` and `client` share: one session's RESULT bytes become
// the scan CSV and the printed summary.
int write_scan(const Args& args, const std::vector<std::uint8_t>& records) {
  const auto results = core::parse_results(records);
  if (!results || results->size() != 1) {
    std::fprintf(stderr, "RESULT payload failed to parse\n");
    return cli::kFailure;
  }
  const scan::ScanResult& result = results->front();
  const std::string path = args.out + "/scan_" + args.origin + "_" +
                           lower_name(args.protocol) + "_t" +
                           std::to_string(args.trial) + ".csv";
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
  return cli::kOk;
}

// `originscan scan` runs the daemon's own session over a universe frozen
// for this one request, so `client` against a daemon with the same
// --scale/--seed writes the same bytes by construction.
int cmd_scan(const Args& args) {
  const service::FrozenUniverse universe(scenario_of(args));
  const std::string protocol = lower_name(args.protocol);
  std::printf("scanning %s from %s (trial %d, probes %d, retries %d)...\n",
              protocol.c_str(), args.origin.c_str(), args.trial, args.probes,
              args.retries);
  obsv::MetricBlock metrics;
  obsv::TraceRecorder trace;
  const service::SessionOutcome outcome = service::run_session(
      universe, spec_of(args), args.jobs, /*cancel=*/nullptr,
      args.metrics_out.empty() ? nullptr : &metrics,
      args.trace_out.empty() ? nullptr : &trace,
      args.origin + "/" + protocol + "/t" + std::to_string(args.trial));
  if (!outcome.ok) {
    std::fprintf(stderr, "%s\n", outcome.error.c_str());
    return cli::kFailure;
  }
  if (const int code = write_scan(args, outcome.records); code != cli::kOk) {
    return code;
  }
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
              lower_name(args.protocol).c_str(), args.origin.c_str(),
              args.trial, args.probes, args.jobs);
  scan::SweepOptions options;
  options.probes = args.probes;
  options.jobs = args.jobs;
  obsv::MetricBlock metrics;
  if (!args.metrics_out.empty()) options.metrics = &metrics;
  const auto result =
      scan::run_l4_sweep(internet, origin, args.protocol, options);

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
    return cli::kUsage;
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
    std::printf("\n%s (from saved results):\n%s",
                std::string(proto::name_of(protocol)).c_str(),
                coverage_summary(matrix, coverage).c_str());
  }
  return cli::kOk;
}

std::string json_string(std::string_view text) {
  std::string out;
  obsv::append_json_escaped(out, text);
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
                  json_string(args.resume_dir).c_str(),
                  json_string(error).c_str());
    } else {
      std::fprintf(stderr, "cannot open journal %s: %s\n",
                   args.resume_dir.c_str(), error.c_str());
    }
    return cli::kFailure;
  }

  // Judge every entry by the salvage rule resume applies
  // (ExperimentJournal::salvage), each origin's entries walked in chain
  // order: trial, then protocol, the grid order of the CLI's protocol
  // list. Only resume knows the grid, so a missing cell is not seen here.
  const std::vector<core::JournalEntry>& entries = journal->entries();
  std::vector<std::size_t> chain_order(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) chain_order[i] = i;
  std::stable_sort(chain_order.begin(), chain_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const core::CellKey& x = entries[a].key;
                     const core::CellKey& y = entries[b].key;
                     return std::tie(x.origin_code, x.trial, x.protocol) <
                            std::tie(y.origin_code, y.trial, y.protocol);
                   });
  struct Judged {
    core::Verdict verdict = core::Verdict::kOk;
    std::size_t records = 0;
    std::string detail;  // load error (corrupt) or loss reason (lost)
  };
  std::vector<Judged> judged(entries.size());
  std::size_t corrupt = 0;
  std::size_t followers = 0;
  bool chain_broken = false;
  for (std::size_t i = 0; i < chain_order.size(); ++i) {
    const core::JournalEntry& entry = entries[chain_order[i]];
    if (i > 0 &&
        entry.key.origin_code != entries[chain_order[i - 1]].key.origin_code) {
      chain_broken = false;
    }
    Judged& cell = judged[chain_order[i]];
    std::optional<scan::ScanResult> result;
    cell.verdict = journal->salvage(entry, chain_broken, result,
                                    /*snapshot=*/nullptr, &cell.detail);
    if (result.has_value()) cell.records = result->records.size();
    if (cell.verdict == core::Verdict::kLost) cell.detail = entry.reason;
    corrupt += cell.verdict == core::Verdict::kCorrupt ? 1 : 0;
    followers += cell.verdict == core::Verdict::kFollower ? 1 : 0;
  }
  const auto verdict_name = [](core::Verdict verdict) {
    constexpr const char* kNames[] = {"ok", "lost", "corrupt", "follower"};
    return kNames[static_cast<int>(verdict)];
  };
  const int exit_code = corrupt == 0 ? cli::kOk : cli::kFailure;

  if (args.json) {
    std::printf("{\n");
    std::printf("  \"dir\": \"%s\",\n", json_string(journal->dir()).c_str());
    std::printf("  \"fingerprint\": \"%s\",\n",
                journal->fingerprint().c_str());
    std::printf("  \"entries\": %zu,\n", entries.size());
    // Corrupt cells and their followers are what a resume quarantines
    // (journal.quarantined_cells / journal.quarantined_followers).
    std::printf("  \"corrupt\": %zu,\n", corrupt);
    std::printf("  \"followers\": %zu,\n", followers);
    std::printf("  \"lines_dropped\": %zu,\n", journal->dropped_lines());
    std::printf("  \"cells\": [\n");
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const core::JournalEntry& entry = entries[i];
      const Judged& cell = judged[i];
      std::printf("    {\"origin\": \"%s\", \"protocol\": \"%s\", "
                  "\"trial\": %d, \"attempts\": %d, \"records\": %zu, "
                  "\"verdict\": \"%s\"",
                  json_string(entry.key.origin_code).c_str(),
                  std::string(proto::name_of(entry.key.protocol)).c_str(),
                  entry.key.trial + 1, entry.attempts, cell.records,
                  verdict_name(cell.verdict));
      if (!cell.detail.empty()) {
        std::printf(", \"detail\": \"%s\"", json_string(cell.detail).c_str());
      }
      std::printf("}%s\n", i + 1 < entries.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
    return exit_code;
  }

  std::printf("journal %s\nfingerprint %s\n", journal->dir().c_str(),
              journal->fingerprint().c_str());
  report::Table table({"cell", "attempts", "records", "verdict"});
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Judged& cell = judged[i];
    std::string verdict = verdict_name(cell.verdict);
    if (!cell.detail.empty()) verdict += " (" + cell.detail + ")";
    table.add_row({cell_to_string(entries[i].key),
                   std::to_string(entries[i].attempts),
                   cell.verdict == core::Verdict::kOk
                       ? std::to_string(cell.records)
                       : "-",
                   verdict});
  }
  std::printf("%s%zu entries, %zu corrupt, %zu followers, %zu manifest "
              "lines dropped\n",
              table.to_string().c_str(), entries.size(), corrupt, followers,
              journal->dropped_lines());
  if (exit_code != cli::kOk) {
    std::printf("resume with the original flags and the same --resume-dir "
                "to re-run the corrupt cells and their followers\n");
  }
  return exit_code;
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
  service::ServiceConfig config = service_config(args);
  // Each session's scan counters merge here; the service.* block joins
  // them on exit.
  obsv::MetricsRegistry registry;
  if (!args.metrics_out.empty()) config.metrics = &registry;
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
    registry.merge_block(m);
    if (!report::write_file(args.metrics_out, registry.snapshot_json())) {
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

  std::printf("submitting %s from %s (trial %d) to daemon at %s "
              "(universe seed %llu, %u addresses)...\n",
              lower_name(args.protocol).c_str(), args.origin.c_str(),
              args.trial, args.socket_path.c_str(),
              static_cast<unsigned long long>(client.universe_seed()),
              client.universe_size());
  if (!client.submit(1, static_cast<std::uint32_t>(args.tenant),
                     spec_of(args))) {
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
  return write_scan(args, answer->records);
}

// `originscan loadgen` — the concurrency proof: replay tenants against
// an in-process daemon and byte-compare every RESULT with a direct run.
int cmd_loadgen(const Args& args) {
  service::ServiceConfig config = service_config(args);

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
  const auto scenario = scenario_of(args);
  const auto world =
      sim::build_world(scenario, sim::paper_origins(scenario.universe_size));
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
  const auto origins = sim::paper_origins(1u << args.scale);
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
  switch (args.command) {
    case cli::kExperiment: return cmd_experiment(args);
    case cli::kWorker: return cmd_worker(args);
    case cli::kAnalyze: return cmd_analyze(args);
    case cli::kScan: return cmd_scan(args);
    case cli::kSweep: return cmd_sweep(args);
    case cli::kChaos: return cmd_chaos(args);
    case cli::kServe: return cmd_serve(args);
    case cli::kClient: return cmd_client(args);
    case cli::kLoadgen: return cmd_loadgen(args);
    case cli::kJournalInspect: return cmd_journal_inspect(args);
    case cli::kTopology: return cmd_topology(args);
    case cli::kOrigins: return cmd_origins(args);
  }
  return cli::kUsage;
}
