// The `originscan` command line, declared once. Every flag is one row of
// kFlags: the Args field it fills (whose type is the flag's kind), the
// range an integer must fall in, the subcommands that read it, and its
// help line. tools/originscan_cli.cc drives parsing, range checks, the
// refusal of flags a subcommand does not read (exit 2) and the usage
// text from this table; tests/cli_test.cc checks each flag table in
// docs/CLI.md against it, both ways.
#pragma once

#include <array>
#include <climits>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "proto/protocol.h"

namespace originscan::cli {

// The subcommands, one bit each.
enum Command : std::uint32_t {
  kExperiment = 1u << 0,
  kWorker = 1u << 1,
  kAnalyze = 1u << 2,
  kScan = 1u << 3,
  kSweep = 1u << 4,
  kChaos = 1u << 5,
  kServe = 1u << 6,
  kClient = 1u << 7,
  kLoadgen = 1u << 8,
  kJournalInspect = 1u << 9,
  kJournalRepair = 1u << 10,
  kTopology = 1u << 11,
  kOrigins = 1u << 12,
};

struct CommandName {
  std::string_view name;  // as typed after `originscan`
  Command command;
};

inline constexpr std::array<CommandName, 13> kCommands = {{
    {"experiment", kExperiment},
    {"worker", kWorker},
    {"analyze", kAnalyze},
    {"scan", kScan},
    {"sweep", kSweep},
    {"chaos", kChaos},
    {"serve", kServe},
    {"client", kClient},
    {"loadgen", kLoadgen},
    {"journal inspect", kJournalInspect},
    {"journal repair", kJournalRepair},
    {"topology", kTopology},
    {"origins", kOrigins},
}};

// The parsed command line. A flag a subcommand does not read is refused,
// so every field a subcommand sees is either its default or was typed.
struct Args {
  Command command = kExperiment;
  int scale = 16;
  std::uint64_t seed = 23721;
  std::string out = ".";
  int jobs = 1;
  int workers = 0;
  std::string save;
  std::string resume_dir;
  std::string faults;
  std::string metrics_out;
  std::string trace_out;
  int fd = -1;
  int worker_index = 0;
  std::string in;
  std::string origin = "US1";
  proto::Protocol protocol = proto::Protocol::kHttp;
  int trial = 1;
  int probes = 2;
  int retries = 0;
  int universe_bits = 28;
  int rounds = 25;
  std::string socket_path;
  int executor_threads = 2;
  int max_inflight = 4096;
  int max_inflight_per_tenant = 1024;
  int tenant = 0;
  bool shutdown = false;
  int tenants = 64;
  int requests = 2;
  int connections = 8;
  std::uint64_t mix_seed = 1;
  std::string json_out;
  bool no_verify = false;
  bool json = false;
};

struct Flag {
  std::string_view name;  // without the leading "--"
  std::variant<int Args::*, std::uint64_t Args::*, std::string Args::*,
               bool Args::*, proto::Protocol Args::*>
      field;
  std::uint32_t commands;  // Command bits of the subcommands that read it
  std::string_view value;  // the value's placeholder; empty for a switch
  std::string_view help;
  int min = 0;  // an int field's accepted range, inclusive
  int max = 0;
};

inline constexpr std::array<Flag, 33> kFlags = {{
    {"scale", &Args::scale,
     kExperiment | kWorker | kAnalyze | kScan | kServe | kLoadgen |
         kTopology | kOrigins,
     "N", "universe exponent: 2^N addresses", 12, 22},
    {"seed", &Args::seed,
     kExperiment | kWorker | kAnalyze | kScan | kSweep | kChaos | kServe |
         kLoadgen | kTopology,
     "N", "scenario seed"},
    {"out", &Args::out, kExperiment | kScan | kClient, "DIR",
     "CSV output directory"},
    {"jobs", &Args::jobs,
     kExperiment | kWorker | kScan | kSweep | kServe | kLoadgen, "N",
     "threads per run or scan; results are identical for any value", 1,
     64},
    {"workers", &Args::workers, kExperiment, "N",
     "run the grid in N worker processes (0 = in-process)", 0, 64},
    {"save", &Args::save, kExperiment, "FILE",
     "also save raw results (store v2)"},
    {"resume-dir", &Args::resume_dir,
     kExperiment | kChaos | kJournalInspect | kJournalRepair, "DIR",
     "journal directory (chaos: scratch root)"},
    {"faults", &Args::faults, kExperiment | kWorker, "SPEC",
     "fault plan (src/faultinject/)"},
    {"metrics-out", &Args::metrics_out,
     kExperiment | kScan | kSweep | kChaos | kServe, "FILE",
     "write the metrics snapshot JSON (docs/METRICS.md)"},
    {"trace-out", &Args::trace_out, kExperiment | kScan, "FILE",
     "write a Chrome trace_event timeline"},
    {"fd", &Args::fd, kWorker, "N", "inherited transport socket", 0,
     INT_MAX},
    {"worker-index", &Args::worker_index, kWorker, "N",
     "index the master gave this worker", 0, INT_MAX},
    {"in", &Args::in, kAnalyze, "FILE", "results saved by experiment --save"},
    {"origin", &Args::origin, kScan | kSweep | kClient, "CODE",
     "AU BR DE JP US1 US64 CEN"},
    {"protocol", &Args::protocol, kScan | kSweep | kClient, "P",
     "http, https or ssh"},
    {"trial", &Args::trial, kScan | kSweep | kClient, "N", "trial number", 1,
     3},
    {"probes", &Args::probes, kScan | kSweep | kClient, "N",
     "SYN probes per target", 1, 8},
    {"retries", &Args::retries, kScan | kClient, "N", "L7 retry budget", 0,
     8},
    {"universe-bits", &Args::universe_bits, kSweep, "N",
     "procedural universe exponent", 20, 32},
    {"rounds", &Args::rounds, kChaos, "N", "randomized fault episodes", 1,
     100000},
    {"socket", &Args::socket_path, kServe | kClient, "PATH",
     "the daemon's AF_UNIX socket"},
    {"executor-threads", &Args::executor_threads, kServe | kLoadgen, "N",
     "concurrent sessions", 1, 64},
    {"max-inflight", &Args::max_inflight, kServe | kLoadgen, "N",
     "global admission cap", 1, INT_MAX},
    {"max-inflight-per-tenant", &Args::max_inflight_per_tenant,
     kServe | kLoadgen, "N", "per-tenant admission cap", 1, INT_MAX},
    {"tenant", &Args::tenant, kClient, "N", "fair-share tenant key", 0,
     INT_MAX},
    {"shutdown", &Args::shutdown, kClient, "",
     "drain and stop the daemon; submit nothing"},
    {"tenants", &Args::tenants, kLoadgen, "N", "simulated tenants", 1,
     INT_MAX},
    {"requests", &Args::requests, kLoadgen, "N", "requests per tenant", 1,
     INT_MAX},
    {"connections", &Args::connections, kLoadgen, "N",
     "multiplexed connections", 1, INT_MAX},
    {"mix-seed", &Args::mix_seed, kLoadgen, "N", "request-mix seed"},
    {"json-out", &Args::json_out, kLoadgen, "FILE",
     "write the loadgen_* report JSON"},
    {"no-verify", &Args::no_verify, kLoadgen, "",
     "skip the byte-identity check"},
    {"json", &Args::json, kJournalInspect, "", "machine-readable report"},
}};

}  // namespace originscan::cli
