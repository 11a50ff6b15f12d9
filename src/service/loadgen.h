// In-process load generator for `originscand`: boots a daemon over
// socketpair transports, replays N simulated tenants × M requests over C
// multiplexed connections from a single-threaded nonblocking poll loop,
// and then proves the tentpole's core claim — every tenant's RESULT
// bytes are identical to a direct single-run scan with the same (seed,
// origin, spec), no matter how many sessions interleaved.
//
// Latencies are wall-clock submit→answer times per request; the p99 is
// what `bench/record.sh` publishes as `loadgen_p99_us` in
// BENCH_wall.json and what tools/bench_gate bounds in CI (a >25%
// regression fails the bench stage). `originscan loadgen` is the CLI
// front end (docs/CLI.md).
#pragma once

#include <cstdint>
#include <string>

#include "service/service.h"

namespace originscan::service {

struct LoadgenOptions {
  std::uint32_t tenants = 64;
  std::uint32_t requests_per_tenant = 2;
  std::uint32_t connections = 8;  // tenants multiplex tenant % connections
  std::uint64_t mix_seed = 1;     // derives each request's spec
  // Re-run every distinct spec directly (fresh universe, serial) and
  // byte-compare against the service's RESULT payloads.
  bool verify = true;
};

struct LoadgenReport {
  bool ok = false;            // everything answered + verification passed
  std::string error;          // first failure, when !ok
  std::uint64_t requests = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t distinct_specs = 0;
  std::uint64_t verified_specs = 0;
  std::uint64_t byte_mismatches = 0;
  std::int64_t p50_us = 0;
  std::int64_t p99_us = 0;
  std::int64_t max_us = 0;
  std::int64_t wall_us = 0;  // whole replay, handshake to last answer
};

// Runs the replay against a fresh daemon built from `service`.
// `service.executor_threads`/`scan_jobs` shape the daemon under test;
// its metrics/trace/log/hook fields are honored as usual.
[[nodiscard]] LoadgenReport run_loadgen(const ServiceConfig& service,
                                        const LoadgenOptions& options);

// Deterministic flat-JSON rendering of a report (the `loadgen_*` fields
// bench/record.sh writes to BENCH_wall.json).
[[nodiscard]] std::string loadgen_report_json(const LoadgenReport& report);

}  // namespace originscan::service
