// perfbench — the originscan benchmark driver.
//
//   perfbench --workload grid|grid_dist|sweep --seed N --seconds S
//             --trace 0|1 [--rate RPS] [--commit ID] [--out-dir DIR]
//             [--originscan PATH]
//
// Untraced (--trace 0): runs the workload for S seconds and prints every
// end-to-end metric, host-normalised. Traced (--trace 1): runs the
// workload briefly untraced and then traced (the ratio is the tracing
// overhead), then the per-layer ledger, and prints every per-layer
// metric; --rate is the offered rate of the ledger's daemon. Spans go to
// <out-dir>/trace-<workload>-<seed>.json as a Chrome trace. Lines
// before the last start with "#"; the last line is the JSON result.
// perfbench/run.py builds this binary and is the command to run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "report/export.h"

using namespace perfbench;

namespace {

// Debug and sanitizer builds measure the wrong program.
const char* refused_build() {
#ifndef NDEBUG
  return "assertions are enabled (Debug build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
  if (std::strlen(PERFBENCH_SANITIZE) > 0) return "ORIGINSCAN_SANITIZE is set";
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0 &&
      std::strcmp(PERFBENCH_BUILD_TYPE, "RelWithDebInfo") != 0) {
    return "CMAKE_BUILD_TYPE is not Release or RelWithDebInfo";
  }
  return nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload grid|grid_dist|sweep "
               "--seed N --seconds S --trace 0|1 [--rate RPS] [--commit ID] "
               "[--out-dir DIR] [--originscan PATH]\n");
  return 2;
}

Outcome run_workload(const Options& options, double seconds, bool verify,
                     Tracer* tracer) {
  if (options.workload == "grid") {
    return run_grid(options, false, seconds, verify, tracer);
  }
  if (options.workload == "grid_dist") {
    return run_grid(options, true, seconds, verify, tracer);
  }
  return run_sweep(options, seconds, verify, tracer);
}

void print_notes(const Outcome& outcome) {
  for (const std::string& line : outcome.notes) {
    std::printf("# %s\n", line.c_str());
  }
}

int run(int argc, char** argv);

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}

namespace {

int run(int argc, char** argv) {
  Options options;
  std::string commit;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--rate") {
      options.rate_rps = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.rate_rps > 0)) return usage();
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--originscan") {
      options.originscan = value;
    } else {
      return usage();
    }
  }
  const bool known = options.workload == "grid" ||
                     options.workload == "grid_dist" ||
                     options.workload == "sweep";
  if (!have_workload || !known || !have_seed || !have_seconds || !have_trace) {
    return usage();
  }
  if (const char* why = refused_build()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", why);
    return 2;
  }
  std::filesystem::create_directories(options.out_dir);

  const HostStamp stamp =
      host_stamp(PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, commit);
  std::printf("# host %s\n", host_stamp_json(stamp).c_str());
  std::printf("# workload %s seed %llu seconds %g trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);

  Outcome result;
  if (!options.trace) {
    result = run_workload(options, options.seconds, true, nullptr);
    print_notes(result);
  } else {
    // Tracing overhead: the same workload, briefly, without and with
    // spans; then the ledger.
    const double brief = std::max(1.0, options.seconds / 4);
    const Outcome plain = run_workload(options, brief, false, nullptr);
    Tracer tracer;
    const Outcome traced = run_workload(options, brief, false, &tracer);
    print_notes(plain);
    print_notes(traced);
    result.correct = plain.correct && traced.correct;
    result.attempted = plain.attempted + traced.attempted;
    result.failed = plain.failed + traced.failed;
    run_ledger(options, tracer, result);
    print_notes(result);
    const double overhead =
        plain.primary > 0 ? traced.primary / plain.primary : 0.0;
    std::printf("# tracing overhead on %s: traced/untraced wall_s = %.4f\n",
                options.workload.c_str(), overhead);
    result.add("trace.overhead_ratio", overhead, "ratio");
    const std::string path = options.out_dir + "/trace-" + options.workload +
                             "-" + std::to_string(options.seed) + ".json";
    if (originscan::report::write_file(path, tracer.chrome_trace_json())) {
      std::printf("# wrote %zu spans to %s\n", tracer.span_count(),
                  path.c_str());
    }
  }
  if (result.attempted == 0) result.attempted = 1;
  if (result.failed > 0) result.correct = false;
  std::printf("%s\n", result_json(result.correct, result.attempted,
                                  result.failed, result.metrics)
                          .c_str());
  return 0;
}

}  // namespace
