// Measurement helpers shared by the benchmark driver: nearest-rank
// percentiles, the seeded open-loop arrival schedule, the result line,
// and the host-shape stamp. Nothing here touches the simulator, so the
// unit tests (util_test.cc) link only this library.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

// Nearest-rank percentile: the smallest sample x such that at least p%
// of the samples are <= x (rank ceil(p/100 * n), 1-based). p in (0, 100];
// `samples` must be non-empty. The median is percentile(samples, 50).
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);

// Samples strictly above the nearest-rank p-th percentile's rank.
std::size_t samples_beyond(std::size_t n, double p);

// The highest of 99.9, 99, 95, 90, 75 and 50 that keeps at least
// `min_beyond` samples beyond its rank, or 0 when even the median does
// not. Tail metrics are only reported at a percentile this allows.
double highest_supported_percentile(std::size_t n, std::size_t min_beyond = 10);

// Open-loop Poisson arrivals: the due times (seconds from phase start,
// ascending) of the first `count` arrivals of a process with
// `rate_per_s` arrivals per second. A pure function of `seed`, so one
// seed always offers the same schedule; empty unless rate_per_s > 0.
std::vector<double> poisson_arrivals(std::uint64_t seed, double rate_per_s,
                                     std::size_t count);

// The host-speed probe (README.md "Host-normalised times"): a fixed
// amount of work, timed in seconds. kProbeThreads threads each hash 12M
// seeded values behind an unpredictable branch, then sort 2^18 random
// keys three times: integer work, branches and cache traffic on every
// CPU, as the workloads do. The probe's code never changes with the
// program, so a pass's time over the probe's time cancels the host's
// speed at that moment.
inline constexpr int kProbeThreads = 4;
double host_probe_s();
// The probe's time on the reference host (4 CPUs, calm).
inline constexpr double kProbeReferenceS = 0.18;
// Host-normalised times of consecutive passes, probes[i] taken right
// after pass i: pass i is scaled by (kProbeReferenceS / p) to the power
// `elasticity`, p the geometric mean of the probes on either side of it
// (pass 0 has only the one after it). Throws unless there is one probe
// per pass.
std::vector<double> host_normalised(const std::vector<double>& raw,
                                    const std::vector<double>& probes,
                                    double elasticity);

// One reported metric: name, value and unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The result line: {"correct": .., "attempted": .., "failed": ..,
// "metrics": {name: {"value": v, "unit": u}, ...}}. Values keep all
// their digits (%.17g).
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

// Escapes a string for a JSON string literal.
std::string json_escape(const std::string& text);

// The host shape a result was measured on. Results taken on different
// shapes are never compared (run.py compare refuses).
struct HostStamp {
  int nproc = 0;
  std::string cpu_model;
  std::string build_type;
  std::string compiler;
  std::string commit;
};
HostStamp host_stamp(const std::string& build_type,
                     const std::string& compiler, const std::string& commit);
std::string host_stamp_json(const HostStamp& stamp);

// Peak resident set of this process and of its largest reaped child, in
// MiB (getrusage ru_maxrss).
double self_peak_rss_mib();
double children_peak_rss_mib();
// VmHWM of a live process from /proc/<pid>/status, in MiB; 0 if absent.
double process_peak_rss_mib(int pid);

}  // namespace perfbench
