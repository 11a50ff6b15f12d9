#include "util.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::size_t nearest_rank(std::size_t n, double p) {
  // The epsilon keeps p * n that is whole in exact arithmetic (99.9% of
  // 10000) from rounding up to the next rank.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty() || !(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile: empty sample or p outside (0,100]");
  }
  const std::size_t rank = nearest_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

double highest_supported_percentile(std::size_t n, std::size_t min_beyond) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (n > 0 && samples_beyond(n, p) >= min_beyond) return p;
  }
  return 0.0;
}

std::vector<double> poisson_arrivals(std::uint64_t seed, double rate_per_s,
                                     std::size_t count) {
  std::vector<double> due;
  if (!(rate_per_s > 0.0)) return due;
  std::uint64_t state = seed ^ 0x0A77A1ULL;
  double t = 0.0;
  while (due.size() < count) {
    // 53 random bits -> u in (0, 1]; exponential gap -ln(u) / rate.
    const double u =
        static_cast<double>((splitmix64(state) >> 11) + 1) * 0x1.0p-53;
    t += -std::log(u) / rate_per_s;
    due.push_back(t);
  }
  return due;
}

double host_probe_s() {
  static std::atomic<std::uint64_t> sink{0};
  constexpr int kHashSteps = 12'000'000;
  constexpr std::size_t kSortSize = std::size_t{1} << 18;  // 2 MiB of u64
  constexpr int kSorts = 3;
  // Allocated and touched once, outside the timing: what a page fault
  // costs depends on the process's allocation history, not on the host.
  static std::vector<std::vector<std::uint64_t>> buffers(
      kProbeThreads, std::vector<std::uint64_t>(kSortSize, 1));
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kProbeThreads; ++t) {
    threads.emplace_back([t] {
      std::uint64_t state = 0x9E3779B97F4A7C15ULL * static_cast<unsigned>(t + 1);
      std::uint64_t acc = 0;
      // Hashing with a branch the predictor cannot learn.
      for (int i = 0; i < kHashSteps; ++i) {
        const std::uint64_t x = splitmix64(state);
        if ((x & 7) < 3) {
          acc += x >> 3;
        } else {
          acc ^= x * 3;
        }
      }
      // Sorting random keys: compares, moves and L2/L3 traffic.
      std::vector<std::uint64_t>& keys = buffers[static_cast<std::size_t>(t)];
      for (int r = 0; r < kSorts; ++r) {
        for (std::uint64_t& key : keys) key = splitmix64(state);
        std::sort(keys.begin(), keys.end());
        acc += keys[kSortSize / 2];
      }
      sink.fetch_xor(acc, std::memory_order_relaxed);
    });
  }
  for (std::thread& thread : threads) thread.join();
  return seconds_since(t0);
}

std::vector<double> host_normalised(const std::vector<double>& raw,
                                    const std::vector<double>& probes,
                                    double elasticity) {
  if (probes.size() != raw.size()) {
    throw std::invalid_argument("host_normalised: one probe per pass");
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const double before = probes[i == 0 ? 0 : i - 1];
    const double probe = std::sqrt(before * probes[i]);
    out.push_back(raw[i] *
                  std::pow(kProbeReferenceS / probe, elasticity));
  }
  return out;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
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

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    // JSON has no NaN/Inf; a metric that could not be measured is 0.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof value, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + json_escape(metrics[i].name) + "\": {\"value\": " + value +
           ", \"unit\": \"" + json_escape(metrics[i].unit) + "\"}";
  }
  out += "}}";
  return out;
}

HostStamp host_stamp(const std::string& build_type,
                     const std::string& compiler, const std::string& commit) {
  HostStamp stamp;
  stamp.nproc = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        stamp.cpu_model = line.substr(line.find_first_not_of(" \t", colon + 1));
      }
      break;
    }
  }
  if (stamp.cpu_model.empty()) stamp.cpu_model = "unknown";
  stamp.build_type = build_type;
  stamp.compiler = compiler;
  stamp.commit = commit.empty() ? "unknown" : commit;
  return stamp;
}

std::string host_stamp_json(const HostStamp& stamp) {
  return "{\"nproc\": " + std::to_string(stamp.nproc) + ", \"cpu_model\": \"" +
         json_escape(stamp.cpu_model) + "\", \"build_type\": \"" +
         json_escape(stamp.build_type) + "\", \"compiler\": \"" +
         json_escape(stamp.compiler) + "\", \"commit\": \"" +
         json_escape(stamp.commit) + "\"}";
}

double self_peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double children_peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double process_peak_rss_mib(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

}  // namespace perfbench
