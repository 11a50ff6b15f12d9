// The traced run's daemon and its client side: a real `originscan serve`
// process, the loadgen's spec mix, a single-threaded open-loop generator
// over a few multiplexed connections, and the run_session oracle every
// RESULT is byte-compared against.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "service/session.h"

namespace perfbench {

// A daemon started as `originscan serve` on a unix socket. The
// destructor shuts it down (SHUTDOWN, then SIGKILL after a grace period)
// and reaps it, so no server outlives the benchmark.
class DaemonProcess {
 public:
  DaemonProcess(const Options& options, std::uint64_t scenario_seed,
                const std::string& socket_path);
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  // Seconds from spawn to the first accepted HELLO; < 0 on failure.
  [[nodiscard]] double ready_s() const { return ready_s_; }
  [[nodiscard]] bool ok() const { return ready_s_ >= 0; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] const std::string& socket_path() const { return socket_; }
  // Drain-and-exit; true when the server exited with status 0.
  bool stop();

 private:
  int pid_ = -1;
  std::string socket_;
  double ready_s_ = -1;
  std::string error_;
};

// The loadgen's request mix (service/loadgen.cc spec_for): request i is
// tenant i % 64's (i / 64)-th request, its spec a pure function of
// (mix_seed, tenant, index).
struct SpecMix {
  std::uint64_t mix_seed = 1;
  [[nodiscard]] originscan::service::SessionSpec at(std::uint64_t i) const;
  [[nodiscard]] static std::uint32_t tenant_of(std::uint64_t i) {
    return static_cast<std::uint32_t>(i % kDaemonTenants);
  }
};
std::string spec_key(const originscan::service::SessionSpec& spec);

// run_session on an in-process universe built like the daemon's:
// reference RESULT bytes and the direct (uncontended) session time per
// spec, computed once per distinct spec.
class SessionOracle {
 public:
  explicit SessionOracle(std::uint64_t scenario_seed);
  [[nodiscard]] double build_s() const { return build_s_; }
  const std::vector<std::uint8_t>& bytes(
      const originscan::service::SessionSpec& spec);
  // Direct session time of an already-computed spec, in ms.
  [[nodiscard]] double session_ms(const std::string& key) const;
  [[nodiscard]] const originscan::service::FrozenUniverse& universe() const {
    return *universe_;
  }

 private:
  struct Entry {
    std::vector<std::uint8_t> bytes;
    double ms = 0;
  };
  double build_s_ = 0;
  std::unique_ptr<originscan::service::FrozenUniverse> universe_;
  std::map<std::string, Entry> entries_;
};

// Every RESULT the daemon returned, grouped by spec and by distinct byte
// content, for one byte-comparison per distinct answer afterwards.
class ResultLedger {
 public:
  void add(const originscan::service::SessionSpec& spec,
           std::vector<std::uint8_t> bytes);
  // Compares every distinct answer with the oracle; returns the number
  // of RESULTs whose bytes differ.
  std::uint64_t verify(SessionOracle& oracle);
  [[nodiscard]] std::uint64_t answers() const { return answers_; }
  [[nodiscard]] std::size_t distinct() const { return by_key_.size(); }

 private:
  struct Variant {
    std::vector<std::uint8_t> bytes;
    std::uint64_t count = 0;
  };
  struct Group {
    originscan::service::SessionSpec spec;
    std::vector<Variant> variants;
  };
  std::map<std::string, Group> by_key_;
  std::uint64_t answers_ = 0;
};

// One phase against a daemon: request `first_id + k` of the mix becomes
// due `due_s[k]` seconds after the phase starts and is sent then (open
// loop; all-zero offsets make a backlog submitted at once). Latency is
// timed from the due time.
struct DaemonPhase {
  std::uint64_t attempted = 0;
  std::uint64_t answered = 0;          // RESULT or ERROR received
  std::uint64_t refused = 0;           // ERROR answers
  std::vector<double> latency_ms;      // answer - due, per RESULT
  std::vector<double> gen_late_ms;     // sent - due, per request
  std::vector<std::string> keys;       // spec key per latency sample
  double drain_s = 0;                  // phase start -> last answer
  std::string error;
};
DaemonPhase drive_daemon(const std::string& socket, const SpecMix& mix,
                         std::uint64_t first_id,
                         const std::vector<double>& due_s,
                         ResultLedger& results, Tracer* tracer);

}  // namespace perfbench
