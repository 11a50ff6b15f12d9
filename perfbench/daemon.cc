#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "netbase/frame.h"
#include "netbase/rng.h"
#include "service/client.h"
#include "service/service.h"
#include "service/wire.h"

namespace perfbench {

using namespace originscan;

namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// Waits up to `timeout_s` for `pid` to exit; true (and *status set) if
// it did.
bool wait_exit(int pid, double timeout_s, int* status) {
  const auto t0 = Clock::now();
  for (;;) {
    const int got = ::waitpid(pid, status, WNOHANG);
    if (got == pid) return true;
    if (got < 0 && errno != EINTR) return true;  // already reaped
    if (seconds_since(t0) > timeout_s) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// Connects and completes HELLO; returns the connected fd or -1.
int connect_hello(const std::string& socket, std::string* error) {
  const int fd = service::connect_unix(socket, error);
  if (fd < 0) return -1;
  service::ServiceClient client(fd);
  if (!client.hello()) {
    *error = client.error();
    return -1;  // client closes the fd
  }
  return client.release();
}

}  // namespace

DaemonProcess::DaemonProcess(const Options& options,
                             std::uint64_t scenario_seed,
                             const std::string& socket_path)
    : socket_(socket_path) {
  ::unlink(socket_.c_str());
  const std::string log = socket_ + ".log";
  const std::vector<std::string> args = {
      options.originscan, "serve",
      "--socket", socket_,
      "--scale", std::to_string(kDaemonScale),
      "--seed", std::to_string(scenario_seed),
      "--executor-threads", std::to_string(kDaemonExecutors)};
  std::vector<char*> argv;
  for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const auto t0 = Clock::now();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // The server must not outlive the benchmark, even if it crashes.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) ::dup2(fd, STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  if (pid < 0) {
    error_ = std::string("fork failed: ") + std::strerror(errno);
    return;
  }
  pid_ = pid;
  // Ready = the first HELLO the server accepts.
  for (;;) {
    std::string error;
    const int fd = connect_hello(socket_, &error);
    if (fd >= 0) {
      ready_s_ = seconds_since(t0);
      ::close(fd);
      return;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      error_ = "server exited before accepting a connection (see " + log + ")";
      return;
    }
    if (seconds_since(t0) > 60) {
      error_ = "server not ready after 60 s: " + error;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

bool DaemonProcess::stop() {
  if (pid_ < 0) return false;
  std::string error;
  const int fd = connect_hello(socket_, &error);
  if (fd >= 0) {
    service::ServiceWire shutdown;
    shutdown.type = service::ServiceMsg::kShutdown;
    const auto frame = service::encode_service_message(shutdown);
    (void)!::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
    ::close(fd);
  }
  int status = 0;
  bool clean = false;
  if (wait_exit(pid_, 20.0, &status)) {
    clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  } else {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  ::unlink(socket_.c_str());
  ::unlink((socket_ + ".log").c_str());
  return clean;
}

DaemonProcess::~DaemonProcess() {
  if (pid_ >= 0) stop();
}

// ---- spec mix and oracle ---------------------------------------------------

service::SessionSpec SpecMix::at(std::uint64_t i) const {
  static constexpr std::string_view kOrigins[] = {"AU", "BR",  "DE", "JP",
                                                  "US1", "US64", "CEN"};
  const std::uint64_t draw = net::mix_u64(
      mix_seed, tenant_of(i), static_cast<std::uint32_t>(i / kDaemonTenants));
  service::SessionSpec spec;
  spec.origin_code = kOrigins[draw % std::size(kOrigins)];
  spec.protocol =
      proto::kAllProtocols[(draw >> 8) % proto::kAllProtocols.size()];
  spec.trial = static_cast<int>((draw >> 16) % 3) + 1;
  spec.probes = static_cast<int>((draw >> 24) % 2) + 1;
  spec.retries = static_cast<int>((draw >> 32) % 2);
  return spec;
}

std::string spec_key(const service::SessionSpec& spec) {
  return spec.origin_code + "/" + std::string(proto::name_of(spec.protocol)) +
         "/t" + std::to_string(spec.trial) + "/p" +
         std::to_string(spec.probes) + "/r" + std::to_string(spec.retries);
}

SessionOracle::SessionOracle(std::uint64_t scenario_seed) {
  sim::ScenarioConfig scenario = sim::ScenarioConfig::test_scale();
  scenario.universe_size = 1u << kDaemonScale;
  scenario.seed = scenario_seed;
  const auto t0 = Clock::now();
  universe_ = std::make_unique<service::FrozenUniverse>(scenario);
  build_s_ = seconds_since(t0);
}

const std::vector<std::uint8_t>& SessionOracle::bytes(
    const service::SessionSpec& spec) {
  const std::string key = spec_key(spec);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    const auto t0 = Clock::now();
    service::SessionOutcome outcome = service::run_session(*universe_, spec);
    Entry entry;
    entry.ms = seconds_since(t0) * 1e3;
    if (outcome.ok) entry.bytes = std::move(outcome.records);
    it = entries_.emplace(key, std::move(entry)).first;
  }
  return it->second.bytes;
}

double SessionOracle::session_ms(const std::string& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? 0.0 : it->second.ms;
}

void ResultLedger::add(const service::SessionSpec& spec,
                       std::vector<std::uint8_t> bytes) {
  ++answers_;
  Group& group = by_key_[spec_key(spec)];
  group.spec = spec;
  for (Variant& variant : group.variants) {
    if (variant.bytes == bytes) {
      ++variant.count;
      return;
    }
  }
  group.variants.push_back({std::move(bytes), 1});
}

std::uint64_t ResultLedger::verify(SessionOracle& oracle) {
  std::uint64_t mismatched = 0;
  for (const auto& [key, group] : by_key_) {
    const std::vector<std::uint8_t>& expected = oracle.bytes(group.spec);
    for (const Variant& variant : group.variants) {
      if (expected.empty() || variant.bytes != expected) {
        mismatched += variant.count;
      }
    }
  }
  return mismatched;
}

// ---- the generator ------------------------------------------------------------

namespace {

struct Conn {
  int fd = -1;
  net::FrameDecoder decoder;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
};

struct Pending {
  std::size_t index = 0;  // into due_s
  Clock::time_point due;
};

}  // namespace

DaemonPhase drive_daemon(const std::string& socket, const SpecMix& mix,
                         std::uint64_t first_id,
                         const std::vector<double>& due_s,
                         ResultLedger& results, Tracer* tracer) {
  DaemonPhase phase;
  phase.attempted = due_s.size();
  std::vector<Conn> conns(kDaemonConnections);
  for (Conn& conn : conns) {
    std::string error;
    conn.fd = connect_hello(socket, &error);
    if (conn.fd < 0 || !set_nonblocking(conn.fd)) {
      phase.error = "connect failed: " + error;
      for (Conn& c : conns) {
        if (c.fd >= 0) ::close(c.fd);
      }
      return phase;
    }
  }

  std::unordered_map<std::uint64_t, Pending> pending;
  const auto t0 = Clock::now();
  Clock::time_point last_answer = t0;
  std::size_t next = 0;
  constexpr double kTimeoutS = 120;
  while (phase.answered < phase.attempted && phase.error.empty()) {
    // Send everything that is due.
    const auto now = Clock::now();
    while (next < due_s.size() &&
           t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due_s[next])) <=
               now) {
      const std::uint64_t id = first_id + next;
      const service::SessionSpec spec = mix.at(id);
      service::ServiceWire submit;
      submit.type = service::ServiceMsg::kSubmit;
      submit.request_id = id + 1;
      submit.tenant = SpecMix::tenant_of(id);
      submit.origin_code = spec.origin_code;
      submit.protocol = spec.protocol;
      submit.trial = static_cast<std::uint8_t>(spec.trial);
      submit.probes = static_cast<std::uint8_t>(spec.probes);
      submit.retries = static_cast<std::uint8_t>(spec.retries);
      const auto frame = service::encode_service_message(submit);
      Conn& conn = conns[submit.tenant % conns.size()];
      conn.out.insert(conn.out.end(), frame.begin(), frame.end());
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(due_s[next]));
      pending.emplace(submit.request_id, Pending{next, due});
      phase.gen_late_ms.push_back(seconds_between(due, now) * 1e3);
      ++next;
    }
    if (seconds_since(t0) > kTimeoutS) {
      phase.error = "requests unanswered after " +
                    std::to_string(static_cast<int>(kTimeoutS)) + " s";
      break;
    }

    std::vector<pollfd> fds;
    for (Conn& conn : conns) {
      short events = POLLIN;
      if (conn.out_off < conn.out.size()) events |= POLLOUT;
      fds.push_back({conn.fd, events, 0});
    }
    // Sleep until the next request is due (or an answer arrives).
    timespec timeout{0, 50'000'000};
    if (next < due_s.size()) {
      const double wait = std::max(
          0.0, due_s[next] - seconds_between(t0, Clock::now()));
      timeout.tv_sec = static_cast<time_t>(wait);
      timeout.tv_nsec = static_cast<long>((wait - timeout.tv_sec) * 1e9);
    }
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0) {
      if (errno == EINTR) continue;
      phase.error = "poll failed";
      break;
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      Conn& conn = conns[c];
      if (fds[c].revents & POLLOUT) {
        while (conn.out_off < conn.out.size()) {
          const ssize_t n =
              ::send(conn.fd, conn.out.data() + conn.out_off,
                     conn.out.size() - conn.out_off, MSG_NOSIGNAL);
          if (n > 0) {
            conn.out_off += static_cast<std::size_t>(n);
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          phase.error = "send failed";
          break;
        }
        if (conn.out_off == conn.out.size()) {
          conn.out.clear();
          conn.out_off = 0;
        }
      }
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      std::uint8_t buffer[1 << 16];
      for (;;) {
        const ssize_t n = ::recv(conn.fd, buffer, sizeof buffer, 0);
        if (n > 0) {
          conn.decoder.feed(std::span(buffer, static_cast<std::size_t>(n)));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        phase.error = "daemon closed a connection";
        break;
      }
      const auto answered_at = Clock::now();
      while (auto payload = conn.decoder.next()) {
        auto message = service::decode_service_message(*payload);
        if (!message) {
          phase.error = "undecodable daemon message";
          break;
        }
        if (message->type == service::ServiceMsg::kStatus) continue;
        const auto it = pending.find(message->request_id);
        if (it == pending.end()) continue;
        const Pending request = it->second;
        pending.erase(it);
        ++phase.answered;
        last_answer = answered_at;
        if (message->type != service::ServiceMsg::kResult) {
          ++phase.refused;
          continue;
        }
        const service::SessionSpec spec = mix.at(first_id + request.index);
        phase.latency_ms.push_back(
            seconds_between(request.due, answered_at) * 1e3);
        phase.keys.push_back(spec_key(spec));
        if (tracer != nullptr) {
          tracer->record("service.request", request.due, answered_at,
                         static_cast<int>(c));
        }
        results.add(spec, std::move(message->records));
      }
      if (conn.decoder.error() != net::FrameError::kNone) {
        phase.error = "framing error from daemon";
      }
    }
  }
  phase.drain_s = seconds_between(t0, last_answer);
  for (Conn& conn : conns) ::close(conn.fd);
  return phase;
}

}  // namespace perfbench
