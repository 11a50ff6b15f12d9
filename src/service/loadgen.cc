#include "service/loadgen.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <map>
#include <thread>
#include <unordered_map>
#include <vector>

#include "netbase/rng.h"
#include "service/client.h"

namespace originscan::service {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::microseconds>(b - a).count();
}

// The spec mix: a pure function of (mix_seed, tenant, index), so the
// verification pass can regenerate exactly what each tenant submitted.
// Small universes ship a fixed origin roster; draw from the codes every
// scenario defines.
SessionSpec spec_for(std::uint64_t mix_seed, std::uint32_t tenant,
                     std::uint32_t index) {
  static constexpr std::string_view kOrigins[] = {"AU", "BR",  "DE", "JP",
                                                  "US1", "US64", "CEN"};
  const std::uint64_t draw = net::mix_u64(mix_seed, tenant, index);
  SessionSpec spec;
  spec.origin_code = kOrigins[draw % std::size(kOrigins)];
  spec.protocol = proto::kAllProtocols[(draw >> 8) % proto::kAllProtocols.size()];
  spec.trial = static_cast<int>((draw >> 16) % 3) + 1;
  spec.probes = static_cast<int>((draw >> 24) % 2) + 1;
  spec.retries = static_cast<int>((draw >> 32) % 2);
  return spec;
}

// A stable key identifying a spec (the dedup unit for verification).
std::string spec_key(const SessionSpec& spec) {
  return spec.origin_code + "/" +
         std::to_string(static_cast<int>(spec.protocol)) + "/t" +
         std::to_string(spec.trial) + "/p" + std::to_string(spec.probes) +
         "/r" + std::to_string(spec.retries);
}

struct PendingRequest {
  std::uint32_t tenant = 0;
  std::uint32_t index = 0;
  Clock::time_point submitted;
};

// One multiplexed client connection in the replay poll loop.
struct LoadConn {
  net::FrameStream stream;
  std::unordered_map<std::uint64_t, PendingRequest> pending;
};

}  // namespace

LoadgenReport run_loadgen(const ServiceConfig& service,
                          const LoadgenOptions& options) {
  LoadgenReport report;
  const std::uint32_t tenants = std::max<std::uint32_t>(1, options.tenants);
  const std::uint32_t per_tenant =
      std::max<std::uint32_t>(1, options.requests_per_tenant);
  const std::uint32_t conn_count = std::max<std::uint32_t>(
      1, std::min(options.connections, tenants));
  report.requests = std::uint64_t{tenants} * per_tenant;

  Originscand daemon(service);

  // Socketpair transports: server ends go to serve() preconnected, the
  // client ends stay here.
  std::vector<int> server_fds;
  std::vector<LoadConn> conns(conn_count);
  for (std::uint32_t i = 0; i < conn_count; ++i) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      report.error = "socketpair failed";
      for (int fd : server_fds) ::close(fd);
      return report;
    }
    conns[i].stream = net::FrameStream(sv[0]);
    server_fds.push_back(sv[1]);
  }

  std::thread serve_thread(
      [&daemon, server_fds] { daemon.serve(-1, server_fds); });

  const auto t0 = Clock::now();

  // Handshake each connection (blocking fds, daemon already serving),
  // then hand the fd to the nonblocking replay loop.
  for (auto& conn : conns) {
    ServiceClient client(conn.stream.release());
    const bool ok = client.hello();
    conn.stream = net::FrameStream(client.release());
    if (!ok) {
      report.error = "handshake failed: " + client.error();
      break;
    }
    net::set_nonblocking(conn.stream.fd());
  }

  std::vector<std::int64_t> latencies;
  std::map<std::string, std::vector<std::uint8_t>> result_bytes_by_spec;
  std::map<std::string, SessionSpec> specs_by_key;
  std::uint64_t answered = 0;

  if (report.error.empty()) {
    // Queue every SUBMIT up front: request_id encodes (tenant, index) so
    // answers map back without extra state; tenant t rides connection
    // t % conn_count.
    for (std::uint32_t t = 0; t < tenants; ++t) {
      LoadConn& conn = conns[t % conn_count];
      for (std::uint32_t i = 0; i < per_tenant; ++i) {
        const std::uint64_t request_id = std::uint64_t{t} * per_tenant + i + 1;
        ServiceWire submit;
        submit.type = ServiceMsg::kSubmit;
        submit.request_id = request_id;
        submit.tenant = t;
        const SessionSpec spec = spec_for(options.mix_seed, t, i);
        submit.origin_code = spec.origin_code;
        submit.protocol = spec.protocol;
        submit.trial = static_cast<std::uint8_t>(spec.trial);
        submit.probes = static_cast<std::uint8_t>(spec.probes);
        submit.retries = static_cast<std::uint8_t>(spec.retries);
        conn.stream.queue(encode_service_message(submit));
        conn.pending.emplace(request_id, PendingRequest{t, i, Clock::now()});
        specs_by_key.try_emplace(spec_key(spec), spec);
      }
    }

    // Single-threaded replay loop: flush SUBMITs as the daemon drains
    // them, collect STATUS/RESULT/ERROR answers as they arrive.
    latencies.reserve(report.requests);
    while (answered < report.requests && report.error.empty()) {
      std::vector<pollfd> fds;
      for (auto& conn : conns) {
        short events = POLLIN;
        if (conn.stream.flush_pending()) events |= POLLOUT;
        fds.push_back({conn.stream.fd(), events, 0});
      }
      if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), 1000) < 0) {
        if (errno == EINTR) continue;
        report.error = "poll failed";
        break;
      }
      for (std::size_t c = 0; c < conns.size(); ++c) {
        LoadConn& conn = conns[c];
        if ((fds[c].revents & POLLOUT) &&
            conn.stream.flush() == net::FrameStream::Io::kClosed) {
          report.error = "send failed mid-replay";
        }
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        if (!conn.stream.fill()) {
          report.error = "server connection dropped mid-replay";
        }
        while (auto payload = conn.stream.next()) {
          const auto message = decode_service_message(*payload);
          if (!message) {
            report.error = "undecodable server message";
            break;
          }
          if (message->type == ServiceMsg::kStatus) continue;  // SUBMIT ack
          const auto it = conn.pending.find(message->request_id);
          if (it == conn.pending.end()) continue;
          const PendingRequest pending = it->second;
          conn.pending.erase(it);
          ++answered;
          latencies.push_back(micros_between(pending.submitted, Clock::now()));
          if (message->type == ServiceMsg::kResult) {
            ++report.completed;
            const SessionSpec spec =
                spec_for(options.mix_seed, pending.tenant, pending.index);
            const std::string key = spec_key(spec);
            auto [slot, inserted] =
                result_bytes_by_spec.try_emplace(key, message->records);
            if (!inserted && slot->second != message->records) {
              // Two tenants submitted the same spec but got different
              // bytes — the isolation claim is already broken.
              ++report.byte_mismatches;
            }
          } else {
            ++report.rejected;
            if (report.error.empty()) {
              report.error = "request refused: " +
                             std::string(service_error_name(message->error)) +
                             " (" + message->text + ")";
            }
          }
        }
        if (conn.stream.error() != net::FrameError::kNone) {
          report.error = "framing error from server";
        }
      }
    }
  }

  // Drain-and-exit, then join the daemon before touching its metrics.
  {
    ServiceWire shutdown;
    shutdown.type = ServiceMsg::kShutdown;
    if (!conns.empty() && conns[0].stream.fd() >= 0) {
      conns[0].stream.queue(encode_service_message(shutdown));
      (void)conns[0].stream.flush();
    }
  }
  daemon.request_stop();
  serve_thread.join();
  conns.clear();

  report.wall_us = micros_between(t0, Clock::now());
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    report.p50_us = latencies[latencies.size() / 2];
    report.p99_us = latencies[(latencies.size() * 99) / 100];
    report.max_us = latencies.back();
  }
  report.distinct_specs = result_bytes_by_spec.size();

  // Byte-identity oracle: replay each distinct spec through a direct,
  // serial, single-session run against a freshly built universe — the
  // exact work `originscan scan` would do — and compare bytes.
  if (options.verify && report.error.empty()) {
    FrozenUniverse solo_universe(service.scenario);
    for (const auto& [key, bytes] : result_bytes_by_spec) {
      const auto spec_it = specs_by_key.find(key);
      if (spec_it == specs_by_key.end()) continue;
      const SessionOutcome solo = run_session(solo_universe, spec_it->second);
      ++report.verified_specs;
      if (!solo.ok || solo.records != bytes) {
        ++report.byte_mismatches;
        if (report.error.empty()) {
          report.error = "byte mismatch vs direct run for spec " + key;
        }
      }
    }
  }

  if (report.error.empty() && answered == report.requests &&
      report.byte_mismatches == 0 && report.rejected == 0) {
    report.ok = true;
  } else if (report.error.empty()) {
    report.error = "incomplete replay";
  }
  return report;
}

std::string loadgen_report_json(const LoadgenReport& report) {
  std::string json = "{\n";
  const auto field = [&json](std::string_view name, std::uint64_t value,
                             bool last = false) {
    json += "  \"";
    json += name;
    json += "\": ";
    json += std::to_string(value);
    json += last ? "\n" : ",\n";
  };
  field("loadgen_requests", report.requests);
  field("loadgen_completed", report.completed);
  field("loadgen_rejected", report.rejected);
  field("loadgen_distinct_specs", report.distinct_specs);
  field("loadgen_verified_specs", report.verified_specs);
  field("loadgen_byte_mismatches", report.byte_mismatches);
  field("loadgen_p50_us", static_cast<std::uint64_t>(report.p50_us));
  field("loadgen_p99_us", static_cast<std::uint64_t>(report.p99_us));
  field("loadgen_max_us", static_cast<std::uint64_t>(report.max_us));
  field("loadgen_wall_us", static_cast<std::uint64_t>(report.wall_us), true);
  json += "}\n";
  return json;
}

}  // namespace originscan::service
