#include "scanner/zgrab.h"

#include <cstdio>
#include <stdexcept>

#include "netbase/byteio.h"
#include "proto/http.h"
#include "proto/ssh.h"
#include "proto/tls.h"

namespace originscan::scan {
namespace {

// Classifies a connection that produced no usable data (or was reset
// right after the accept).
L7Result silent_result(const sim::Connection& connection) {
  L7Result result;
  if (connection.peer_reset()) {
    result.outcome = sim::L7Outcome::kResetAfterAccept;
  } else if (connection.peer_closed()) {
    result.outcome = sim::L7Outcome::kClosedBeforeData;
  } else {
    result.outcome = sim::L7Outcome::kReadTimeout;
  }
  result.explicit_close = connection.peer_reset() || connection.peer_closed();
  return result;
}

}  // namespace

bool is_retryable(sim::L7Outcome outcome) {
  switch (outcome) {
    case sim::L7Outcome::kConnectTimeout:
    case sim::L7Outcome::kResetAfterAccept:
    case sim::L7Outcome::kClosedBeforeData:
      return true;
    default:
      return false;
  }
}

net::VirtualTime RetryPolicy::backoff_before(int attempt) const {
  if (attempt <= 0) return {};
  double micros = static_cast<double>(initial_backoff.micros());
  for (int i = 1; i < attempt; ++i) micros *= backoff_multiplier;
  const double cap = static_cast<double>(max_backoff.micros());
  if (micros > cap) micros = cap;
  return net::VirtualTime::from_micros(static_cast<std::int64_t>(micros));
}

bool RetryPolicy::should_retry(sim::L7Outcome outcome) const {
  if (is_retryable(outcome)) return true;
  if (!retry_banner_failures) return false;
  switch (outcome) {
    case sim::L7Outcome::kReadTimeout:
    case sim::L7Outcome::kProtocolError:
    case sim::L7Outcome::kClosedMidHandshake:
      return true;
    default:
      return false;
  }
}

ZGrabEngine::ZGrabEngine(const ZGrabConfig& config, sim::Internet* internet,
                         sim::OriginId origin)
    : config_(config), internet_(internet), origin_(origin) {
  if (config_.retry.max_retries < 0) {
    throw std::invalid_argument("ZGrabEngine: max_retries must be >= 0, got " +
                                std::to_string(config_.retry.max_retries));
  }
  switch (config_.protocol) {
    case proto::Protocol::kHttp:
      proto::HttpRequest{}.write(client_flight_);
      break;
    case proto::Protocol::kHttps:
      proto::wrap_handshake(
          client_flight_, proto::TlsHandshakeType::kClientHello,
          [](auto& body) {
            proto::write_client_hello(body, proto::chrome_cipher_suites());
          });
      break;
    case proto::Protocol::kSsh:
      proto::SshIdentification{.software_version = "OpenSSH_7.9 originscan"}
          .write(client_flight_);
      break;
  }
}

L7Result ZGrabEngine::grab(net::Ipv4Addr src_ip, net::Ipv4Addr dst,
                           net::VirtualTime t) {
  const RetryPolicy& policy = config_.retry;
  L7Result result;
  int attempts_used = 0;
  for (int i = 0; i <= policy.max_retries; ++i) {
    if (i > 0) t += policy.backoff_before(i);
    result = attempt(src_ip, dst, t, i);
    attempts_used = i + 1;
    if (result.outcome == sim::L7Outcome::kCompleted ||
        !policy.should_retry(result.outcome)) {
      break;
    }
  }
  // Attempt accounting happens exactly once, here: a banner received on
  // the final retry reports attempts == max_retries + 1, never more
  // (the Section-6 MaxStartups histogram buckets on this value).
  result.attempts = attempts_used;
  if (config_.metrics != nullptr) {
    config_.metrics->add(obsv::Counter::kZgrabGrabs);
    config_.metrics->add(obsv::Counter::kZgrabRetries,
                         static_cast<std::uint64_t>(attempts_used - 1));
    config_.metrics->observe(obsv::Histogram::kZgrabAttempts,
                             static_cast<std::uint64_t>(attempts_used));
    if (result.outcome == sim::L7Outcome::kCompleted) {
      config_.metrics->add(obsv::Counter::kZgrabCompleted);
    }
  }
  return result;
}

L7Result ZGrabEngine::attempt(net::Ipv4Addr src_ip, net::Ipv4Addr dst,
                              net::VirtualTime t, int attempt_index) {
  current_dst_ = dst;
  current_attempt_ = attempt_index;
  L7Result result;
  if (config_.faults != nullptr &&
      config_.faults->l7_fault(dst, attempt_index) ==
          fault::FaultInjector::L7Fault::kRst) {
    // Injected mid-handshake RST: the peer accepts, then tears the
    // connection down before any application bytes. Preempts the
    // simulated connect so the fault leaves no trace in the sim's
    // deterministic draws (a recovered retry replays them untouched).
    result.outcome = sim::L7Outcome::kResetAfterAccept;
    result.explicit_close = true;
    if (config_.metrics != nullptr) {
      config_.metrics->add(obsv::Counter::kFaultConnectRst);
    }
    return result;
  }
  if (!internet_->connect(connection_, origin_, src_ip, dst, config_.protocol,
                          t, attempt_index)) {
    result.outcome = sim::L7Outcome::kConnectTimeout;
    if (config_.metrics != nullptr) {
      config_.metrics->add(obsv::Counter::kZgrabConnectFailures);
    }
    return result;
  }
  switch (config_.protocol) {
    case proto::Protocol::kHttp:
      return run_http();
    case proto::Protocol::kHttps:
      return run_tls();
    case proto::Protocol::kSsh:
      return run_ssh();
  }
  return result;
}

std::span<const std::uint8_t> ZGrabEngine::read_bytes() {
  const auto bytes = connection_.read();
  if (config_.faults == nullptr || bytes.empty()) return bytes;
  switch (config_.faults->l7_fault(current_dst_, current_attempt_)) {
    case fault::FaultInjector::L7Fault::kStall:
      // The server's flight never arrives; the read timer is our only
      // way out.
      if (config_.metrics != nullptr) {
        config_.metrics->add(obsv::Counter::kFaultBannerStall);
      }
      return {};
    case fault::FaultInjector::L7Fault::kTruncate:
      // Connection damaged mid-flight: only a prefix of the banner gets
      // through, which the protocol parsers must reject (not crash on).
      if (config_.metrics != nullptr) {
        config_.metrics->add(obsv::Counter::kFaultBannerTrunc);
      }
      return bytes.first(bytes.size() / 2);
    case fault::FaultInjector::L7Fault::kRst:
    case fault::FaultInjector::L7Fault::kNone:
      break;
  }
  return bytes;
}

L7Result ZGrabEngine::run_http() {
  if (connection_.peer_reset()) return silent_result(connection_);
  connection_.send(client_flight_);
  const auto bytes = read_bytes();
  if (bytes.empty()) return silent_result(connection_);
  L7Result result;
  const auto response = proto::HttpResponse::parse(net::as_text(bytes));
  if (!response || !response->valid()) {
    result.outcome = sim::L7Outcome::kProtocolError;
    result.explicit_close = connection_.peer_closed();
    return result;
  }
  result.outcome = sim::L7Outcome::kCompleted;
  result.banner = response->title;
  return result;
}

L7Result ZGrabEngine::run_tls() {
  if (connection_.peer_reset()) return silent_result(connection_);
  connection_.send(client_flight_);
  const auto bytes = read_bytes();
  if (bytes.empty()) return silent_result(connection_);

  // Walk the records in the server's flight; we need ServerHello,
  // Certificate, and ServerHelloDone to declare the grab complete.
  L7Result result;
  bool saw_server_hello = false;
  bool saw_certificate = false;
  bool saw_done = false;
  std::uint16_t suite = 0;
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    std::size_t consumed = 0;
    const auto record =
        proto::TlsRecord::parse(bytes.subspan(offset), consumed);
    if (!record) break;
    offset += consumed;
    if (record->content_type == proto::TlsContentType::kAlert) {
      result.outcome = sim::L7Outcome::kClosedMidHandshake;
      result.explicit_close = true;
      return result;
    }
    proto::HandshakeWalker messages(record->fragment);
    if (!messages.ok()) break;
    while (const auto message = messages.next()) {
      switch (message->type) {
        case proto::TlsHandshakeType::kServerHello:
          if (const auto hello = proto::ServerHello::parse(message->body)) {
            saw_server_hello = true;
            suite = hello->cipher_suite;
          }
          break;
        case proto::TlsHandshakeType::kCertificate:
          saw_certificate =
              proto::Certificate::parse(message->body).has_value();
          break;
        case proto::TlsHandshakeType::kServerHelloDone:
          saw_done = true;
          break;
        case proto::TlsHandshakeType::kClientHello:
          break;
      }
    }
  }
  if (saw_server_hello && saw_certificate && saw_done) {
    result.outcome = sim::L7Outcome::kCompleted;
    char buffer[8];
    std::snprintf(buffer, sizeof(buffer), "0x%04X", suite);
    result.banner = buffer;
    return result;
  }
  result.outcome = sim::L7Outcome::kProtocolError;
  return result;
}

L7Result ZGrabEngine::run_ssh() {
  if (connection_.peer_reset()) return silent_result(connection_);

  // The server speaks first; its identification string should already be
  // waiting.
  const auto bytes = read_bytes();
  if (bytes.empty()) return silent_result(connection_);
  L7Result result;
  const std::string_view banner_line = net::as_text(bytes);
  if (banner_line.find('\n') == std::string_view::npos) {
    // RFC 4253 identification is a line; a flight cut short of the
    // newline means the banner never completed (any "SSH-2.0-..."
    // prefix would otherwise parse as a bogus truncated version).
    result.outcome = sim::L7Outcome::kProtocolError;
    return result;
  }
  const auto server_id = proto::SshIdentification::parse(banner_line);
  if (!server_id) {
    result.outcome = sim::L7Outcome::kProtocolError;
    return result;
  }
  // Copy the banner out before sending: the server's reply reuses the
  // buffer it views.
  result.outcome = sim::L7Outcome::kCompleted;
  result.banner = server_id->software_version;

  // Send our identification; the study's partial handshake terminates
  // after the version exchange (Section 2).
  connection_.send(client_flight_);
  return result;
}

}  // namespace originscan::scan
