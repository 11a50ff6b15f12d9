// The application-layer handshake engine (ZGrab analog): drives the
// client half of HTTP, TLS, or SSH over a simulated TCP connection and
// classifies the outcome. Supports the retry ladder used by the paper's
// Section-6 experiment (re-trying failed SSH handshakes recovers
// MaxStartups-refused hosts).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "faultinject/faultinject.h"
#include "netbase/ipv4.h"
#include "netbase/vtime.h"
#include "obsv/metrics.h"
#include "proto/protocol.h"
#include "sim/internet.h"
#include "sim/types.h"

namespace originscan::scan {

// When and how the engine re-tries a failed handshake. Backoff runs on
// the virtual clock: retry k (1-based) starts backoff_before(k) after
// attempt k-1 ended, following a capped exponential ladder: 1 s,
// doubling per retry, capped at 8 s.
struct RetryPolicy {
  // Total handshake attempts = 1 + max_retries. Only retryable failures
  // consume retries.
  int max_retries = 0;
  // The base retryable set covers transport-level failures (connect
  // timeout, reset, close before data). With this flag the engine also
  // re-tries banner-level failures — read timeouts, truncated/garbled
  // banners (kProtocolError), and mid-handshake closes — which is what
  // lets it recover from injected banner_trunc/banner_stall faults.
  bool retry_banner_failures = false;

  // Virtual-time gap between attempt `attempt - 1` and attempt `attempt`
  // (attempt >= 1): 1 s * 2^(attempt-1), capped at 8 s.
  [[nodiscard]] static net::VirtualTime backoff_before(int attempt);

  [[nodiscard]] bool should_retry(sim::L7Outcome outcome) const;
};

struct ZGrabConfig {
  proto::Protocol protocol = proto::Protocol::kHttp;
  RetryPolicy retry;
  // Deterministic L7 fault injection (core/faultinject layer):
  // mid-handshake resets, truncated banners, stalled banners. Null = no
  // faults.
  const fault::FaultInjector* faults = nullptr;
  // Single-writer metric block for this engine's lane (zgrab.* counters,
  // the attempts histogram, and the L7 fault-point counters). Null (the
  // default) disables observability at zero cost.
  obsv::MetricBlock* metrics = nullptr;
};

struct L7Result {
  sim::L7Outcome outcome = sim::L7Outcome::kNotAttempted;
  // HTTP: page title; TLS: negotiated suite as hex string; SSH: server
  // software version.
  std::string banner;
  bool explicit_close = false;  // peer RST/FIN rather than silence
  // Number of handshake attempts actually performed (1-based; a banner
  // received on the final retry reports exactly max_retries + 1, counted
  // once — this value feeds the Section-6 attempt histogram).
  int attempts = 0;
};

class ZGrabEngine {
 public:
  // Throws std::invalid_argument when config.retry.max_retries < 0 (a
  // negative count would skip every handshake).
  ZGrabEngine(const ZGrabConfig& config, sim::Internet* internet,
              sim::OriginId origin);

  // Performs the handshake (with retries) starting at virtual time `t`.
  L7Result grab(net::Ipv4Addr src_ip, net::Ipv4Addr dst, net::VirtualTime t);

 private:
  L7Result attempt(net::Ipv4Addr src_ip, net::Ipv4Addr dst,
                   net::VirtualTime t, int attempt_index);

  // Drains the server's pending flight, applying any injected banner
  // fault for the current (dst, attempt) context: a stall swallows the
  // bytes (read timeout); a truncation keeps only the first half, which
  // the protocol parsers then reject. The span views the connection's
  // buffer (valid until its next send or read).
  std::span<const std::uint8_t> read_bytes();

  L7Result run_http();
  L7Result run_tls();
  L7Result run_ssh();

  ZGrabConfig config_;
  sim::Internet* internet_;
  sim::OriginId origin_;
  // The client's flight, the same for every grab: the GET request, the
  // ClientHello record, or the SSH identification line.
  std::vector<std::uint8_t> client_flight_;
  // Refilled by every attempt's connect.
  sim::Connection connection_;
  // Context of the attempt in flight, consulted by the fault hooks.
  net::Ipv4Addr current_dst_;
  int current_attempt_ = 0;
};

// Whether a failed attempt is worth retrying under the base policy (the
// connection was refused or reset, as opposed to e.g. a protocol
// mismatch). Equivalent to RetryPolicy{.retry_banner_failures = false}.
bool is_retryable(sim::L7Outcome outcome);

}  // namespace originscan::scan
