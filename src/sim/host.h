// The edge-host record: which services an address runs, plus the
// per-host behaviours the paper observed (middleboxes that SYN-ACK but
// never complete L7; OpenSSH MaxStartups refusal; trial-to-trial churn).
// No world stores hosts: World::host_at derives each one on demand
// (generate_host, hostgen.h).
#pragma once

#include <cstdint>

#include "netbase/ipv4.h"
#include "proto/protocol.h"
#include "proto/ssh.h"
#include "sim/types.h"

namespace originscan::sim {

struct Host {
  net::Ipv4Addr addr;
  AsId as = kNoAs;

  // Bitmask over proto::Protocol (1 << index_of(p)).
  std::uint8_t services = 0;

  // A middlebox/DDoS-protection front end: responds SYN-ACK on any
  // scanned port but never completes an application handshake. These
  // hosts exist so the "restrict ground truth to L7 completions"
  // methodology has something to filter out.
  bool middlebox = false;

  // OpenSSH MaxStartups enabled on this host's SSH daemon.
  bool maxstartups_enabled = false;
  proto::MaxStartups maxstartups;

  // Probability (percent) that the host is online in any given trial;
  // models temporal churn, the source of the paper's "unknown" hosts.
  std::uint8_t live_percent = 100;

  // Marginal connectivity: when live, the host still fails to answer a
  // given origin in a given trial with World::flaky_miss_probability
  // (both probes and the L7 connect look dead together). These hosts
  // supply the paper's single-trial "unknown" population and part of the
  // transient churn.
  bool flaky = false;

  // Per-host deterministic substream seed.
  std::uint64_t seed = 0;

  [[nodiscard]] bool runs(proto::Protocol p) const {
    return (services & (1u << proto::index_of(p))) != 0;
  }
};

// Whether the host is online during the given trial (deterministic in
// (host seed, trial, experiment seed)).
[[nodiscard]] bool live_in_trial(const Host& host, int trial,
                                 std::uint64_t experiment_seed);

}  // namespace originscan::sim
