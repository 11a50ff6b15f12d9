// The edge-host population: which addresses run which services, plus the
// per-host behaviours the paper observed (middleboxes that SYN-ACK but
// never complete L7; OpenSSH MaxStartups refusal; trial-to-trial churn).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

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

// Cap on the host table's direct map (addr -> row): 2^25 addresses, or
// 128 MiB of uint32 slots. Larger universes are procedural above the
// override region (ScenarioConfig::full_internet) and keep no host rows
// there.
inline constexpr std::uint64_t kDirectMapLimit = 1ull << 25;

class HostTable {
 public:
  void add(Host host) { hosts_.push_back(host); }

  // Sorts by address and builds the direct map. Duplicate addresses and
  // hosts at or above kDirectMapLimit are scenario bugs and abort.
  void freeze();

  [[nodiscard]] const Host* find(net::Ipv4Addr addr) const;
  [[nodiscard]] std::span<const Host> all() const { return hosts_; }
  [[nodiscard]] std::size_t size() const { return hosts_.size(); }

  // Whether the host is online during the given trial (deterministic in
  // (host seed, trial, experiment seed)).
  static bool live_in_trial(const Host& host, int trial,
                            std::uint64_t experiment_seed);

  // Count of hosts running a protocol (ignoring liveness).
  [[nodiscard]] std::size_t count_running(proto::Protocol p) const;

 private:
  std::vector<Host> hosts_;
  // addr -> index into hosts_ plus one (0 = no host), built by freeze().
  std::vector<std::uint32_t> direct_;
  bool frozen_ = false;
};

}  // namespace originscan::sim
