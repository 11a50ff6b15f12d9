// The host-generation kernel: one address's Host record as a pure
// function of (world seed, addr, AS, generation parameters). It is the
// only source of hosts: World::host_at and Internet::resolve_target
// both call it with the AS's World::host_params entry, in the scenario's
// override region, in the procedural space above it, and in hand-built
// worlds alike. Nothing caches its output, so the population behind an
// address is the same whichever caller asks.
//
// The draw order below is frozen: every bernoulli consumes generator
// state even when its outcome is unused, so reordering or short-
// circuiting any draw changes every world built from an existing seed.
#pragma once

#include <cstdint>
#include <optional>

#include "netbase/rng.h"
#include "proto/protocol.h"
#include "proto/ssh.h"
#include "sim/host.h"
#include "sim/types.h"

namespace originscan::sim {

// Per-AS generation parameters, fully resolved by the caller: scenario
// defaults vs per-AS overrides, and the per-AS flaky coin, are decided
// before this struct is built. World::host_params holds one per AS. The
// defaults describe the plainest population — every address hosts every
// service, always online, no middleboxes or MaxStartups — so hand-built
// worlds set only what differs.
struct HostGenParams {
  double density = 1.0;
  double http = 1.0;
  double https = 1.0;
  double ssh = 1.0;
  double middlebox_share = 0.0;
  double flaky_share = 0.0;  // 0 for the ~2/3 of ASes with no flaky hosts
  int flaky_live_percent = 55;
  double churny_share = 0.0;
  int churny_live_percent = 82;
  double maxstartups_share = 0.0;
  proto::MaxStartups maxstartups;  // the triple of MaxStartups hosts
};

// Derives the host behind `addr`, or nullopt when the address is empty
// (density miss, or no services and not a middlebox).
inline std::optional<Host> generate_host(std::uint64_t world_seed,
                                         std::uint32_t addr, AsId as,
                                         const HostGenParams& params) {
  net::Rng host_rng(net::mix_u64(world_seed, addr, 0x057u));
  if (!host_rng.bernoulli(params.density)) return std::nullopt;

  Host host;
  host.addr = net::Ipv4Addr(addr);
  host.as = as;
  host.seed = net::mix_u64(world_seed, addr, 0x5EEDu);
  if (host_rng.bernoulli(params.http)) host.services |= 1u << 0;
  if (host_rng.bernoulli(params.https)) host.services |= 1u << 1;
  if (host_rng.bernoulli(params.ssh)) host.services |= 1u << 2;
  host.middlebox = host_rng.bernoulli(params.middlebox_share);
  if (host.services == 0 && !host.middlebox) return std::nullopt;
  if (host_rng.bernoulli(params.flaky_share)) {
    host.flaky = true;
    host.live_percent = static_cast<std::uint8_t>(params.flaky_live_percent);
  } else if (host_rng.bernoulli(params.churny_share)) {
    host.live_percent = static_cast<std::uint8_t>(params.churny_live_percent);
  }
  if (host.runs(proto::Protocol::kSsh) &&
      host_rng.bernoulli(params.maxstartups_share)) {
    host.maxstartups_enabled = true;
    host.maxstartups = params.maxstartups;
  }
  return host;
}

}  // namespace originscan::sim
