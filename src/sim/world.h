// The immutable product of scenario construction: everything about the
// simulated Internet that does not change between trials.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "proto/ssh.h"
#include "sim/host.h"
#include "sim/hostgen.h"
#include "sim/origin.h"
#include "sim/outage.h"
#include "sim/path.h"
#include "sim/policy.h"
#include "sim/procedural.h"
#include "sim/topology.h"

namespace originscan::sim {

struct MaxStartupsConfig {
  // Expected number of *background* unauthenticated connections open on a
  // MaxStartups host when a scanner arrives (Poisson mean).
  double background_load_mean = 6.0;
  // Probability that another synchronized origin's connection is still
  // open ("concurrent") when this origin's attempt lands.
  double concurrent_origin_probability = 0.85;
  // Per-retry decay of concurrency: retries happen after the synchronized
  // burst has passed, so each retry sees fewer open connections.
  double retry_load_decay = 0.55;
};

struct World {
  Topology topology;
  // Host-generation parameters of every AS, indexed by AsId (one entry
  // per topology AS): the whole description of the host population.
  std::vector<HostGenParams> host_params;
  // Lazy seed-derived facts for addresses above the override region;
  // disabled (and ignored) for plain materialized scenarios. Use
  // block_facts and the as_of/country_of/host_at helpers below rather
  // than the tables directly so both kinds of world resolve identically.
  ProceduralWorld procedural;
  std::vector<OriginSpec> origins;
  PathTable paths;
  PolicyConfig policies;
  OutageConfig outages;
  MaxStartupsConfig maxstartups;

  // Probability that a flaky host ignores one origin for one trial.
  double flaky_miss_probability = 0.30;

  // Ablation: replace every Gilbert-Elliott process by uniform random
  // loss with the same stationary rate (the assumption behind ZMap's
  // original coverage estimate, which the paper refutes).
  bool uniform_random_loss = false;

  std::uint64_t seed = 0;
  // Scanned addresses are [0, universe_size); origin source IPs must lie
  // outside this range.
  std::uint32_t universe_size = 0;

  [[nodiscard]] OriginId origin_id(std::string_view code) const {
    for (std::size_t i = 0; i < origins.size(); ++i) {
      if (origins[i].code == code) return static_cast<OriginId>(i);
    }
    return ~OriginId{0};
  }

  // The one facts lookup: the facts of /24 block `block` (= addr >> 8),
  // derived above the procedural boundary and read from the topology's
  // per-/24 table below it. Internet::resolve_target (the step the probe
  // hot loop takes per target) calls it once per address; collectors and
  // analysis use the helpers below.
  [[nodiscard]] BlockFacts block_facts(std::uint32_t block) const {
    if (procedural.covers(net::Ipv4Addr(block << 8))) {
      return procedural.block_facts(block);
    }
    return topology.block_facts(block);
  }

  [[nodiscard]] std::optional<AsId> as_of(net::Ipv4Addr addr) const {
    const AsId as = block_facts(addr.value() >> 8).as;
    if (as == kNoAs) return std::nullopt;
    return as;
  }

  [[nodiscard]] CountryCode country_of(net::Ipv4Addr addr) const {
    return block_facts(addr.value() >> 8).country;
  }

  // The host behind `addr`, derived from its block's AS: nullopt for
  // unrouted space and empty addresses. Internet::resolve_target takes
  // the same step on its one facts fetch.
  [[nodiscard]] std::optional<Host> host_at(net::Ipv4Addr addr) const {
    const BlockFacts facts = block_facts(addr.value() >> 8);
    if (facts.as == kNoAs) return std::nullopt;
    return generate_host(seed, addr.value(), facts.as,
                         host_params[facts.as]);
  }
};

}  // namespace originscan::sim
