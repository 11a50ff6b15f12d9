// A tiny, fully controlled world for unit tests: deterministic hosts, no
// path loss, no outages, no policies unless a test adds them.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "netbase/rng.h"
#include "proto/ssh.h"
#include "sim/internet.h"
#include "sim/world.h"

namespace originscan::testing {

struct MiniWorldOptions {
  // /24s per AS; the mini world has three ASes: "Alpha" (US), "Beta"
  // (JP), "Gamma" (CN).
  int blocks_per_as = 1;
  double density = 1.0;  // every address hosts
  bool all_services = true;
  std::uint64_t seed = 7;
  // When set, every host's SSH daemon runs MaxStartups with this triple.
  std::optional<proto::MaxStartups> maxstartups;
};

inline sim::World make_mini_world(const MiniWorldOptions& options = {}) {
  sim::World world;
  world.seed = options.seed;
  world.universe_size =
      static_cast<std::uint32_t>(3 * options.blocks_per_as * 256);

  // Two single-IP origins and one 4-IP origin.
  auto make = [&](const char* code, sim::CountryCode country, int ips,
                  int index) {
    sim::OriginSpec spec;
    spec.code = code;
    spec.display_name = code;
    spec.country = country;
    for (int i = 0; i < ips; ++i) {
      spec.source_ips.emplace_back(world.universe_size +
                                   static_cast<std::uint32_t>(256 * index + i +
                                                              10));
    }
    return spec;
  };
  world.origins.push_back(make("ONE", sim::country::kUS, 1, 0));
  world.origins.push_back(make("TWO", sim::country::kJP, 1, 1));
  world.origins.push_back(make("FOUR", sim::country::kDE, 4, 2));

  const char* names[3] = {"Alpha", "Beta", "Gamma"};
  const sim::CountryCode countries[3] = {
      sim::country::kUS, sim::country::kJP, sim::country::kCN};
  std::uint32_t block = 0;
  for (int a = 0; a < 3; ++a) {
    const sim::AsId as = world.topology.add_as(names[a], countries[a]);
    for (int b = 0; b < options.blocks_per_as; ++b) {
      world.topology.add_prefix(
          as, net::Prefix(net::Ipv4Addr(block * 256), 24));
      ++block;
    }
  }
  world.topology.freeze();

  for (std::uint32_t addr = 0; addr < world.universe_size; ++addr) {
    std::uint64_t h = net::mix_u64(options.seed, addr, 0xDE57u);
    if (options.density < 1.0 &&
        static_cast<double>(h >> 11) * 0x1.0p-53 >= options.density) {
      continue;
    }
    sim::Host host;
    host.addr = net::Ipv4Addr(addr);
    host.as = *world.topology.as_of(host.addr);
    host.services = options.all_services ? 0b111 : 0b001;
    host.seed = net::mix_u64(options.seed, addr, 0x5EEDu);
    if (options.maxstartups) {
      host.maxstartups_enabled = true;
      host.maxstartups = *options.maxstartups;
    }
    world.hosts.add(host);
  }
  world.hosts.freeze();

  // Perfectly clean paths: tests opt into loss explicitly.
  sim::PathProfile clean;
  clean.good_loss = 0;
  clean.bad_loss = 0;
  clean.bad_fraction = 0;
  world.paths.set_default_profile(clean);

  world.outages.pair_rate = 0;
  world.outages.wide_event_probability = 0;
  return world;
}

// Sends probe `probe_index` of one target from `origin`'s first source IP
// at time `t` through the scanner's pipeline as a batch of one:
// resolve_batch, handle_probe_batch, then — if the probe reaches a
// listening host — ProbeContext::respond, which feeds the policy engine.
inline sim::ProbeContext::Reply probe_one(
    sim::Internet& internet, sim::OriginId origin, net::Ipv4Addr dst,
    proto::Protocol protocol = proto::Protocol::kHttp,
    net::VirtualTime t = {}, int probe_index = 0) {
  sim::ProbeContext context = internet.probe_context(origin, protocol);
  auto batch = std::make_unique<sim::ProbeBatch>();
  batch->size = 1;
  batch->probes = probe_index + 1;
  batch->addr[0] = dst;
  batch->sent_mask[0] = static_cast<std::uint8_t>(1u << probe_index);
  batch->time_us[probe_index * sim::ProbeBatch::kCapacity] = t.micros();
  context.resolve_batch(*batch);
  internet.handle_probe_batch(context, *batch);
  if (((batch->live_mask[0] >> probe_index) & 1) == 0) {
    return sim::ProbeContext::Reply::kNone;
  }
  return context.respond(*batch, 0, probe_index,
                         internet.world().origins[origin].source_ips[0]);
}

}  // namespace originscan::testing
