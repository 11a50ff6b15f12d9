// A tiny, fully controlled world for unit tests: deterministic hosts, no
// path loss, no outages, no policies unless a test adds them. Hosts come
// from the one derivation every world uses (generate_host), with per-AS
// parameters that switch off middleboxes, churn and flakiness. Also the
// helpers several suites share: the reference per-packet loss decision
// (reference_drop), one probe through the pipeline (probe_one),
// per-process scratch directories (scratch_dir), and a serial
// permutation walk independent of the scanner's (walk_permutation).
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "proto/ssh.h"
#include "scanner/permutation.h"
#include "scanner/zmap.h"
#include "sim/hostgen.h"
#include "sim/internet.h"
#include "sim/world.h"

namespace originscan::testing {

struct MiniWorldOptions {
  // /24s per AS; the mini world has three ASes: "Alpha" (US), "Beta"
  // (JP), "Gamma" (CN).
  int blocks_per_as = 1;
  double density = 1.0;  // every address hosts
  bool all_services = true;  // false: HTTP only
  std::uint64_t seed = 7;
  // When set, every host's SSH daemon runs MaxStartups with this triple.
  std::optional<proto::MaxStartups> maxstartups;
};

// Every host of `world`, counted by deriving each address.
inline std::size_t host_count(const sim::World& world) {
  std::size_t count = 0;
  for (std::uint32_t addr = 0; addr < world.universe_size; ++addr) {
    if (world.host_at(net::Ipv4Addr(addr))) ++count;
  }
  return count;
}

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

  sim::HostGenParams params;
  params.density = options.density;
  if (!options.all_services) params.https = params.ssh = 0;
  if (options.maxstartups) {
    params.maxstartups_share = 1;
    params.maxstartups = *options.maxstartups;
  }

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
    world.host_params.push_back(params);
  }
  world.topology.freeze();

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

// The path loss model's per-packet drop decision, written out as the
// reference the pipeline's draws must match: a packet keyed `packet_key`
// (a mix of addr, probe index and direction) is lost at time t when
// hash01(mix(stream_seed, packet_key, 0xD60B)) < loss_probability(t).
inline bool reference_drop(const sim::PathLossModel& model, net::VirtualTime t,
                           std::uint64_t packet_key) {
  const double p = model.loss_probability(t);
  const std::uint64_t h = net::mix_u64(model.stream_seed(), packet_key, 0xD60Bu);
  return p > 0.0 && static_cast<double>(h >> 11) * 0x1.0p-53 < p;
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

// A path `name` under this process's own scratch root in
// ::testing::TempDir(), removed if it exists (callers create it). The root
// carries the process id, so two suite runs at once never share a
// directory, and it is removed when the process that made it exits.
inline std::string scratch_dir(const std::string& name) {
  struct Root {
    pid_t owner = ::getpid();
    std::filesystem::path path =
        std::filesystem::path(::testing::TempDir()) /
        ("originscan_" + std::to_string(owner));
    ~Root() {
      // Forked children exit through here too; only the owner cleans up.
      std::error_code ignored;
      if (::getpid() == owner) std::filesystem::remove_all(path, ignored);
    }
  };
  static const Root root;
  const std::filesystem::path dir = root.path / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

// The tests' own permutation walk, independent of scan::walk_shards: the
// targets a sweep probes, in permutation order (Iterator::next), after the
// allowlist and the blocklist, each stamped with the global slot of its
// first probe, and how many the blocklist skipped. Only targets `keep`
// accepts are returned; the slots still count every target.
struct PermutationWalk {
  std::vector<scan::ScheduledTarget> targets;
  std::uint64_t blocklisted = 0;
};

inline PermutationWalk walk_permutation(
    const scan::ZMapConfig& zconfig,
    const std::function<bool(net::Ipv4Addr)>& keep = {}) {
  PermutationWalk walk;
  auto iterator =
      scan::CyclicGroup::for_size(zconfig.universe_size, zconfig.seed).all();
  std::uint64_t emitted = 0;
  while (const auto value = iterator.next()) {
    const net::Ipv4Addr dst(static_cast<std::uint32_t>(*value));
    if (zconfig.allowlist && !zconfig.allowlist->contains(dst)) continue;
    if (zconfig.blocklist.is_blocked(dst)) {
      ++walk.blocklisted;
      continue;
    }
    const scan::ScheduledTarget target{
        dst, emitted++ * static_cast<std::uint64_t>(zconfig.probes)};
    if (!keep || keep(dst)) walk.targets.push_back(target);
  }
  return walk;
}

}  // namespace originscan::testing
