// Low-level API tour: build a custom mini Internet by hand (no paper
// scenario), configure a ZMap sweep with a blocklist, run the
// ZGrab handshakes yourself, and print the observed banners — the
// building blocks a downstream user would assemble for their own study.
#include <cstdio>
#include <map>

#include "proto/http.h"
#include "scanner/orchestrator.h"
#include "scanner/zgrab.h"
#include "scanner/zmap.h"
#include "sim/internet.h"

using namespace originscan;

int main() {
  // ---- 1. a hand-built world: two networks, one of which dislikes us.
  sim::World world;
  world.seed = 1234;
  world.universe_size = 2 * 256;

  sim::OriginSpec scanner_origin;
  scanner_origin.code = "LAB";
  scanner_origin.display_name = "Our lab";
  scanner_origin.country = sim::country::kDE;
  scanner_origin.source_ips = {net::Ipv4Addr(world.universe_size + 10)};
  world.origins.push_back(scanner_origin);

  const sim::AsId friendly = world.topology.add_as("Friendly Hosting",
                                                   sim::country::kNL);
  world.topology.add_prefix(friendly, net::Prefix(net::Ipv4Addr(0), 24));
  const sim::AsId grumpy = world.topology.add_as("Grumpy Telecom",
                                                 sim::country::kUS);
  world.topology.add_prefix(grumpy, net::Prefix(net::Ipv4Addr(256), 24));
  world.topology.freeze();

  // The host population, one parameter set per AS (indexed by AsId):
  // a third of the addresses host something, every host runs HTTP and
  // HTTPS, and nothing churns. Hosts are derived on demand from these.
  sim::HostGenParams hosts;
  hosts.density = 1.0 / 3;
  hosts.ssh = 0;
  world.host_params = {hosts, hosts};

  // Grumpy Telecom drops half its hosts' traffic from us at L4.
  sim::BlockRule rule;
  rule.origins = sim::origin_bit(0);
  rule.mode = sim::BlockMode::kL4Drop;
  rule.host_fraction = 0.5;
  world.policies.edit(grumpy).blocks.push_back(rule);

  sim::PathProfile clean;
  clean.good_loss = 0;
  clean.bad_fraction = 0;
  world.paths.set_default_profile(clean);
  world.outages.pair_rate = 0;
  world.outages.wide_event_probability = 0;

  sim::PersistentState persistent;
  sim::TrialContext context;
  context.experiment_seed = world.seed;
  sim::Internet internet(&world, context, &persistent);

  // ---- 2. a ZMap sweep with an explicit blocklist.
  scan::ZMapConfig config;
  config.seed = 99;
  config.universe_size = world.universe_size;
  config.protocol = proto::Protocol::kHttp;
  config.source_ips = world.origins[0].source_ips;
  config.blocklist.block("0.0.0.0/30");  // pretend these asked to be excluded

  std::vector<scan::L4Result> responsive;
  scan::ZMapScanner zmap(config, &internet, 0);
  const auto stats = zmap.run(
      [&](const scan::L4Result& result) { responsive.push_back(result); });
  std::printf("probed %llu targets, %llu SYN-ACKs, %llu blocklisted\n",
              static_cast<unsigned long long>(stats.targets_probed),
              static_cast<unsigned long long>(stats.synacks),
              static_cast<unsigned long long>(stats.blocklisted_skipped));

  // ---- 3. ZGrab the responders and tally outcomes per AS.
  scan::ZGrabEngine zgrab({.protocol = proto::Protocol::kHttp}, &internet, 0);
  std::map<std::string, std::map<std::string, int>> outcomes;
  std::string sample_banner;
  for (const auto& l4 : responsive) {
    const auto result = zgrab.grab(l4.source_ip, l4.addr, l4.probe_time);
    const auto& as_name =
        world.topology.as_info(*world.as_of(l4.addr)).name;
    ++outcomes[as_name][std::string(sim::to_string(result.outcome))];
    if (sample_banner.empty() && !result.banner.empty()) {
      sample_banner = result.banner;
    }
  }

  std::printf("\nper-AS L7 outcomes:\n");
  for (const auto& [as_name, tally] : outcomes) {
    std::printf("  %s:\n", as_name.c_str());
    for (const auto& [outcome, count] : tally) {
      std::printf("    %-22s %d\n", outcome.c_str(), count);
    }
  }
  std::printf("\nsample page title: \"%s\"\n", sample_banner.c_str());
  std::printf("note: Grumpy Telecom's hosts that SYN-ACKed completed "
              "normally — the blocked half never appeared at L4.\n");
  return 0;
}
