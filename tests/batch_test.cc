// The SoA probe pipeline (DESIGN.md §13) against a reference model.
//
// The pipeline (ZMapScanner::run / run_scheduled → probe_batch →
// ProbeContext::resolve_batch → Internet::handle_probe_batch →
// ProbeContext::respond) must produce exactly what a short
// per-(target, probe) reference model written here produces: same
// L4Results in the same order, same Stats, same metric counters outside
// the documented universe.* bookkeeping. The model works straight from
// World facts and the public loss, outage, and policy APIs, and shares no
// code with the pipeline. These tests randomize worlds, probe counts,
// fault plans, and chunk sizes, straddle the one resolution boundary —
// the procedural override region (2^19), where facts switch from the
// topology's per-/24 table to derivation — and pin the rate-IDS admission
// order against a collector that connects.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "faultinject/faultinject.h"
#include "netbase/rng.h"
#include "netbase/vtime.h"
#include "obsv/metrics.h"
#include "scanner/permutation.h"
#include "scanner/zmap.h"
#include "sim/internet.h"
#include "sim/path.h"
#include "sim/procedural.h"
#include "sim/scenario.h"
#include "tests/test_world.h"

namespace originscan::sim {
namespace {

// ---- mix_u64_x4 -----------------------------------------------------

TEST(BatchKernel, MixX4MatchesFourScalarCalls) {
  net::Rng rng(0xBA7C4ull);
  for (int iter = 0; iter < 4096; ++iter) {
    std::uint64_t a[4], b[4], lanes[4];
    for (int i = 0; i < 4; ++i) {
      a[i] = rng();
      b[i] = rng();
    }
    const std::uint64_t c = rng();
    const std::uint64_t d = rng();

    net::mix_u64_x4(a, b, c, d, lanes);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(lanes[i], net::mix_u64(a[i], b[i], c, d)) << iter << " " << i;
    }

    net::mix_u64_x4(a, b[0], c, d, lanes);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(lanes[i], net::mix_u64(a[i], b[0], c, d)) << iter << " " << i;
    }
  }
}

// The AVX-512 draw kernel (when this build and CPU have it) must agree
// bit-for-bit with the portable formula on every lane — including the
// unrouted zero-seed lanes and the scalar tail when n % 4 != 0.
TEST(BatchKernel, VectorizedDrawsMatchScalarFormula) {
  net::Rng rng(0x55EDull);
  constexpr AsId kAsCount = 37;
  std::uint64_t seeds[kAsCount];
  for (AsId as = 0; as < kAsCount; ++as) seeds[as] = rng();

  bool ran = false;
  for (int iter = 0; iter < 64; ++iter) {
    const int n = 1 + static_cast<int>(rng.below(ProbeBatch::kCapacity));
    const int probes = 1 + static_cast<int>(rng.below(ProbeBatch::kMaxProbes));
    const std::uint64_t origin = rng.below(7);
    net::Ipv4Addr addr[ProbeBatch::kCapacity];
    AsId as[ProbeBatch::kCapacity];
    double fwd_draw[ProbeBatch::kMaxProbes * ProbeBatch::kCapacity];
    for (int i = 0; i < n; ++i) {
      addr[i] = net::Ipv4Addr(static_cast<std::uint32_t>(rng()));
      as[i] = rng.below(5) == 0 ? kNoAs
                                : static_cast<AsId>(rng.below(kAsCount));
    }
    if (!detail::fwd_draws_vectorized(addr, as, seeds, kAsCount, origin, n,
                                      probes, fwd_draw)) {
      break;  // portable-only build or CPU: nothing to cross-check
    }
    ran = true;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t seed = as[i] < kAsCount ? seeds[as[i]] : 0;
      for (int p = 0; p < probes; ++p) {
        const std::uint64_t key =
            net::mix_u64(addr[i].value(), static_cast<std::uint64_t>(p),
                         origin, 0xF0D0u);
        const double expected =
            static_cast<double>(net::mix_u64(seed, key, 0xD60Bu) >> 11) *
            0x1.0p-53;
        ASSERT_EQ(fwd_draw[p * ProbeBatch::kCapacity + i], expected)
            << iter << " i=" << i << " p=" << p;
      }
    }
  }
  if (!ran) GTEST_SKIP() << "AVX-512 draw kernel unavailable on this host";
}

// ---- LossWindow -----------------------------------------------------

// loss_window(t) must contain t and hold the exact pointwise
// loss_probability for every instant inside it — that is the contract
// the batch drop ladder's window cursor depends on.
TEST(BatchKernel, LossWindowMatchesPointwiseProbability) {
  PathProfile profile;
  profile.bad_fraction = 0.05;  // dense Bad timeline: many windows
  profile.mean_bad_duration_s = 20;
  const auto horizon = net::VirtualTime::from_hours(2);
  net::Rng rng(0x10553ull);
  for (std::uint64_t seed : {1ull, 0xD16E57ull, 0xFEEDull}) {
    const PathLossModel model(profile, seed, horizon);
    for (int iter = 0; iter < 20000; ++iter) {
      const auto t = net::VirtualTime::from_micros(
          static_cast<std::int64_t>(rng.below(
              static_cast<std::uint64_t>(horizon.micros()))));
      const auto window = model.loss_window(t);
      ASSERT_TRUE(window.contains(t)) << t.micros();
      EXPECT_EQ(window.p, model.loss_probability(t)) << t.micros();
      // Edges of the window agree too, and the instant past the end
      // belongs to a different (adjacent) window.
      const auto start = net::VirtualTime::from_micros(window.start_us);
      if (window.start_us > horizon.micros() / -2) {  // skip INT64_MIN
        EXPECT_EQ(window.p, model.loss_probability(start));
      }
      const auto last =
          net::VirtualTime::from_micros(window.end_us - 1);
      EXPECT_EQ(window.p, model.loss_probability(last));
    }
  }
}

// ---- The reference model -------------------------------------------

struct RunOutput {
  // (addr, synack_mask, rst_mask, probe_time_us, source_ip, connect
  // outcome) per reported target, in report order.
  std::vector<std::tuple<std::uint32_t, int, int, std::int64_t,
                         std::uint32_t, int>>
      results;
  scan::ZMapScanner::Stats stats;
  obsv::MetricBlock metrics;
};

// The collector both sides share, shaped like run_scan's: every target
// that answered with a SYN-ACK gets an L4 connect right away, so its
// policy admission lands between the target's probes and the next
// target's. Records the connect's outcome (-1 = none attempted).
void collect(Internet& internet, OriginId origin, proto::Protocol protocol,
             const scan::L4Result& r, RunOutput& out) {
  int connect = -1;
  if (r.any_synack()) {
    Connection connection;
    const bool connected = internet.connect(
        connection, origin, r.source_ip, r.addr, protocol,
        r.probe_time + net::VirtualTime::from_millis(5), 0);
    connect = !connected                ? 0
              : connection.peer_reset() ? 1
              : connection.hung()       ? 2
                                        : 3;
  }
  out.results.emplace_back(r.addr.value(), r.synack_mask, r.rst_mask,
                           r.probe_time.micros(), r.source_ip.value(),
                           connect);
}

// ZMap and the simulated network, one (target, probe) at a time: target
// facts from World, loss and outage models from a ProbeContext's public
// accessors, admission from PolicyEngine::on_probe. Slot-scoped faults
// come from the scanner config, time-scoped ones from the Internet's
// injector. A target's probe p occupies schedule slot first_packet + p,
// as on the parallel lanes.
class ReferenceModel {
 public:
  ReferenceModel(Internet& internet, OriginId origin,
                 const scan::ZMapConfig& config)
      : world_(internet.world()),
        internet_(internet),
        origin_(origin),
        config_(config),
        models_(internet.probe_context(origin, config.protocol)) {}

  void run(std::span<const scan::ScheduledTarget> targets, RunOutput& out) {
    using obsv::Counter;
    obsv::MetricBlock& m = out.metrics;
    const fault::FaultInjector* faults = config_.faults;
    const fault::FaultInjector* net_faults = internet_.fault_injector();
    const proto::Protocol protocol = config_.protocol;
    const double seconds_per_packet = 1.0 / config_.effective_pps();
    for (const scan::ScheduledTarget& target : targets) {
      const net::Ipv4Addr dst = target.addr;
      ++out.stats.targets_probed;
      m.add(Counter::kZmapTargetsProbed);
      const net::Ipv4Addr src_ip = source_ip_for(dst);
      const std::optional<AsId> as = world_.as_of(dst);
      const std::optional<Host> host = listening_host(dst);

      scan::L4Result result;
      result.addr = dst;
      result.source_ip = src_ip;
      result.probe_time = net::VirtualTime::from_seconds(
          static_cast<double>(target.first_packet) * seconds_per_packet);
      for (int p = 0; p < config_.probes; ++p) {
        const std::uint64_t slot = target.first_packet + p;
        const auto t = net::VirtualTime::from_micros(
            net::VirtualTime::from_seconds(static_cast<double>(slot) *
                                           seconds_per_packet)
                .micros() +
            config_.probe_interval.micros() * p);
        ++out.stats.packets_sent;
        m.add(Counter::kZmapProbesSent);
        if (faults != nullptr) {
          const auto failures =
              static_cast<std::uint64_t>(faults->send_failures(slot, dst));
          m.add(Counter::kZmapSendRetries, failures);
          m.add(Counter::kFaultSendFail, failures);
          if (faults->drop_at_slot(slot, dst)) {
            m.add(Counter::kFaultProbeDrop);
            continue;
          }
        }
        if (!as) {
          m.add(Counter::kSimDropsUnrouted);
          continue;
        }
        m.add(Counter::kSimProbesRouted);
        if (net_faults != nullptr) {
          const bool outage =
              net_faults->outage_at(t, static_cast<int>(origin_));
          if (outage || net_faults->drop_at_time(t, dst, p)) {
            m.add(Counter::kSimDropsFault);
            m.add(outage ? Counter::kFaultOutage : Counter::kFaultProbeDrop);
            continue;
          }
        }
        if (models_.outage().in_outage(*as, t)) {
          m.add(Counter::kSimDropsOutage);
          continue;
        }
        const PathLossModel& loss = models_.loss(*as);
        if (loss.drop(t, net::mix_u64(dst.value(), p, origin_, 0xF0D0u))) {
          m.add(Counter::kSimDropsLossModel);
          continue;
        }
        if (!host) {
          m.add(Counter::kSimDropsNoHost);
          continue;
        }
        if (internet_.policy_engine().on_probe(origin_, src_ip, *as, dst,
                                               protocol, t) ==
            PolicyEngine::L4Decision::kDrop) {
          m.add(Counter::kSimDropsIds);
          continue;
        }
        if (loss.drop(t, net::mix_u64(dst.value(), p, origin_, 0x0BACu))) {
          m.add(Counter::kSimDropsLossModel);
          continue;
        }
        const bool synack = host->middlebox || host->runs(protocol);
        m.add(synack ? Counter::kSimResponsesSynack
                     : Counter::kSimResponsesRst);
        if (faults != nullptr && faults->corrupt_response(slot, dst)) {
          ++out.stats.validation_failures;
          m.add(Counter::kFaultMacCorrupt);
          m.add(Counter::kZmapValidationFailures);
          continue;
        }
        const auto bit = static_cast<std::uint8_t>(1u << p);
        if (synack) {
          result.synack_mask |= bit;
          ++out.stats.synacks;
          m.add(Counter::kZmapResponsesSynack);
        } else {
          result.rst_mask |= bit;
          ++out.stats.rsts;
          m.add(Counter::kZmapResponsesRst);
        }
        if (p == config_.probes - 1) m.add(Counter::kZmapCooldownResponses);
      }
      if (result.synack_mask != 0 || result.rst_mask != 0) {
        collect(internet_, origin_, protocol, result, out);
      }
    }
  }

 private:
  net::Ipv4Addr source_ip_for(net::Ipv4Addr dst) const {
    const auto& ips = config_.source_ips;
    if (ips.size() == 1) return ips.front();
    return ips[net::mix_u64(dst.value(), 0x5AC1Fu) % ips.size()];
  }

  // The host answering this trial, if any: it exists, is live this
  // trial, and — if flaky — is not dark for this origin.
  std::optional<Host> listening_host(net::Ipv4Addr dst) const {
    const std::optional<Host> host = world_.host_at(dst);
    const TrialContext& trial = internet_.context();
    if (!host ||
        !live_in_trial(*host, trial.trial, trial.experiment_seed)) {
      return std::nullopt;
    }
    if (host->flaky) {
      const std::uint64_t coin =
          net::mix_u64(host->seed, origin_,
                       static_cast<std::uint64_t>(trial.trial), 0xF1A6ULL);
      if (static_cast<double>(coin >> 11) * 0x1.0p-53 <
          world_.flaky_miss_probability) {
        return std::nullopt;
      }
    }
    return host;
  }

  const World& world_;
  Internet& internet_;
  OriginId origin_;
  scan::ZMapConfig config_;
  ProbeContext models_;  // read only for its loss and outage models
};

// Counters outside the documented universe.* exception must match
// exactly between the pipeline and the model.
void expect_non_universe_counters_equal(const obsv::MetricBlock& pipeline,
                                        const obsv::MetricBlock& model) {
  for (int i = 0; i < obsv::kCounterCount; ++i) {
    const auto c = static_cast<obsv::Counter>(i);
    const std::string_view name = obsv::counter_name(c);
    if (name.substr(0, 9) == "universe.") continue;
    EXPECT_EQ(pipeline.counter(c), model.counter(c)) << name;
  }
}

fault::FaultInjector make_faults(std::string_view spec) {
  std::string error;
  auto plan = fault::FaultPlan::parse(spec, &error);
  EXPECT_TRUE(plan.has_value()) << error;
  return fault::FaultInjector(plan.value_or(fault::FaultPlan{}), 0x0FA017ull);
}

// The test's own permutation walk: the targets a sweep probes, in
// permutation order, each stamped with the global slot of its first
// probe, and how many the blocklist skipped. Only targets `keep` accepts
// are returned; the slots still count every target.
struct PermutationWalk {
  std::vector<scan::ScheduledTarget> targets;
  std::uint64_t blocklisted = 0;
};

PermutationWalk walk_permutation(
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

// Runs `targets` through run_scheduled and through the model, each on a
// fresh Internet over `world` carrying the scanner's fault injector.
void run_both(const World& world, const TrialContext& context,
              OriginId origin, const scan::ZMapConfig& zconfig,
              std::span<const scan::ScheduledTarget> targets,
              RunOutput& pipeline, RunOutput& model) {
  {
    PersistentState persistent;
    Internet internet(&world, context, &persistent);
    internet.set_fault_injector(zconfig.faults);
    auto cfg = zconfig;
    cfg.metrics = &pipeline.metrics;
    scan::ZMapScanner scanner(cfg, &internet, origin);
    pipeline.stats = scanner.run_scheduled(
        targets, [&](const scan::L4Result& r) {
          collect(internet, origin, cfg.protocol, r, pipeline);
        });
  }
  PersistentState persistent;
  Internet internet(&world, context, &persistent);
  internet.set_fault_injector(zconfig.faults);
  ReferenceModel(internet, origin, zconfig).run(targets, model);
}

// ---- Pipeline vs the reference model --------------------------------

// The full sweep through run() against the model over the same
// permutation (the test's own walk_permutation), on fresh Internet
// instances over the same world. The world straddles the procedural
// override boundary (2^19 inside a 2^20 universe), and the fault plan
// keeps every rung of the batch classifier busy.
TEST(BatchModelEquivalence, FullSweepMatchesReferenceModel) {
  for (std::uint64_t seed : {0x5CA7171ull, 0xBEEFD00Dull}) {
    ScenarioConfig config = ScenarioConfig::full_internet(20);
    config.seed = seed;
    const World world =
        build_world(config, paper_origins(config.universe_size));

    TrialContext context;
    context.trial = 0;
    context.experiment_seed = config.seed;
    context.simultaneous_origins = static_cast<int>(world.origins.size());
    const OriginId origin = world.origin_id("US1");
    ASSERT_NE(origin, ~OriginId{0});

    const auto faults = make_faults(
        "drop:slot=500..40000,p=0.2;send_fail:slot=0..30000,p=0.4;"
        "mac_corrupt:slot=10000..90000,p=0.1;outage:sec=5..25");

    scan::ZMapConfig zconfig;
    zconfig.seed = seed;
    zconfig.universe_size = config.universe_size;
    zconfig.protocol = proto::Protocol::kHttp;
    zconfig.probes = 2 + static_cast<int>(seed % 2);
    zconfig.probe_interval = net::VirtualTime::from_micros(
        static_cast<std::int64_t>(seed % 3) * 250);
    // 20,000 packets per second.
    zconfig.scan_duration = net::VirtualTime::from_micros(
        std::int64_t{50} * config.universe_size * zconfig.probes);
    zconfig.source_ips = world.origins[origin].source_ips;
    zconfig.faults = &faults;
    zconfig.blocklist.block("0.1.0.0/16");
    zconfig.blocklist.block(net::Prefix(net::Ipv4Addr(1u << 19), 20));

    RunOutput pipeline;
    {
      PersistentState persistent;
      Internet internet(&world, context, &persistent);
      internet.set_fault_injector(&faults);
      auto cfg = zconfig;
      cfg.metrics = &pipeline.metrics;
      scan::ZMapScanner scanner(cfg, &internet, origin);
      pipeline.stats = scanner.run([&](const scan::L4Result& r) {
        collect(internet, origin, cfg.protocol, r, pipeline);
      });
    }

    RunOutput model;
    const PermutationWalk walk = walk_permutation(zconfig);
    EXPECT_GT(walk.blocklisted, 0u);
    {
      PersistentState persistent;
      Internet internet(&world, context, &persistent);
      internet.set_fault_injector(&faults);
      ReferenceModel(internet, origin, zconfig).run(walk.targets, model);
    }
    // run() filters the blocklist itself; the model's targets were
    // filtered by walk_permutation.
    model.stats.blocklisted_skipped = walk.blocklisted;
    model.metrics.add(obsv::Counter::kZmapBlocklistedSkipped,
                      walk.blocklisted);

    EXPECT_EQ(pipeline.stats, model.stats) << seed;
    EXPECT_GT(pipeline.stats.targets_probed, 0u);
    EXPECT_GT(pipeline.stats.validation_failures, 0u);
    EXPECT_GT(pipeline.metrics.counter(obsv::Counter::kFaultOutage), 0u);
    EXPECT_GT(pipeline.results.size(), 0u);
    EXPECT_EQ(pipeline.results, model.results) << seed;
    expect_non_universe_counters_equal(pipeline.metrics, model.metrics);
  }
}

// Partial tail batches (1..255 targets) and the resolution boundary:
// random-sized spans of scheduled targets sampled around 2^19 (the
// materialized/procedural seam) and across a 2^26 universe must run
// through run_scheduled (batched, chunked) exactly as through the model.
// No other seam exists: every host, on either side of 2^19, is derived
// per address from its block's AS.
TEST(BatchModelEquivalence, TailBatchesMatchReferenceModelAcrossBoundaries) {
  ScenarioConfig config = ScenarioConfig::full_internet(26);
  config.seed = 0x7A11BA7ull;
  const World world =
      build_world(config, paper_origins(config.universe_size));

  TrialContext context;
  context.trial = 1;
  context.experiment_seed = config.seed;
  context.simultaneous_origins = static_cast<int>(world.origins.size());
  const OriginId origin = world.origin_id("DE");
  ASSERT_NE(origin, ~OriginId{0});

  const auto faults =
      make_faults("drop:slot=0..2000,p=0.15;mac_corrupt:slot=0..4000,p=0.1");

  scan::ZMapConfig zconfig;
  zconfig.seed = config.seed;
  zconfig.universe_size = config.universe_size;
  zconfig.protocol = proto::Protocol::kHttps;
  zconfig.probes = 2;
  // 50,000 packets per second.
  zconfig.scan_duration = net::VirtualTime::from_micros(
      std::int64_t{20} * config.universe_size * zconfig.probes);
  zconfig.source_ips = world.origins[origin].source_ips;
  zconfig.faults = &faults;

  net::Rng rng(0x7A11ull);
  constexpr std::uint32_t kSeam = 1u << 19;
  std::uint64_t slot = 0;
  for (int iter = 0; iter < 24; ++iter) {
    // Mostly partial tails; a few spans > 256 to cover full+tail chunks.
    const std::size_t count = (iter % 6 == 5)
                                  ? 256 + 1 + rng.below(128)
                                  : 1 + rng.below(255);
    std::vector<scan::ScheduledTarget> targets;
    targets.reserve(count);
    for (std::size_t j = 0; j < count; ++j) {
      std::uint32_t addr;
      switch (rng.below(3)) {
        case 0:  // straddle the seam
          addr = kSeam - 1024 + rng.below(2048);
          break;
        case 1:  // consecutive run: exercises the /24 fetch sharing
          addr = (1u << 20) + static_cast<std::uint32_t>(iter) * 4096 +
                 static_cast<std::uint32_t>(j);
          break;
        default:
          addr = static_cast<std::uint32_t>(
              rng.below(config.universe_size));
          break;
      }
      targets.push_back({net::Ipv4Addr(addr),
                         slot + j * static_cast<std::uint64_t>(
                                        zconfig.probes)});
    }
    slot += count * static_cast<std::uint64_t>(zconfig.probes);

    RunOutput pipeline;
    RunOutput model;
    run_both(world, context, origin, zconfig, targets, pipeline, model);
    EXPECT_EQ(pipeline.stats, model.stats) << iter;
    EXPECT_EQ(pipeline.results, model.results) << iter;
    expect_non_universe_counters_equal(pipeline.metrics, model.metrics);
  }
}

// The deferred rate-IDS lane: every target sits in one low-threshold
// rate-IDS network, scanned from a single source IP, and the collector
// connects after each SYN-ACK target. The IDS trips part-way through the
// first batch, so the pipeline matches the model only if each live probe
// is admitted in (target, probe) order with the collector's connects
// interleaved between targets — admitting a whole batch ahead of its
// collector moves the trip point.
TEST(BatchModelEquivalence, RateIdsAdmissionFollowsEmissionOrder) {
  ScenarioConfig config = ScenarioConfig::full_internet(20);
  config.seed = 0x1D5ull;
  World world = build_world(config, paper_origins(config.universe_size));
  const AsId bochum = world.topology.find_as("Ruhr-Universitaet Bochum");
  ASSERT_NE(bochum, kNoAs);
  ASSERT_TRUE(world.policies.edit(bochum).rate_ids.has_value());
  world.policies.edit(bochum).rate_ids->probe_threshold = 60;

  TrialContext context;
  context.experiment_seed = config.seed;
  context.simultaneous_origins = static_cast<int>(world.origins.size());
  const OriginId origin = world.origin_id("US1");
  ASSERT_NE(origin, ~OriginId{0});
  ASSERT_EQ(world.origins[origin].source_ips.size(), 1u);

  scan::ZMapConfig zconfig;
  zconfig.seed = config.seed;
  zconfig.universe_size = config.universe_size;
  zconfig.protocol = proto::Protocol::kHttp;
  zconfig.probes = 2;
  zconfig.source_ips = world.origins[origin].source_ips;

  // The deferred lane: Bochum's targets in permutation order, with their
  // global slots, as the orchestrator deals them.
  const PermutationWalk deferred =
      walk_permutation(zconfig, [&world, bochum](net::Ipv4Addr dst) {
        return world.as_of(dst) == bochum;
      });
  ASSERT_GT(deferred.targets.size(), 2 * sim::ProbeBatch::kCapacity);

  RunOutput pipeline;
  RunOutput model;
  run_both(world, context, origin, zconfig, deferred.targets, pipeline,
           model);
  EXPECT_EQ(pipeline.stats, model.stats);
  EXPECT_EQ(pipeline.results, model.results);
  expect_non_universe_counters_equal(pipeline.metrics, model.metrics);
  // The IDS tripped: some probes were dropped, and some connects made it.
  EXPECT_GT(pipeline.metrics.counter(obsv::Counter::kSimDropsIds), 0u);
  EXPECT_GT(pipeline.stats.synacks, 0u);
}

// The batch is the only probe path, so a probe count past its width is a
// configuration error the scanner refuses up front.
TEST(BatchModelEquivalence, ConstructorRejectsProbeCountsOutsideBatch) {
  const World world = originscan::testing::make_mini_world();
  TrialContext context;
  context.experiment_seed = world.seed;
  PersistentState persistent;
  Internet internet(&world, context, &persistent);

  scan::ZMapConfig zconfig;
  zconfig.seed = world.seed;
  zconfig.universe_size = world.universe_size;
  zconfig.source_ips = world.origins[0].source_ips;
  for (int probes : {0, -1, ProbeBatch::kMaxProbes + 1}) {
    zconfig.probes = probes;
    EXPECT_THROW(scan::ZMapScanner(zconfig, &internet, 0),
                 std::invalid_argument)
        << probes;
  }
  zconfig.probes = ProbeBatch::kMaxProbes;
  EXPECT_NO_THROW(scan::ZMapScanner(zconfig, &internet, 0));
}

}  // namespace
}  // namespace originscan::sim
