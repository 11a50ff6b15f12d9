// Microbenchmarks for the scanner's hot paths (google-benchmark):
// address permutation, blocklist lookups, the batched probe pipeline,
// the ZGrab L7 exchange, and the bytes a finished cell crosses on its
// way to the journal (CRC32, SHA-256, the store codec).
#include <benchmark/benchmark.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/store.h"
#include "netbase/crc32.h"
#include "netbase/rng.h"
#include "netbase/sha256.h"
#include "obsv/metrics.h"
#include "scanner/blocklist.h"
#include "scanner/orchestrator.h"
#include "scanner/permutation.h"
#include "scanner/zgrab.h"
#include "scanner/zmap.h"
#include "sim/internet.h"
#include "sim/scenario.h"

using namespace originscan;

static void BM_PermutationNext(benchmark::State& state) {
  const auto group =
      scan::CyclicGroup::for_size(1u << 20, /*seed=*/0xBEEF);
  auto it = group.all();
  for (auto _ : state) {
    auto value = it.next();
    if (!value) it = group.all();
    benchmark::DoNotOptimize(value);
  }
}
BENCHMARK(BM_PermutationNext);

static void BM_PermutationNextBatch(benchmark::State& state) {
  // Batched counterpart of BM_PermutationNext: the send loop's actual
  // consumption pattern (scanner/zmap.cc run()). The per-address delta
  // against the scalar bench is what the register-resident recurrence
  // buys.
  const auto group =
      scan::CyclicGroup::for_size(1u << 20, /*seed=*/0xBEEF);
  auto it = group.all();
  std::array<std::uint32_t, 256> batch;
  for (auto _ : state) {
    std::size_t filled = it.next_batch(batch);
    if (filled == 0) {
      it = group.all();
      filled = it.next_batch(batch);
    }
    benchmark::DoNotOptimize(batch.data());
    benchmark::DoNotOptimize(filled);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_PermutationNextBatch);

static void BM_GroupConstruction(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto group = scan::CyclicGroup::for_size(
        static_cast<std::uint64_t>(state.range(0)), seed++);
    benchmark::DoNotOptimize(group.generator());
  }
}
BENCHMARK(BM_GroupConstruction)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 24);

static void BM_BlocklistLookup(benchmark::State& state) {
  scan::Blocklist blocklist;
  // A realistic exclusion list: a few hundred scattered ranges.
  for (std::uint32_t i = 0; i < 400; ++i) {
    blocklist.block(net::Prefix(net::Ipv4Addr(i * 7919u * 256u), 24));
  }
  std::uint32_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(blocklist.is_blocked(net::Ipv4Addr(addr)));
    addr += 101;
  }
}
BENCHMARK(BM_BlocklistLookup);

static void probe_target_loop(benchmark::State& state,
                              obsv::MetricBlock* metrics) {
  // The full scanner inner loop over a pre-built schedule: batch fill,
  // resolve_batch, handle_probe_batch, and the live-probe step, exactly
  // as run_scheduled drives it in production.
  static const sim::World world = [] {
    sim::ScenarioConfig config;
    config.universe_size = 1u << 15;
    return sim::build_world(config, sim::paper_origins(config.universe_size));
  }();
  sim::PersistentState persistent;
  sim::TrialContext context;
  context.experiment_seed = world.seed;
  sim::Internet internet(&world, context, &persistent);

  scan::ZMapConfig config;
  config.seed = world.seed;
  config.universe_size = world.universe_size;
  config.protocol = proto::Protocol::kHttp;
  config.source_ips = world.origins[0].source_ips;
  config.metrics = metrics;
  scan::ZMapScanner scanner(config, &internet, 0);

  std::vector<scan::ScheduledTarget> batch;
  batch.reserve(256);
  for (std::uint32_t i = 0; i < 256; ++i) {
    batch.push_back(scan::ScheduledTarget{
        net::Ipv4Addr((i * 9973u) % world.universe_size),
        static_cast<std::uint64_t>(i) * 2});
  }
  std::uint64_t results = 0;
  for (auto _ : state) {
    auto stats = scanner.run_scheduled(
        batch, [&](const scan::L4Result&) { ++results; });
    benchmark::DoNotOptimize(stats);
  }
  benchmark::DoNotOptimize(results);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}

static void BM_ProbeTarget(benchmark::State& state) {
  probe_target_loop(state, nullptr);
}
BENCHMARK(BM_ProbeTarget);

static void BM_ProbeTargetMetricsOn(benchmark::State& state) {
  // Same loop with a live metric block: the delta over BM_ProbeTarget is
  // the whole cost of enabled observability on the hot path. ci.sh bench
  // bounds it at 5% via bench_gate --overhead (DESIGN.md §9).
  obsv::MetricBlock metrics;
  probe_target_loop(state, &metrics);
}
BENCHMARK(BM_ProbeTargetMetricsOn);

static void BM_ProceduralLookup(benchmark::State& state) {
  // Cold-path procedural resolution: per-/24 facts derivation plus the
  // per-address host derivation, no cache (World::host_at — the
  // connect/collector path). Strides by 256 so every lookup derives a
  // fresh block.
  static const sim::World world = [] {
    auto config = sim::ScenarioConfig::full_internet(22);
    return sim::build_world(config, sim::paper_origins(config.universe_size));
  }();
  const std::uint32_t first = world.procedural.first_addr();
  std::uint32_t addr = first;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.host_at(net::Ipv4Addr(addr)));
    addr += 257;  // new block every lookup, varying offset within it
    if (addr >= world.universe_size) addr = first;
  }
}
BENCHMARK(BM_ProceduralLookup);

static void BM_LossModelLookup(benchmark::State& state) {
  // Steady-state reverse-loss decision as ProbeContext::respond takes it
  // on a cursor miss: one indexed load to the model, its loss window at
  // t, and the per-packet drop draw against the window's probability.
  static const sim::World world = [] {
    sim::ScenarioConfig config;
    config.universe_size = 1u << 15;
    return sim::build_world(config, sim::paper_origins(config.universe_size));
  }();
  sim::PersistentState persistent;
  sim::TrialContext context;
  context.experiment_seed = world.seed;
  sim::Internet internet(&world, context, &persistent);
  auto probe_context = internet.probe_context(0, proto::Protocol::kHttp);

  const auto as_count = static_cast<std::uint32_t>(world.topology.as_count());
  std::uint64_t key = 0;
  for (auto _ : state) {
    const sim::AsId as = static_cast<sim::AsId>(key % as_count);
    const auto t = net::VirtualTime::from_seconds(
        static_cast<double>(key % 75600));
    const sim::PathLossModel& model = probe_context.loss(as);
    const double p = model.loss_window(t).p;
    const std::uint64_t h = net::mix_u64(model.stream_seed(), key, 0xD60Bu);
    benchmark::DoNotOptimize(
        p > 0.0 && static_cast<double>(h >> 11) * 0x1.0p-53 < p);
    ++key;
  }
}
BENCHMARK(BM_LossModelLookup);

static void BM_MixBatch4(benchmark::State& state) {
  // The 4-wide unrolled splitmix kernel at the bottom of the batch drop
  // pass. Bit-identical to four scalar mix_u64 calls; the win is four
  // independent multiply chains in flight (ILP), not SIMD. Items are
  // lanes, so ns/item is the cost of one mixed value.
  std::uint64_t a[4] = {1, 2, 3, 4};
  std::uint64_t b[4] = {5, 6, 7, 8};
  std::uint64_t out[4];
  for (auto _ : state) {
    net::mix_u64_x4(a, b, 0xF0D0u, 0, out);
    for (int lane = 0; lane < 4; ++lane) a[lane] = out[lane];
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4);
}
BENCHMARK(BM_MixBatch4);

static void BM_ResolveBatch(benchmark::State& state) {
  // SoA target resolution of 256-target batches in the sweep's order:
  // the first 2^16 targets of a permutation of the 2^22 universe, cut
  // by next_batch as the lanes cut theirs (walked before timing), so
  // consecutive targets almost never share a /24 and each fetches its
  // own block facts.
  static const sim::World world = [] {
    auto config = sim::ScenarioConfig::full_internet(22);
    return sim::build_world(config, sim::paper_origins(config.universe_size));
  }();
  sim::PersistentState persistent;
  sim::TrialContext context;
  context.experiment_seed = world.seed;
  sim::Internet internet(&world, context, &persistent);
  auto probe_context = internet.probe_context(0, proto::Protocol::kHttp);

  constexpr std::size_t kCapacity = sim::ProbeBatch::kCapacity;
  std::vector<std::uint32_t> targets(std::size_t{1} << 16);
  auto it = scan::CyclicGroup::for_size(world.universe_size, /*seed=*/0xBEEF)
                .all();
  for (std::size_t at = 0; at < targets.size(); at += kCapacity) {
    it.next_batch(std::span(targets).subspan(at, kCapacity));
  }
  std::size_t at = 0;
  sim::ProbeBatch batch;
  batch.size = sim::ProbeBatch::kCapacity;
  batch.probes = 2;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kCapacity; ++i) {
      batch.addr[i] = net::Ipv4Addr(targets[at + i]);
    }
    probe_context.resolve_batch(batch);
    benchmark::DoNotOptimize(batch.has_host);
    benchmark::ClobberMemory();
    at = (at + kCapacity) % targets.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_ResolveBatch);

static void BM_HandleProbeBatch(benchmark::State& state) {
  // The batch classifier alone (forward-loss draws + decision ladder)
  // over a pre-resolved 256-target batch, the steady-state sim cost per
  // probe window once resolution is paid.
  static const sim::World world = [] {
    sim::ScenarioConfig config;
    config.universe_size = 1u << 15;
    return sim::build_world(config, sim::paper_origins(config.universe_size));
  }();
  sim::PersistentState persistent;
  sim::TrialContext context;
  context.experiment_seed = world.seed;
  sim::Internet internet(&world, context, &persistent);
  auto probe_context = internet.probe_context(0, proto::Protocol::kHttp);

  sim::ProbeBatch batch;
  batch.size = sim::ProbeBatch::kCapacity;
  batch.probes = 2;
  for (int i = 0; i < batch.size; ++i) {
    batch.addr[i] = net::Ipv4Addr((static_cast<std::uint32_t>(i) * 9973u) %
                                  world.universe_size);
    batch.sent_mask[i] = 0x3;
    for (int p = 0; p < batch.probes; ++p) {
      batch.time_us[p * sim::ProbeBatch::kCapacity + i] =
          static_cast<std::int64_t>(i) * 100 + p;
    }
  }
  probe_context.resolve_batch(batch);
  for (auto _ : state) {
    internet.handle_probe_batch(probe_context, batch);
    benchmark::DoNotOptimize(batch.live_mask);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_HandleProbeBatch);

static void BM_Grab(benchmark::State& state, proto::Protocol protocol) {
  // One ZGrab handshake (connect, the client's flight, the server's
  // reply, the client's parse) per item, cycling over a fixed list of
  // the targets that answered origin 0's SYN probes in a 2^16 paper
  // world — the grabs run_scan makes after ZMap.
  static const sim::World world = [] {
    sim::ScenarioConfig config;
    config.universe_size = 1u << 16;
    return sim::build_world(config, sim::paper_origins(config.universe_size));
  }();
  sim::PersistentState persistent;
  sim::TrialContext context;
  context.experiment_seed = world.seed;
  sim::Internet internet(&world, context, &persistent);

  scan::ZMapConfig config;
  config.seed = world.seed;
  config.universe_size = world.universe_size;
  config.protocol = protocol;
  config.source_ips = world.origins[0].source_ips;
  scan::ZMapScanner scanner(config, &internet, 0);
  std::vector<scan::ScheduledTarget> schedule;
  for (std::uint32_t i = 0; i < world.universe_size; ++i) {
    schedule.push_back({net::Ipv4Addr(i), static_cast<std::uint64_t>(i) * 2});
  }
  std::vector<scan::L4Result> targets;
  scanner.run_scheduled(schedule, [&](const scan::L4Result& r) {
    if (r.any_synack() && targets.size() < 4096) targets.push_back(r);
  });

  scan::ZGrabEngine engine({.protocol = protocol}, &internet, 0);
  std::size_t next = 0;
  for (auto _ : state) {
    const scan::L4Result& target = targets[next];
    auto result = engine.grab(
        target.source_ip, target.addr,
        target.probe_time + net::VirtualTime::from_millis(5));
    benchmark::DoNotOptimize(result);
    if (++next == targets.size()) next = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_Grab, http, proto::Protocol::kHttp);
BENCHMARK_CAPTURE(BM_Grab, https, proto::Protocol::kHttps);
BENCHMARK_CAPTURE(BM_Grab, ssh, proto::Protocol::kSsh);

static std::vector<std::uint8_t> random_bytes(std::size_t n) {
  net::Rng rng(0xB17E5);
  std::vector<std::uint8_t> bytes(n);
  for (auto& byte : bytes) byte = static_cast<std::uint8_t>(rng());
  return bytes;
}

static void BM_Crc32(benchmark::State& state, std::size_t size) {
  // Every frame, store block and journal sidecar footer.
  const auto bytes = random_bytes(size);
  for (auto _ : state) benchmark::DoNotOptimize(net::crc32(bytes));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK_CAPTURE(BM_Crc32, 1MiB, std::size_t{1} << 20);

static void BM_Sha256(benchmark::State& state, std::size_t size) {
  // A cell's record_sha256: on the worker, the master and at adoption.
  const auto bytes = random_bytes(size);
  for (auto _ : state) benchmark::DoNotOptimize(net::Sha256::of(bytes));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK_CAPTURE(BM_Sha256, 1MiB, std::size_t{1} << 20);

static void BM_SerializeResults(benchmark::State& state) {
  // One grid cell of a 2^16 paper world (origin 0, HTTP, trial 0) as the
  // worker streams it and the journal writes it.
  static const scan::ScanResult cell = [] {
    sim::ScenarioConfig config;
    config.universe_size = 1u << 16;
    const sim::World world =
        sim::build_world(config, sim::paper_origins(config.universe_size));
    sim::PersistentState persistent;
    sim::TrialContext context;
    context.experiment_seed = world.seed;
    sim::Internet internet(&world, context, &persistent);
    return scan::run_scan(internet, 0, proto::Protocol::kHttp);
  }();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto segment = core::serialize_results(cell);
    bytes = segment.size();
    benchmark::DoNotOptimize(segment.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SerializeResults);

BENCHMARK_MAIN();
