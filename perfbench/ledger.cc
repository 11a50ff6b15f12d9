// The per-layer ledger of the traced run. Every span here wraps a call
// into one layer's public function, made from this file; the library
// itself is not instrumented. Layers that a workload calls only through
// a higher layer (ZMap and ZGrab inside run_scan, resolution inside the
// scanner) are reached by driving the same public pieces run_scan uses,
// and the replica's records are checked against run_scan's.
#include <algorithm>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "bench.h"
#include "core/access_matrix.h"
#include "core/analysis/coverage.h"
#include "core/classify.h"
#include "core/dist.h"
#include "core/journal.h"
#include "core/store.h"
#include "daemon.h"
#include "netbase/frame.h"
#include "netbase/rng.h"
#include "scanner/permutation.h"
#include "scanner/zgrab.h"
#include "scanner/zmap.h"
#include "service/wire.h"

namespace perfbench {

using namespace originscan;
namespace fs = std::filesystem;

namespace {

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

// "http", "https", "ssh" — the lower-case names metric names use.
std::string protocol_name(proto::Protocol protocol) {
  std::string name(proto::name_of(protocol));
  for (char& c : name) c = static_cast<char>(std::tolower(c));
  return name;
}

double per_call_ms(const Tracer& tracer, std::string_view name) {
  const Tracer::Totals totals = tracer.totals_of(name);
  return totals.calls == 0 ? 0.0 : ms(totals.total_ns) / totals.calls;
}

// Times `fn` as one structural span; returns its duration in ms.
template <typename Fn>
double timed(Tracer& tracer, std::string_view name, Fn&& fn) {
  tracer.begin(name);
  fn();
  return ms(tracer.end());
}

// ---- sim / scanner / core on the grid world ---------------------------------

struct CellSample {
  double run_scan_ms = 0;
  double zmap_ms = 0;  // ZMapScanner::run including the ZGrab callbacks
  std::uint64_t grabs = 0;
};

// The per-cell decomposition of trial 0: run_scan on one Internet, and on
// a twin Internet (same world, fresh state, same cell order) the pieces
// run_scan is made of — prewarm, ZMapScanner::run, and a collector that
// times each ZGrabEngine::grab. Both start from the same IDS state and
// see cells in chain order, so their records must be identical.
void decompose_cells(const core::Experiment& experiment, Tracer& tracer,
                     Outcome& out) {
  const sim::World& world = experiment.world();
  const core::ExperimentConfig& config = experiment.config();
  sim::TrialContext context;
  context.trial = 0;
  context.experiment_seed = config.scenario.seed;
  context.simultaneous_origins = static_cast<int>(world.origins.size());
  context.scan_duration = config.scan_duration;
  sim::PersistentState state_a;
  sim::PersistentState state_b;
  sim::Internet whole(&world, context, &state_a);
  sim::Internet parts(&world, context, &state_b);

  std::vector<CellSample> cells;
  std::uint64_t targets = 0, synack_targets = 0, replica_mismatches = 0;
  std::map<proto::Protocol, std::array<std::uint64_t, 2>> grabs;  // n, done
  std::uint64_t attempts = 0, grab_count = 0;
  Scope scope(&tracer, "scanner.cells");
  for (proto::Protocol protocol : config.protocols) {
    const std::uint32_t grab_span =
        tracer.id("scanner.zgrab.grab." + protocol_name(protocol));
    for (sim::OriginId origin = 0; origin < world.origins.size(); ++origin) {
      CellSample cell;
      whole.prewarm(origin, protocol);
      scan::ScanResult reference;
      cell.run_scan_ms = timed(tracer, "scanner.run_scan", [&] {
        reference = scan::run_scan(whole, origin, protocol);
      });

      timed(tracer, "sim.prewarm", [&] { parts.prewarm(origin, protocol); });
      scan::ZMapConfig zmap_config;  // as run_scan configures it
      zmap_config.seed =
          net::mix_u64(context.experiment_seed, context.trial, 0x5EEDAULL);
      zmap_config.universe_size = world.universe_size;
      zmap_config.protocol = protocol;
      zmap_config.scan_duration = config.scan_duration;
      zmap_config.source_ips = world.origins[origin].source_ips;
      scan::ZGrabConfig zgrab_config;
      zgrab_config.protocol = protocol;
      scan::ZMapScanner zmap(zmap_config, &parts, origin);
      scan::ZGrabEngine zgrab(zgrab_config, &parts, origin);
      std::vector<scan::ScanRecord> records;
      auto& [grabbed, completed] = grabs[protocol];
      scan::ZMapScanner::Stats stats;
      cell.zmap_ms = timed(tracer, "scanner.zmap.run", [&] {
        stats = zmap.run([&](const scan::L4Result& l4) {
          scan::ScanRecord record;
          record.addr = l4.addr;
          record.synack_mask = l4.synack_mask;
          record.rst_mask = l4.rst_mask;
          record.probe_second =
              static_cast<std::uint32_t>(l4.probe_time.seconds());
          if (l4.any_synack()) {
            ++synack_targets;
            net::VirtualTime connect_time = l4.probe_time;
            if (const auto as = world.as_of(l4.addr)) {
              connect_time += parts.rtt(origin, *as);
            }
            connect_time += net::VirtualTime::from_millis(5);
            const auto t0 = Clock::now();
            const scan::L7Result l7 =
                zgrab.grab(l4.source_ip, l4.addr, connect_time);
            tracer.leaf(grab_span, t0, Clock::now());
            record.l7 = l7.outcome;
            record.explicit_close = l7.explicit_close;
            ++grabbed;
            ++cell.grabs;
            attempts += static_cast<std::uint64_t>(l7.attempts);
            if (l7.outcome == sim::L7Outcome::kCompleted) ++completed;
          }
          records.push_back(record);
        });
      });
      targets += stats.targets_probed;
      grab_count += cell.grabs;
      // The collector's clock reads are replica-only work inside the ZMap
      // span; take their calibrated cost out.
      cell.zmap_ms -= tracer.leaf_cost_ns() * static_cast<double>(cell.grabs) / 1e6;
      std::sort(records.begin(), records.end(),
                [](const auto& a, const auto& b) { return a.addr < b.addr; });
      if (records != reference.records ||
          records != experiment.result(0, protocol, origin).records) {
        ++replica_mismatches;
      }
      cells.push_back(cell);
    }
  }

  // Materialized resolution: every address of the universe, per origin.
  std::uint64_t resolved = 0;
  timed(tracer, "sim.resolve_target", [&] {
    for (sim::OriginId origin = 0; origin < world.origins.size(); ++origin) {
      for (std::uint32_t addr = 0; addr < world.universe_size; ++addr) {
        (void)parts.resolve_target(net::Ipv4Addr(addr), origin);
        ++resolved;
      }
    }
  });

  if (replica_mismatches > 0) {
    out.fail(std::to_string(replica_mismatches) +
             " decomposed cells differ from run_scan / the grid");
  } else {
    out.note("decomposed trial-0 cells equal run_scan and the grid (" +
             std::to_string(cells.size()) + " cells)");
  }
  out.attempted += cells.size();
  out.failed += replica_mismatches;

  std::vector<double> run_scan_ms, residual_ms;
  double run_scan_total = 0, residual_total = 0;
  for (const CellSample& cell : cells) {
    run_scan_ms.push_back(cell.run_scan_ms);
    residual_ms.push_back(cell.run_scan_ms - cell.zmap_ms);
    run_scan_total += cell.run_scan_ms;
    residual_total += cell.run_scan_ms - cell.zmap_ms;
  }
  std::int64_t grab_ns = 0;
  for (proto::Protocol protocol : config.protocols) {
    const std::string name = protocol_name(protocol);
    const Tracer::Totals totals =
        tracer.totals_of("scanner.zgrab.grab." + name);
    grab_ns += totals.total_ns;
    const auto [grabbed, completed] = grabs[protocol];
    out.add("scanner.zgrab." + name + ".us_per_grab",
            totals.calls == 0 ? 0.0
                              : static_cast<double>(totals.total_ns) / 1e3 /
                                    static_cast<double>(totals.calls),
            "us");
    out.add("scanner.zgrab." + name + ".completed_ratio",
            grabbed == 0 ? 0.0 : static_cast<double>(completed) / grabbed,
            "ratio");
  }
  // Likewise for ZMap's self time.
  const double timing_ms =
      tracer.leaf_cost_ns() * static_cast<double>(grab_count) / 1e6;
  const Tracer::Totals zmap = tracer.totals_of("scanner.zmap.run");
  const double zmap_self_ms = ms(zmap.self_ns) - timing_ms;
  const Tracer::Totals resolve = tracer.totals_of("sim.resolve_target");
  const double resolve_ns_per_target =
      static_cast<double>(resolve.total_ns) / static_cast<double>(resolved);
  out.add("scanner.zgrab.attempts_per_grab",
          grab_count == 0 ? 0.0 : static_cast<double>(attempts) / grab_count,
          "count");
  out.add("scanner.zmap.ns_per_target",
          zmap_self_ms * 1e6 / static_cast<double>(targets), "ns");
  out.add("scanner.zmap.synack_ratio",
          static_cast<double>(synack_targets) / static_cast<double>(targets),
          "ratio");
  out.add("scanner.run_scan.ms_per_cell", median(run_scan_ms), "ms");
  out.add("scanner.run_scan.residual_ms_per_cell", median(residual_ms), "ms");
  out.add("sim.resolve_target.ns_per_target", resolve_ns_per_target, "ns");
  out.add("sim.prewarm_ms", per_call_ms(tracer, "sim.prewarm"), "ms");
  // Shares of serial run_scan time, for the ROADMAP profile table.
  out.add("scanner.zgrab.share", ms(grab_ns) / run_scan_total, "ratio");
  out.add("scanner.zmap.self_share", zmap_self_ms / run_scan_total, "ratio");
  out.add("sim.resolve.share",
          resolve_ns_per_target * static_cast<double>(targets) / 1e6 /
              run_scan_total,
          "ratio");
  out.add("scanner.finalize.share", residual_total / run_scan_total,
          "ratio");
}

void grid_layers(const Options& options, std::uint64_t seed, Tracer& tracer,
                 Outcome& out) {
  const std::string dir =
      options.out_dir + "/ledger-" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);

  std::unique_ptr<core::Experiment> experiment;
  const double build_ms = timed(tracer, "sim.build_world", [&] {
    experiment = std::make_unique<core::Experiment>(grid_config(seed));
  });
  out.add("sim.build_world_s", build_ms / 1e3, "s");

  // The in-process grid, with each cell's completion stamped from the
  // progress callback on the lane that ran it.
  struct Stamp {
    std::thread::id lane;
    Clock::time_point at;
  };
  std::mutex mutex;
  std::vector<Stamp> stamps;
  const auto run_start = Clock::now();
  const double run_ms = timed(tracer, "core.experiment.run", [&] {
    experiment->run([&](std::string_view) {
      const std::scoped_lock lock(mutex);
      stamps.push_back({std::this_thread::get_id(), Clock::now()});
    });
  });
  std::map<std::thread::id, std::vector<Clock::time_point>> by_lane;
  for (const Stamp& stamp : stamps) by_lane[stamp.lane].push_back(stamp.at);
  std::vector<double> cell_ms;
  double busy_ms = 0;
  int lane = 0;
  for (auto& [id, times] : by_lane) {
    std::sort(times.begin(), times.end());
    Clock::time_point previous = run_start;
    ++lane;
    for (const Clock::time_point at : times) {
      tracer.record("core.experiment.cell", previous, at, lane);
      cell_ms.push_back(seconds_between(previous, at) * 1e3);
      busy_ms += cell_ms.back();
      previous = at;
    }
  }
  if (cell_ms.size() != experiment->cell_count()) {
    throw std::runtime_error("progress callback saw " +
                             std::to_string(cell_ms.size()) + " of " +
                             std::to_string(experiment->cell_count()) +
                             " cells");
  }
  out.attempted += experiment->cell_count();
  out.add("core.experiment.cell_ms_p50", median(cell_ms), "ms");
  out.add("core.experiment.cell_ms_max",
          *std::max_element(cell_ms.begin(), cell_ms.end()), "ms");
  out.add("core.experiment.parallel_efficiency",
          busy_ms / (kGridJobs * run_ms), "ratio");

  // Store: serialize, save, parse.
  const auto& results = experiment->all_results();
  std::vector<std::uint8_t> bytes;
  const double serialize_ms = timed(tracer, "core.store.serialize", [&] {
    bytes = core::serialize_results(results);
  });
  bool saved = false;
  const double save_ms = timed(tracer, "core.store.save", [&] {
    saved = core::save_results(dir + "/results.bin", results);
  });
  std::optional<std::vector<scan::ScanResult>> parsed;
  const double parse_ms = timed(tracer, "core.store.parse",
                                [&] { parsed = core::parse_results(bytes); });
  if (!saved || !parsed || parsed->size() != results.size()) {
    out.fail("store round trip failed");
  }
  out.add("core.store.serialize_ms", serialize_ms, "ms");
  out.add("core.store.parse_ms", parse_ms, "ms");
  out.add("core.store.save_ms", save_ms, "ms");
  out.add("core.store.mib", static_cast<double>(bytes.size()) / (1 << 20),
          "MiB");

  // Analysis, per protocol.
  for (proto::Protocol protocol : proto::kAllProtocols) {
    std::optional<core::AccessMatrix> matrix;
    timed(tracer, "core.access_matrix.build", [&] {
      matrix.emplace(core::AccessMatrix::build(*experiment, protocol));
    });
    timed(tracer, "core.classification",
          [&] { const core::Classification classification(*matrix); });
    timed(tracer, "core.coverage",
          [&] { (void)core::compute_coverage(*matrix); });
  }
  out.add("core.access_matrix.build_ms",
          per_call_ms(tracer, "core.access_matrix.build"), "ms");
  out.add("core.classification.ms", per_call_ms(tracer, "core.classification"),
          "ms");
  out.add("core.coverage.ms", per_call_ms(tracer, "core.coverage"), "ms");

  // Journal: open, then record_done for every cell (twice, so the tail
  // percentile has ten samples beyond it). fsync included.
  {
    std::optional<core::ExperimentJournal> journal;
    const double open_ms = timed(tracer, "core.journal.open", [&] {
      journal = core::ExperimentJournal::open(
          dir + "/journal", experiment->config_fingerprint());
    });
    out.add("core.journal.open_ms", open_ms, "ms");
    std::vector<double> record_ms;
    bool recorded = journal.has_value();
    for (int round = 0; recorded && round < 2; ++round) {
      for (const scan::ScanResult& result : results) {
        const core::CellKey key{result.origin_code, result.protocol,
                                result.trial};
        record_ms.push_back(timed(tracer, "core.journal.record_done", [&] {
          recorded = recorded && journal->record_done(key, result,
                                                      core::IdsSnapshot{}, 1);
        }));
      }
    }
    if (!recorded) out.fail("journal record_done failed");
    out.add("core.journal.record_done_ms_p50",
            record_ms.empty() ? 0.0 : median(record_ms), "ms");
    out.add("core.journal.record_done_ms_p90",
            record_ms.empty() ? 0.0 : percentile(record_ms, 90), "ms");
  }

  // Dist: the same grid over worker processes, journaled, against the
  // in-process run at equal lanes.
  {
    core::Experiment dist_experiment(grid_config(seed));
    obsv::MetricBlock dist_block;
    std::string error;
    auto journal = core::ExperimentJournal::open(
        dir + "/dist-journal", dist_experiment.config_fingerprint(), &error);
    core::RunReport report;
    const core::DistOptions dist = grid_dist_options(options, seed);
    const double dist_ms = timed(tracer, "core.dist.run_distributed", [&] {
      if (journal) {
        report = core::run_distributed(dist_experiment, &*journal,
                                       core::SupervisorPolicy{}, dist,
                                       &dist_block);
      }
    });
    out.attempted += dist_experiment.cell_count();
    if (!journal || !report.complete() ||
        core::serialize_results(dist_experiment.all_results()) != bytes) {
      out.failed += dist_experiment.cell_count();
      out.fail("distributed grid differs from the in-process grid");
    }
    out.add("core.dist.overhead_ratio", dist_ms / run_ms, "ratio");
    out.add("core.dist.segments",
            static_cast<double>(
                dist_block.counter(obsv::Counter::kDistSegmentsReceived)),
            "count");
  }

  // Frame codec over the per-cell store segments the dist protocol and
  // the journal carry.
  {
    std::vector<std::vector<std::uint8_t>> payloads;
    for (const scan::ScanResult& result : results) {
      payloads.push_back(core::serialize_results({result}));
    }
    std::uint64_t payload_bytes = 0;
    bool framed = true;
    for (int round = 0; round < 3; ++round) {
      for (const auto& payload : payloads) {
        const auto t0 = Clock::now();
        const auto frame = net::encode_frame(payload);
        const auto t1 = Clock::now();
        net::FrameView view;
        const net::FrameError error = net::parse_frame(frame, view);
        const auto t2 = Clock::now();
        tracer.leaf("netbase.frame.encode", t0, t1);
        tracer.leaf("netbase.frame.parse", t1, t2);
        framed = framed && error == net::FrameError::kNone &&
                 view.payload.size() == payload.size();
        payload_bytes += payload.size();
      }
    }
    if (!framed) out.fail("frame round trip failed");
    const auto mb_per_s = [&](std::string_view name) {
      return static_cast<double>(payload_bytes) * 1e3 /
             static_cast<double>(tracer.totals_of(name).total_ns);
    };
    out.add("netbase.frame.encode_mb_per_s",
            mb_per_s("netbase.frame.encode"), "MB/s");
    out.add("netbase.frame.parse_mb_per_s", mb_per_s("netbase.frame.parse"),
            "MB/s");
  }

  decompose_cells(*experiment, tracer, out);
  fs::remove_all(dir);
}

// ---- the procedural sweep's L4 pipeline ---------------------------------------

void sweep_layers(std::uint64_t seed, Tracer& tracer, Outcome& out) {
  std::optional<sim::World> world;
  const double build_ms = timed(tracer, "sim.build_world.procedural", [&] {
    world.emplace(sweep_world(kSweepCheckBits, seed));
  });
  out.add("sim.build_world_procedural_s", build_ms / 1e3, "s");

  double serial_s = 0, parallel_s = 0;
  const scan::SweepResult serial = sweep_once(*world, 1, &serial_s, &tracer);
  const scan::SweepResult parallel =
      sweep_once(*world, kSweepJobs, &parallel_s, &tracer);
  out.attempted += 2;
  if (!(serial == parallel)) {
    ++out.failed;
    out.fail("sweep jobs 1 and 4 disagree");
  }
  out.add("scanner.run_l4_sweep.parallel_efficiency",
          serial_s / (kSweepJobs * parallel_s), "ratio");

  // The batch pipeline the sweep runs, one stage per span: permutation
  // draws, resolve_batch, handle_probe_batch, over the first 2^22 targets
  // of the permutation.
  sim::PersistentState persistent;
  sim::Internet internet(&*world, sweep_context(*world), &persistent);
  const sim::OriginId origin = world->origin_id("US1");
  sim::ProbeContext context;
  timed(tracer, "sim.probe_context", [&] {
    context = internet.probe_context(origin, proto::Protocol::kHttp);
  });
  auto group = scan::CyclicGroup::for_size(
      world->universe_size,
      net::mix_u64(world->seed, 0, 0x5EEDAULL));
  auto iterator = group.all();
  auto batch = std::make_unique<sim::ProbeBatch>();
  std::array<std::uint32_t, sim::ProbeBatch::kCapacity> addrs{};
  constexpr std::uint64_t kTargets = 1u << 22;
  constexpr int kProbes = 2;
  // The sweep's virtual clock: 2^24 targets x 2 probes over 21 hours.
  const double us_per_slot = 21.0 * 3600e6 /
                             (static_cast<double>(world->universe_size) * 2);
  std::uint64_t targets = 0, live = 0, slot = 0;
  Scope stages(&tracer, "sim.l4_pipeline");
  while (targets < kTargets) {
    const auto t0 = Clock::now();
    const std::size_t n = iterator.next_batch(addrs);
    const auto t1 = Clock::now();
    tracer.leaf("scanner.permutation.next_batch", t0, t1);
    if (n == 0) break;
    batch->size = static_cast<int>(n);
    batch->probes = kProbes;
    for (std::size_t i = 0; i < n; ++i) {
      batch->addr[i] = net::Ipv4Addr(addrs[i]);
      batch->sent_mask[i] = (1u << kProbes) - 1;
      for (int p = 0; p < kProbes; ++p) {
        batch->time_us[p * sim::ProbeBatch::kCapacity + i] =
            static_cast<std::int64_t>(static_cast<double>(slot + p) *
                                      us_per_slot);
      }
      slot += kProbes;
    }
    const auto t2 = Clock::now();
    context.resolve_batch(*batch);
    const auto t3 = Clock::now();
    internet.handle_probe_batch(context, *batch);
    const auto t4 = Clock::now();
    tracer.leaf("sim.resolve_batch", t2, t3);
    tracer.leaf("sim.handle_probe_batch", t3, t4);
    for (std::size_t i = 0; i < n; ++i) live += batch->live_mask[i] != 0;
    targets += n;
  }
  const auto per = [&](std::string_view name) {
    return static_cast<double>(tracer.totals_of(name).total_ns) /
           static_cast<double>(targets);
  };
  out.add("scanner.permutation.ns_per_addr",
          per("scanner.permutation.next_batch"), "ns");
  out.add("sim.resolve_batch.ns_per_target", per("sim.resolve_batch"), "ns");
  out.add("sim.handle_probe_batch.ns_per_target",
          per("sim.handle_probe_batch"), "ns");
  out.add("sim.live_ratio",
          static_cast<double>(live) / static_cast<double>(targets), "ratio");
}

// ---- service ------------------------------------------------------------------

void service_layers(const Options& options, std::uint64_t seed,
                    Tracer& tracer, Outcome& out) {
  std::unique_ptr<SessionOracle> oracle;
  timed(tracer, "service.universe_build",
        [&] { oracle = std::make_unique<SessionOracle>(seed); });
  out.add("service.universe_build_s", oracle->build_s(), "s");

  // Direct sessions on the daemon's spec mix: 1000 calls, so p99 has ten
  // samples beyond it.
  const SpecMix mix{options.seed + 1};
  std::vector<double> session_ms;
  std::vector<std::vector<std::uint8_t>> records;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const service::SessionSpec spec = mix.at(i);
    service::SessionOutcome outcome;
    session_ms.push_back(timed(tracer, "service.run_session", [&] {
      outcome = service::run_session(oracle->universe(), spec);
    }));
    if (!outcome.ok) out.fail("run_session failed for " + spec_key(spec));
    if (records.size() < 64) records.push_back(std::move(outcome.records));
  }
  out.attempted += session_ms.size();
  out.add("service.run_session.ms_p50", median(session_ms), "ms");
  out.add("service.run_session.ms_p99", percentile(session_ms, 99), "ms");

  // RESULT codec: encode + decode of real result payloads.
  bool decoded = true;
  for (int round = 0; round < 16; ++round) {
    for (const auto& payload : records) {
      service::ServiceWire result;
      result.type = service::ServiceMsg::kResult;
      result.request_id = 1;
      result.records = payload;
      const auto t0 = Clock::now();
      const auto frame = service::encode_service_message(result);
      net::FrameView view;
      const bool ok = net::parse_frame(frame, view) == net::FrameError::kNone;
      const auto message =
          ok ? service::decode_service_message(view.payload) : std::nullopt;
      tracer.leaf("service.wire.result_codec", t0, Clock::now());
      decoded = decoded && message && message->records == payload;
    }
  }
  if (!decoded) out.fail("RESULT codec round trip failed");
  const Tracer::Totals codec = tracer.totals_of("service.wire.result_codec");
  out.add("service.wire.result_codec_us",
          static_cast<double>(codec.total_ns) / 1e3 /
              static_cast<double>(codec.calls),
          "us");

  // A real daemon offered exactly 1000 requests at the offered rate (20 s
  // at the default 50 rps), so each p99 has ten samples beyond it: client
  // latency minus the direct session time of the same spec is the wait
  // the daemon added (queueing, wire, scheduling).
  fs::create_directories(options.out_dir);
  const std::string socket =
      options.out_dir + "/l" + std::to_string(::getpid()) + ".sock";
  DaemonProcess daemon(options, seed, socket);
  if (!daemon.ok()) {
    out.fail("ledger daemon start: " + daemon.error());
    return;
  }
  ResultLedger results;
  const auto due =
      poisson_arrivals(options.seed ^ 0x1ED6E5ULL, options.rate_rps, 1000);
  DaemonPhase phase;
  timed(tracer, "service.phase.open_loop", [&] {
    phase = drive_daemon(daemon.socket_path(), mix, 0, due, results, &tracer);
  });
  if (!daemon.stop()) out.fail("ledger daemon did not exit cleanly");
  out.attempted += phase.attempted;
  const std::uint64_t mismatched = results.verify(*oracle);
  const std::uint64_t unanswered =
      phase.attempted - (phase.answered - phase.refused);
  out.failed += mismatched + unanswered;
  if (!phase.error.empty()) out.fail(phase.error);
  if (mismatched + unanswered > 0) out.fail("ledger daemon requests failed");
  std::vector<double> wait_ms;
  for (std::size_t i = 0; i < phase.latency_ms.size(); ++i) {
    wait_ms.push_back(phase.latency_ms[i] - oracle->session_ms(phase.keys[i]));
  }
  if (wait_ms.empty() || phase.gen_late_ms.empty()) {
    out.fail("ledger daemon answered nothing");
    return;
  }
  char line[200];
  std::snprintf(line, sizeof line,
                "ledger daemon: open loop, seeded Poisson arrivals at %.1f "
                "rps offered, %zu requests over %d connections; latency "
                "from due time p50 %.3f ms p99 %.3f ms",
                options.rate_rps, due.size(), kDaemonConnections,
                median(phase.latency_ms), percentile(phase.latency_ms, 99));
  out.note(line);
  out.add("service.queue_wait_ms_p50", median(wait_ms), "ms");
  out.add("service.queue_wait_ms_p99", percentile(wait_ms, 99), "ms");
  out.add("loadgen.gen_late_ms_p99", percentile(phase.gen_late_ms, 99), "ms");
}

}  // namespace

void run_ledger(const Options& options, Tracer& tracer, Outcome& out) {
  const std::uint64_t seed = scenario_seed(options.seed);
  Scope scope(&tracer, "ledger");
  grid_layers(options, seed, tracer, out);
  sweep_layers(seed, tracer, out);
  service_layers(options, seed, tracer, out);
}

}  // namespace perfbench
