#include "scanner/orchestrator.h"

#include <algorithm>
#include <array>
#include <exception>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/parallel.h"
#include "netbase/rng.h"

namespace originscan::scan {
namespace {

// The deferral predicate shared by the lane executor and the scan trace:
// whether probes to `dst` feed a rate-IDS counter for `protocol`. Those
// counters are the simulation's one order-sensitive state, so such targets
// run on one serial lane in global permutation order. Procedural catalog
// networks carry no rate IDS (scenario.cc:build_catalog), so addresses
// above the override boundary short-circuit without a derivation.
auto rate_ids_defer(const sim::Internet& internet, proto::Protocol protocol) {
  return [&world = internet.world(), &policy = internet.policy_engine(),
          protocol](net::Ipv4Addr dst) {
    if (world.procedural.covers(dst)) return false;
    const auto as = world.as_of(dst);
    return as && policy.rate_ids_applies(*as, protocol);
  };
}

// The sweep configuration run_scan and run_l4_sweep share (their options
// structs name these fields alike). One permutation seed per trial,
// shared by every synchronized origin.
template <typename Options>
ZMapConfig make_zmap_config(const sim::Internet& internet,
                            sim::OriginId origin, proto::Protocol protocol,
                            const Options& options) {
  const sim::World& world = internet.world();
  ZMapConfig config;
  config.seed = net::mix_u64(internet.context().experiment_seed,
                             internet.context().trial, 0x5EEDAULL);
  config.universe_size = world.universe_size;
  config.protocol = protocol;
  config.probes = options.probes;
  config.probe_interval = options.probe_interval;
  config.scan_duration = options.scan_duration;
  config.source_ips = world.origins[origin].source_ips;
  config.blocklist = options.blocklist;
  config.cancel = options.cancel;
  return config;
}

// Targets dealt out per window when lanes run concurrently. The lanes
// buffer two windows (16 bytes a target): the one being probed and the
// next, dealt meanwhile. So the sweep's per-target memory peaks at two
// windows whatever the universe size; each window ends at a join, so
// smaller windows trade join overhead for memory. A single lane has no
// join to amortize, so its window is one probe batch.
constexpr std::size_t kWindowTargets = std::size_t{1} << 18;

// The one lane executor behind run_scan and run_l4_sweep. It walks the
// permutation (TargetWalk: filter, then global first-packet slot) in
// windows (see kWindowTargets) and deals each window's targets
// round-robin to `jobs` lanes. When lanes run concurrently, rate-IDS
// targets go instead to one extra deferred lane, which is submitted first
// in each window; a single lane takes every target in permutation order,
// so the deferral predicate runs only when lanes are concurrent.
//
// Concurrent lanes run on one pool of `jobs` threads that lives for the
// whole sweep, and each lane's target vector is double-buffered: while
// the pool probes window k, the caller walks and deals window k+1 into
// the spare buffers, then joins the pool and swaps. Windows still run in
// permutation order, one at a time, so the deferred lane sees its targets
// in global order exactly as a single lane would. Every other probe
// decision is a pure function of the target and its global slot, so any
// dealing yields the same per-target results. A single lane runs inline
// on the caller's thread, one window after the other. If lanes throw, the
// lowest-indexed failure of the window (the deferred lane first) is
// rethrown once the window's lanes and the overlapped walk are done.
//
// `outputs` gets one entry per lane. `make_collector(output, metrics)`
// builds each lane's result callback once, before the sweep, from the
// lane's output and its single-writer metric block (null when `metrics`
// is); the lane blocks merge (commutatively) into `metrics` after the
// sweep. Returns the lanes' summed Stats, blocklist skips included.
template <typename Output, typename MakeCollector>
ZMapScanner::Stats run_lanes(sim::Internet& internet, sim::OriginId origin,
                               const ZMapConfig& config, int jobs,
                               obsv::MetricBlock* metrics,
                               std::vector<Output>& outputs,
                               const MakeCollector& make_collector) {
  // A scanner is built once per lane, so its probe context, block cache
  // and metric shard live for the whole sweep; building the first one
  // prewarms the Internet's caches before any lane runs.
  struct Lane {
    obsv::MetricBlock metrics;
    std::optional<ZMapScanner> scanner;
    std::function<void(const L4Result&)> collect;
    std::vector<ScheduledTarget> targets;  // the window being probed
    std::vector<ScheduledTarget> next;     // the window being dealt
    ZMapScanner::Stats stats;
    std::exception_ptr error;  // this window's failure, when pooled
  };
  const auto shards = static_cast<std::size_t>(std::max(1, jobs));
  const bool concurrent = shards > 1;
  const std::size_t window =
      concurrent ? kWindowTargets : ZMapScanner::kRunBatch;
  // lanes[0..shards) deal round-robin; when concurrent, lanes.back() is
  // the deferred lane.
  std::vector<Lane> lanes(concurrent ? shards + 1 : 1);
  outputs.resize(lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    ZMapConfig lane_config = config;
    lane_config.metrics = metrics != nullptr ? &lanes[i].metrics : nullptr;
    lanes[i].scanner.emplace(lane_config, &internet, origin);
    lanes[i].collect = make_collector(outputs[i], lane_config.metrics);
  }
  if (metrics != nullptr) {
    metrics->gauge_max(obsv::Gauge::kScanUniverseSize, config.universe_size);
  }

  const auto defer = rate_ids_defer(internet, config.protocol);
  TargetWalk walk(config);
  std::array<ScheduledTarget, ZMapScanner::kRunBatch> chunk;
  std::size_t next_lane = 0;
  // Walks and deals the next window into the lanes' spare buffers;
  // false once the walk is done or the sweep is cancelled.
  const auto deal = [&] {
    if (walk.done()) return false;
    if (config.cancel != nullptr && config.cancel->cancelled()) return false;
    for (Lane& lane : lanes) lane.next.clear();
    for (std::size_t in_window = 0; in_window < window && !walk.done();) {
      const std::size_t count = walk.next(chunk);
      for (std::size_t i = 0; i < count; ++i) {
        if (concurrent && defer(chunk[i].addr)) {
          lanes.back().next.push_back(chunk[i]);
        } else {
          lanes[next_lane].next.push_back(chunk[i]);
          if (++next_lane == shards) next_lane = 0;
        }
      }
      in_window += count;
    }
    return true;
  };
  const auto run = [](Lane& lane) {
    lane.stats += lane.scanner->run_scheduled(lane.targets, lane.collect);
  };
  // Declared after everything its tasks touch, so an exception out of the
  // walk joins the pool before the lanes go away.
  std::optional<core::ThreadPool> pool;
  if (concurrent) pool.emplace(jobs);
  const auto launch = [&](Lane& lane) {
    if (lane.targets.empty()) return;
    if (!pool) {
      run(lane);
      return;
    }
    pool->submit([&lane, run] {
      try {
        run(lane);
      } catch (...) {
        lane.error = std::current_exception();
      }
    });
  };
  // Submission order. The deferred lane goes first: it cannot be split,
  // so it must not queue behind the shard lanes.
  const auto in_order = [&lanes](const auto& visit) {
    visit(lanes.back());
    for (std::size_t i = 0; i + 1 < lanes.size(); ++i) visit(lanes[i]);
  };

  for (bool dealt = deal(); dealt;) {
    for (Lane& lane : lanes) lane.targets.swap(lane.next);
    in_order(launch);
    dealt = deal();
    if (!pool) continue;
    pool->wait();
    in_order([](const Lane& lane) {
      if (lane.error) std::rethrow_exception(lane.error);
    });
  }

  ZMapScanner::Stats stats;
  for (const Lane& lane : lanes) {
    stats += lane.stats;
    if (metrics != nullptr) metrics->merge_from(lane.metrics);
  }
  stats.blocklisted_skipped = walk.blocklisted();
  if (metrics != nullptr) {
    metrics->add(obsv::Counter::kZmapBlocklistedSkipped, walk.blocklisted());
  }
  return stats;
}

// Bumps the bucket for a grab that took `attempts` handshake attempts.
void record_attempts(std::vector<std::uint64_t>& histogram, int attempts) {
  if (attempts <= 0) return;
  if (histogram.size() < static_cast<std::size_t>(attempts)) {
    histogram.resize(static_cast<std::size_t>(attempts), 0);
  }
  ++histogram[static_cast<std::size_t>(attempts) - 1];
}

// Element-wise histogram sum (parallel lane merge).
void merge_histograms(std::vector<std::uint64_t>& into,
                      const std::vector<std::uint64_t>& from) {
  if (into.size() < from.size()) into.resize(from.size(), 0);
  for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
}

// Builds one lane's L4 callback: record the probe result into `lane`
// and, if a SYN-ACK arrived, run the ZGrab follow-up on the lane's own
// engine. Every lane uses it, so their per-record behavior cannot diverge.
std::function<void(const L4Result&)> make_collector(
    sim::Internet& internet, sim::OriginId origin, ZGrabEngine zgrab,
    const ScanOptions& options, ScanResult& lane) {
  const sim::World& world = internet.world();
  return [&internet, zgrab = std::move(zgrab), &options, &lane, &world,
          origin](const L4Result& l4) mutable {
    ScanRecord record;
    record.addr = l4.addr;
    record.synack_mask = l4.synack_mask;
    record.rst_mask = l4.rst_mask;
    record.probe_second =
        static_cast<std::uint32_t>(l4.probe_time.seconds());

    std::string banner;
    if (l4.any_synack()) {
      // ZGrab connects as soon as the first SYN-ACK arrives: one RTT
      // after whichever probe was answered first (delayed second probes
      // shift the handshake with them), plus a small turnaround.
      const auto as = world.as_of(l4.addr);
      net::VirtualTime connect_time = l4.probe_time;
      const int first_answered = __builtin_ctz(l4.synack_mask);
      connect_time += net::VirtualTime::from_micros(
          options.probe_interval.micros() * first_answered);
      if (as) connect_time += internet.rtt(origin, *as);
      connect_time += net::VirtualTime::from_millis(5);

      const L7Result l7 = zgrab.grab(l4.source_ip, l4.addr, connect_time);
      record.l7 = l7.outcome;
      record.explicit_close = l7.explicit_close;
      banner = l7.banner;
      record_attempts(lane.attempt_histogram, l7.attempts);
    }
    lane.records.push_back(record);
    if (options.keep_banners) lane.banners.push_back(std::move(banner));
  };
}

// Sorts records (and any parallel banners) by address. The banner vector
// must stay pair-aligned with the records — an empty banner vector means
// "banners not kept", anything else must match exactly, or a merged
// result would silently associate banners with the wrong hosts.
void finalize(ScanResult& result, bool keep_banners) {
  if (!result.banners.empty() &&
      result.banners.size() != result.records.size()) {
    throw std::logic_error(
        "ScanResult banner/record misalignment: " +
        std::to_string(result.banners.size()) + " banners vs " +
        std::to_string(result.records.size()) + " records");
  }
  std::vector<std::size_t> order(result.records.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return result.records[a].addr < result.records[b].addr;
  });
  std::vector<ScanRecord> sorted_records;
  sorted_records.reserve(result.records.size());
  std::vector<std::string> sorted_banners;
  sorted_banners.reserve(result.banners.size());
  for (std::size_t i : order) {
    sorted_records.push_back(result.records[i]);
    if (keep_banners && !result.banners.empty()) {
      sorted_banners.push_back(std::move(result.banners[i]));
    }
  }
  result.records = std::move(sorted_records);
  result.banners = std::move(sorted_banners);
}

// Emits the scan's virtual-clock phase spans. The shard-lane spans come
// from a canonical 4-way partition (permutation position mod 4, rate-IDS
// targets apart) computed here, NOT from the lanes that actually executed
// — the partition is a pure function of the permutation, so the trace is
// byte-identical for any --jobs value (the determinism contract in
// DESIGN.md §9). Runs once per scan, after the sweep, and only when
// tracing is enabled; its extra permutation walk never touches the
// disabled path.
void emit_scan_trace(const ScanOptions& options, const ZMapConfig& zmap_config,
                     const sim::Internet& internet, const ScanResult& result) {
  constexpr std::size_t kTraceLanes = 4;
  // A running count, first and last first-packet slot per lane; slots
  // grow along the walk. lanes[kTraceLanes] is the deferred lane.
  struct LaneSpan {
    std::uint64_t targets = 0;
    std::uint64_t first = 0;
    std::uint64_t last = 0;
  };
  std::array<LaneSpan, kTraceLanes + 1> lanes;
  const auto defer = rate_ids_defer(internet, zmap_config.protocol);
  TargetWalk walk(zmap_config);
  ScheduledTarget target;
  while (!walk.done()) {
    // One entry per pull, so last_position() is this target's position.
    if (walk.next(std::span<ScheduledTarget>(&target, 1)) == 0) continue;
    LaneSpan& lane = defer(target.addr)
                         ? lanes.back()
                         : lanes[walk.last_position() % kTraceLanes];
    if (lane.targets++ == 0) lane.first = target.first_packet;
    lane.last = target.first_packet;
  }

  const double spp = 1.0 / zmap_config.effective_pps();
  const auto slot_time = [spp](std::uint64_t slot) {
    return net::VirtualTime::from_seconds(static_cast<double>(slot) * spp);
  };
  const std::uint64_t probes = static_cast<std::uint64_t>(zmap_config.probes);
  obsv::TraceRecorder& trace = *options.trace;
  const std::string& track = options.trace_track;

  trace.instant(track, "permutation.build", net::VirtualTime{},
                {{"targets", std::to_string(walk.targets())},
                 {"blocklisted", std::to_string(walk.blocklisted())},
                 {"deferred", std::to_string(lanes.back().targets)}});

  const auto lane_span = [&](const LaneSpan& lane,
                             const std::string& lane_track,
                             const std::string& name) {
    if (lane.targets == 0) return;
    trace.span(lane_track, name, slot_time(lane.first),
               slot_time(lane.last + probes - 1),
               {{"targets", std::to_string(lane.targets)}});
  };
  for (std::size_t i = 0; i < kTraceLanes; ++i) {
    lane_span(lanes[i], track + "/lane" + std::to_string(i), "zmap.lane");
  }
  lane_span(lanes.back(), track + "/deferred", "zmap.lane.deferred");

  // ZMap's cooldown: after the last packet leaves, the receive thread
  // keeps listening (8 s by default) for stragglers. Our virtual-clock
  // analog is a fixed window after the final schedule slot.
  const std::uint64_t total_packets = walk.targets() * probes;
  if (total_packets > 0) {
    const net::VirtualTime sweep_end = slot_time(total_packets - 1);
    trace.span(track, "zmap.cooldown", sweep_end,
               sweep_end + net::VirtualTime::from_seconds(8.0), {});
  }

  // The zgrab wave: the span of probe times across every record whose
  // SYN-ACK triggered an L7 handshake. Records are address-sorted and
  // byte-identical across jobs, so min/max are too.
  bool any_l7 = false;
  std::uint32_t first_second = 0;
  std::uint32_t last_second = 0;
  std::uint64_t grabs = 0;
  for (const ScanRecord& record : result.records) {
    if (record.l7 == sim::L7Outcome::kNotAttempted) continue;
    if (!any_l7 || record.probe_second < first_second) {
      first_second = record.probe_second;
    }
    if (!any_l7 || record.probe_second > last_second) {
      last_second = record.probe_second;
    }
    any_l7 = true;
    ++grabs;
  }
  if (any_l7) {
    trace.span(track, "zgrab.wave",
               net::VirtualTime::from_seconds(first_second),
               net::VirtualTime::from_seconds(last_second),
               {{"grabs", std::to_string(grabs)}});
  }
}

}  // namespace

ScanResult run_scan(sim::Internet& internet, sim::OriginId origin,
                    proto::Protocol protocol, const ScanOptions& options) {
  ZMapConfig zmap_config =
      make_zmap_config(internet, origin, protocol, options);
  zmap_config.allowlist = options.target_prefix;
  zmap_config.faults = options.faults;

  ZGrabConfig zgrab_config;
  zgrab_config.protocol = protocol;
  zgrab_config.retry.max_retries = options.l7_retries;
  zgrab_config.retry.retry_banner_failures = options.retry_banner_failures;
  zgrab_config.faults = options.faults;

  ScanResult result;
  result.origin_code = internet.world().origins[origin].code;
  result.protocol = protocol;
  result.trial = internet.context().trial;

  // Each lane gathers its records, banners and attempt counts into its
  // own ScanResult; they merge into the canonical address-sorted result.
  std::vector<ScanResult> lanes;
  result.l4_stats = run_lanes(
      internet, origin, zmap_config, options.jobs, options.metrics, lanes,
      [&](ScanResult& lane, obsv::MetricBlock* metrics) {
        ZGrabConfig lane_zgrab = zgrab_config;
        lane_zgrab.metrics = metrics;
        return make_collector(internet, origin,
                              ZGrabEngine(lane_zgrab, &internet, origin),
                              options, lane);
      });
  result.aborted = options.cancel != nullptr && options.cancel->cancelled();

  std::size_t total_records = 0;
  for (const ScanResult& lane : lanes) total_records += lane.records.size();
  result.records.reserve(total_records);
  for (ScanResult& lane : lanes) {
    merge_histograms(result.attempt_histogram, lane.attempt_histogram);
    result.records.insert(result.records.end(), lane.records.begin(),
                          lane.records.end());
    result.banners.insert(result.banners.end(),
                          std::make_move_iterator(lane.banners.begin()),
                          std::make_move_iterator(lane.banners.end()));
  }
  lanes.clear();
  finalize(result, options.keep_banners);
  if (options.trace != nullptr && !result.aborted) {
    emit_scan_trace(options, zmap_config, internet, result);
  }
  return result;
}

SweepResult run_l4_sweep(sim::Internet& internet, sim::OriginId origin,
                         proto::Protocol protocol,
                         const SweepOptions& options) {
  const ZMapConfig zmap_config =
      make_zmap_config(internet, origin, protocol, options);

  // Each lane folds its results into its own SweepResult. Folding is
  // addition only, so the merged totals are independent of lane count and
  // order.
  std::vector<SweepResult> lanes;
  SweepResult result;
  result.l4_stats = run_lanes(
      internet, origin, zmap_config, options.jobs, options.metrics, lanes,
      [](SweepResult& lane, obsv::MetricBlock*) {
        return [&lane](const L4Result& l4) {
          const auto probe_second =
              static_cast<std::uint32_t>(l4.probe_time.seconds());
          lane.digest += net::mix_u64(
              l4.addr.value(),
              (static_cast<std::uint64_t>(l4.synack_mask) << 8) | l4.rst_mask,
              probe_second);
          ++lane.responsive;
          if (l4.synack_mask != 0) {
            ++lane.synack_targets;
          } else {
            ++lane.rst_only_targets;
          }
        };
      });
  for (const SweepResult& lane : lanes) {
    result.digest += lane.digest;
    result.responsive += lane.responsive;
    result.synack_targets += lane.synack_targets;
    result.rst_only_targets += lane.rst_only_targets;
  }
  result.aborted = options.cancel != nullptr && options.cancel->cancelled();
  return result;
}

}  // namespace originscan::scan
