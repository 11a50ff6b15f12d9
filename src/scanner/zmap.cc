#include "scanner/zmap.h"

#include <algorithm>
#include <array>
#include <barrier>
#include <bit>
#include <cassert>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "netbase/rng.h"

namespace originscan::scan {

// walk_shards hands out kRunBatch-target chunks, and run_scheduled probes
// in chunks of the same size; the two batch sizes must agree so a full
// chunk is exactly one probe batch.
static_assert(ZMapScanner::kRunBatch == sim::ProbeBatch::kCapacity);

ZMapScanner::ZMapScanner(const ZMapConfig& config, sim::Internet* internet,
                         sim::OriginId origin)
    : config_(config),
      internet_(internet),
      origin_(origin),
      // Resolving the lock-free context here (prewarming the caches if
      // needed) keeps every per-packet step of run_scheduled()
      // synchronization-free.
      context_(internet->probe_context(origin, config.protocol)) {
  assert(!config_.source_ips.empty());
  assert(config_.universe_size > 0);
  if (config_.probes < 1 || config_.probes > sim::ProbeBatch::kMaxProbes) {
    throw std::invalid_argument(
        "ZMapConfig::probes must be in [1, " +
        std::to_string(sim::ProbeBatch::kMaxProbes) + "], got " +
        std::to_string(config_.probes));
  }
  // The scanner and its probe context share one lane-owned block; both
  // run on this lane's thread, so single-writer discipline holds.
  context_.set_metrics(config_.metrics);
}

ZMapScanner::Stats& ZMapScanner::Stats::operator+=(const Stats& other) {
  targets_probed += other.targets_probed;
  packets_sent += other.packets_sent;
  blocklisted_skipped += other.blocklisted_skipped;
  synacks += other.synacks;
  rsts += other.rsts;
  validation_failures += other.validation_failures;
  return *this;
}

net::Ipv4Addr ZMapScanner::source_ip_for(net::Ipv4Addr dst) const {
  if (config_.source_ips.size() == 1) return config_.source_ips.front();
  const std::uint64_t index =
      net::mix_u64(dst.value(), 0x5AC1Fu) % config_.source_ips.size();
  return config_.source_ips[index];
}

void ZMapScanner::probe_batch(
    std::span<const ScheduledTarget> targets, double seconds_per_packet,
    Stats& stats, const std::function<void(const L4Result&)>& on_result) {
  const int count = static_cast<int>(targets.size());
  const int probes = config_.probes;
  assert(count <= sim::ProbeBatch::kCapacity);
  obsv::MetricBlock* const metrics = config_.metrics;
  sim::ProbeBatch& batch = batch_;
  batch.size = count;
  batch.probes = probes;

  stats.targets_probed += static_cast<std::uint64_t>(count);
  if (metrics != nullptr) {
    metrics->add(obsv::Counter::kZmapTargetsProbed,
                 static_cast<std::uint64_t>(count));
  }

  // Fill pass: addresses, per-probe send times (the virtual clock is a
  // pure function of the global schedule slot, so any lane stamps its
  // packets exactly as the single-lane sweep does; a delayed follow-up probe
  // leaves probe_interval later, outside the rate limiter's accounting),
  // and the delivered mask after send-layer faults. A transient send
  // failure (the sendto EAGAIN analog) is retried in place; the injector
  // never reports more consecutive failures than kSendRetries, and its
  // hit counters carry the diagnostics, so Stats stay byte-identical to a
  // fault-free run.
  std::uint64_t send_failures_total = 0;
  std::uint64_t send_drops = 0;
  const std::uint8_t all_probes_mask =
      static_cast<std::uint8_t>((1u << probes) - 1);
  for (int i = 0; i < count; ++i) {
    const net::Ipv4Addr dst = targets[i].addr;
    batch.addr[i] = dst;
    std::uint8_t sent = all_probes_mask;
    for (int p = 0; p < probes; ++p) {
      // A target's probes occupy consecutive slots: back-to-back sends.
      const std::uint64_t slot =
          targets[i].first_packet + static_cast<std::uint64_t>(p);
      std::int64_t us = net::VirtualTime::from_seconds(
                            static_cast<double>(slot) * seconds_per_packet)
                            .micros();
      if (p > 0) us += config_.probe_interval.micros() * p;
      batch.time_us[p * sim::ProbeBatch::kCapacity + i] = us;
      if (config_.faults != nullptr) {
        const int failures = config_.faults->send_failures(slot, dst);
        if (failures > kSendRetries) {  // unreachable by injector contract
          sent &= static_cast<std::uint8_t>(~(1u << p));
          continue;
        }
        send_failures_total += static_cast<std::uint64_t>(failures);
        if (config_.faults->drop_at_slot(slot, dst)) {
          sent &= static_cast<std::uint8_t>(~(1u << p));
          ++send_drops;  // lost in flight; the send itself still counts
        }
      }
    }
    batch.sent_mask[i] = sent;
  }
  // Every probe was sent (send failures are retried in place and never
  // exceed the retry budget), so the send counters are batch-constant.
  stats.packets_sent += static_cast<std::uint64_t>(count) * probes;
  if (metrics != nullptr) {
    metrics->add(obsv::Counter::kZmapProbesSent,
                 static_cast<std::uint64_t>(count) * probes);
    if (send_failures_total != 0) {
      metrics->add(obsv::Counter::kZmapSendRetries, send_failures_total);
      metrics->add(obsv::Counter::kFaultSendFail, send_failures_total);
    }
    if (send_drops != 0) {
      metrics->add(obsv::Counter::kFaultProbeDrop, send_drops);
    }
  }

  context_.resolve_batch(batch);
  internet_->handle_probe_batch(context_, batch);

  // Emission pass: each live probe takes its policy verdict and reply in
  // the exact (target, probe) order of the sweep, and each target's
  // result reaches on_result before the next target is answered — the
  // policy engine's rate-IDS counters are the one order-sensitive state,
  // and the collector's connects feed them too.
  //
  // The simulated responder echoes the SYN's MAC material back, so
  // validating an uncorrupted in-sim response always succeeds: the
  // validation outcome is exactly !corrupt_response, and the SYN's MAC
  // fields are never computed.
  for (int i = 0; i < count; ++i) {
    const std::uint8_t live = batch.live_mask[i];
    if (live == 0) continue;
    const net::Ipv4Addr dst = batch.addr[i];
    const net::Ipv4Addr src_ip = source_ip_for(dst);

    L4Result result;
    result.addr = dst;
    result.source_ip = src_ip;
    result.probe_time = net::VirtualTime::from_seconds(
        static_cast<double>(targets[i].first_packet) * seconds_per_packet);

    for (int p = 0; p < probes; ++p) {
      if (((live >> p) & 1) == 0) continue;
      const std::uint64_t slot =
          targets[i].first_packet + static_cast<std::uint64_t>(p);
      const sim::ProbeContext::Reply reply =
          context_.respond(batch, i, p, src_ip);
      if (reply == sim::ProbeContext::Reply::kNone) continue;
      if (config_.faults != nullptr &&
          config_.faults->corrupt_response(slot, dst)) {
        ++stats.validation_failures;
        if (metrics != nullptr) {
          metrics->add(obsv::Counter::kFaultMacCorrupt);
          metrics->add(obsv::Counter::kZmapValidationFailures);
        }
        continue;
      }
      if (reply == sim::ProbeContext::Reply::kSynAck) {
        result.synack_mask |= static_cast<std::uint8_t>(1u << p);
        ++stats.synacks;
        if (metrics != nullptr) {
          metrics->add(obsv::Counter::kZmapResponsesSynack);
        }
      } else {
        result.rst_mask |= static_cast<std::uint8_t>(1u << p);
        ++stats.rsts;
        if (metrics != nullptr) metrics->add(obsv::Counter::kZmapResponsesRst);
      }
      // ZMap keeps listening after the last probe leaves ("cooldown");
      // the virtual-clock analog is any validated answer to a target's
      // final probe.
      if (metrics != nullptr && p == probes - 1) {
        metrics->add(obsv::Counter::kZmapCooldownResponses);
      }
    }

    if (result.synack_mask != 0 || result.rst_mask != 0) {
      on_result(result);
    }
  }
}

ZMapScanner::Stats ZMapScanner::run(
    const std::function<void(const L4Result&)>& on_result) {
  Stats stats;
  stats.blocklisted_skipped = walk_shards(
      config_, 1, {}, [&](std::size_t, std::span<const ScheduledTarget> chunk) {
        stats += run_scheduled(chunk, on_result);
      });
  if (config_.metrics != nullptr) {
    config_.metrics->add(obsv::Counter::kZmapBlocklistedSkipped,
                         stats.blocklisted_skipped);
  }
  return stats;
}

ZMapScanner::Stats ZMapScanner::run_scheduled(
    std::span<const ScheduledTarget> targets,
    const std::function<void(const L4Result&)>& on_result) {
  Stats stats;
  const double seconds_per_packet = 1.0 / config_.effective_pps();
  // Chunked over the SoA pipeline; cancellation polls once per chunk.
  std::size_t offset = 0;
  while (offset < targets.size()) {
    if (config_.cancel != nullptr && config_.cancel->cancelled()) break;
    const std::size_t chunk =
        std::min<std::size_t>(kRunBatch, targets.size() - offset);
    probe_batch(targets.subspan(offset, chunk), seconds_per_packet, stats,
                on_result);
    offset += chunk;
  }
  return stats;
}

namespace {

// Positions per window of walk_shards. Lane i of k walks the
// kShardWindow / k of them congruent to i mod k and keeps 4 bytes per
// target it visits itself, so with one window walked ahead the lanes
// hold 2 MiB of addresses at any universe size.
constexpr std::size_t kShardWindow = std::size_t{1} << 18;

// One lane's walk of one window, by offset from the window's first
// position: the addresses of the lane's own targets, and for the barrier
// the offsets it filtered out (no send slot) and its deferred targets
// (first_packet holding the offset), all in walk order.
struct LaneWalk {
  std::size_t walked = 0;
  std::vector<net::Ipv4Addr> addrs;
  std::vector<std::uint32_t> filtered;
  std::vector<ScheduledTarget> deferred;
};

// A window as its barrier completes it: a bitmap of the filtered offsets
// with the count before each word, so the target at offset o is number
// first_target + o - (filtered offsets below o) of the sweep; and its
// deferred targets, slotted, in order.
struct Window {
  bool live = false;  // false: the sweep ends before this window
  std::uint64_t first_target = 0;
  std::vector<std::uint64_t> filtered;
  std::vector<std::uint32_t> filtered_before;
  std::vector<ScheduledTarget> deferred;

  [[nodiscard]] bool is_filtered(std::uint32_t offset) const {
    return ((filtered[offset / 64] >> (offset % 64)) & 1) != 0;
  }
  // Most words hold no filtered offset, and without -mpopcnt
  // std::popcount compiles to a libgcc call, so a zero word skips it.
  [[nodiscard]] std::uint64_t target(std::uint32_t offset) const {
    const std::uint64_t below =
        filtered[offset / 64] & ((std::uint64_t{1} << (offset % 64)) - 1);
    return first_target + offset - filtered_before[offset / 64] -
           (below == 0 ? 0 : static_cast<std::uint64_t>(std::popcount(below)));
  }
};

}  // namespace

std::uint64_t walk_shards(const ZMapConfig& config, std::size_t lanes,
                          const std::function<bool(net::Ipv4Addr)>& defer,
                          const ShardVisitor& visit) {
  assert(lanes >= 1);
  const std::size_t per_lane = std::max<std::size_t>(1, kShardWindow / lanes);
  const std::size_t words = (per_lane * lanes + 63) / 64;
  const auto probes = static_cast<std::uint64_t>(config.probes);
  const CyclicGroup group =
      CyclicGroup::for_size(config.universe_size, config.seed);
  // Indexed by window parity: a lane walks window w + 1 while it visits
  // window w. The deferred capacity is reserved (and untouched until
  // used; one lane defers nothing), so the completion step never
  // allocates.
  std::vector<std::array<LaneWalk, 2>> walks(lanes);
  std::array<Window, 2> windows;
  for (Window& window : windows) {
    window.filtered.resize(words);
    window.filtered_before.resize(words);
    if (lanes > 1) window.deferred.reserve(per_lane * lanes);
  }
  std::vector<std::uint64_t> blocklisted(lanes);
  // errors[i] is published before each of lane i's barrier arrivals.
  std::vector<std::exception_ptr> errors(lanes);

  // The barrier's completion step for window w: whether the sweep goes
  // on, and the slots of the window's deferred targets.
  std::uint64_t targets = 0;  // in the windows completed so far
  std::size_t completed = 0;
  const auto complete = [&]() noexcept {
    const std::size_t parity = completed++ % 2;
    Window& window = windows[parity];
    std::size_t walked = 0;
    for (const auto& walk : walks) walked += walk[parity].walked;
    window.live =
        walked > 0 &&
        std::none_of(errors.begin(), errors.end(),
                     [](const std::exception_ptr& error) { return error; }) &&
        (config.cancel == nullptr || !config.cancel->cancelled());
    if (!window.live) return;
    std::fill(window.filtered.begin(), window.filtered.end(), 0);
    window.deferred.clear();
    for (const auto& walk : walks) {
      for (const std::uint32_t offset : walk[parity].filtered) {
        window.filtered[offset / 64] |= std::uint64_t{1} << (offset % 64);
      }
      window.deferred.insert(window.deferred.end(),
                             walk[parity].deferred.begin(),
                             walk[parity].deferred.end());
    }
    std::uint32_t before = 0;
    for (std::size_t word = 0; word < words; ++word) {
      window.filtered_before[word] = before;
      before +=
          static_cast<std::uint32_t>(std::popcount(window.filtered[word]));
    }
    window.first_target = targets;
    targets += walked - before;
    std::sort(window.deferred.begin(), window.deferred.end(),
              [](const ScheduledTarget& a, const ScheduledTarget& b) {
                return a.first_packet < b.first_packet;
              });
    for (ScheduledTarget& target : window.deferred) {
      target.first_packet =
          window.target(static_cast<std::uint32_t>(target.first_packet)) *
          probes;
    }
  };
  std::barrier barrier(static_cast<std::ptrdiff_t>(lanes), complete);

  const auto walk = [&](std::size_t lane, CyclicGroup::Iterator& shard,
                        LaneWalk& out) {
    out.walked = 0;
    out.addrs.clear();
    out.filtered.clear();
    out.deferred.clear();
    std::array<std::uint64_t, ZMapScanner::kRunBatch> elements;
    while (out.walked < per_lane) {
      const std::size_t want =
          std::min(elements.size(), per_lane - out.walked);
      const std::size_t got = shard.next_positions(
          std::span<std::uint64_t>(elements.data(), want));
      for (std::size_t i = 0; i < got; ++i, ++out.walked) {
        const auto offset =
            static_cast<std::uint32_t>(lane + out.walked * lanes);
        const net::Ipv4Addr dst(static_cast<std::uint32_t>(elements[i]));
        if (elements[i] >= config.universe_size ||
            config.filters_out(dst, blocklisted[lane])) {
          out.filtered.push_back(offset);
        } else if (lanes > 1 && defer(dst)) {
          out.deferred.push_back(ScheduledTarget{dst, offset});
        } else {
          out.addrs.push_back(dst);
        }
      }
      if (got < want) break;
    }
  };

  // Slots the lane's own targets into stack chunks for `visit`.
  const auto visit_window = [&](std::size_t lane, const Window& window,
                                const LaneWalk& walked) {
    if (lane == 0 && !window.deferred.empty()) visit(lanes, window.deferred);
    std::array<ScheduledTarget, ZMapScanner::kRunBatch> chunk;
    std::size_t count = 0;
    std::size_t deferred = 0;
    for (std::size_t j = 0, next = 0; next < walked.addrs.size(); ++j) {
      const auto offset = static_cast<std::uint32_t>(lane + j * lanes);
      if (window.is_filtered(offset)) continue;
      if (deferred < walked.deferred.size() &&
          walked.deferred[deferred].first_packet == offset) {
        ++deferred;
        continue;
      }
      chunk[count++] = ScheduledTarget{walked.addrs[next++],
                                       window.target(offset) * probes};
      if (count == chunk.size() || next == walked.addrs.size()) {
        visit(lane, std::span<const ScheduledTarget>(chunk.data(), count));
        count = 0;
      }
    }
  };

  // A lane walks window w and arrives at the barrier, visits window w - 1,
  // then waits, so the completion step for window w overlaps the visits.
  // A failed lane stays at the barrier, and the next completion step ends
  // the sweep for every lane at once.
  const auto run_lane = [&](std::size_t lane) {
    CyclicGroup::Iterator shard = group.shard(
        static_cast<std::uint32_t>(lane), static_cast<std::uint32_t>(lanes));
    std::exception_ptr error;
    const auto guard = [&error](const auto& work) {
      if (error) return;
      try {
        work();
      } catch (...) {
        error = std::current_exception();
      }
    };
    for (std::size_t w = 0;; ++w) {
      guard([&] { walk(lane, shard, walks[lane][w % 2]); });
      errors[lane] = error;
      auto token = barrier.arrive();
      if (w > 0) {
        guard([&] {
          visit_window(lane, windows[(w - 1) % 2], walks[lane][(w - 1) % 2]);
        });
      }
      barrier.wait(std::move(token));
      if (!windows[w % 2].live) break;
    }
    errors[lane] = error;
  };

  std::vector<std::jthread> threads;
  threads.reserve(lanes - 1);
  for (std::size_t i = 1; i < lanes; ++i) {
    try {
      threads.emplace_back(run_lane, i);
    } catch (...) {
      // Arrive in place of a lane that did not start; its error ends the
      // sweep at the first barrier.
      errors[i] = std::current_exception();
      barrier.arrive_and_drop();
    }
  }
  run_lane(0);
  threads.clear();  // joins
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  std::uint64_t total = 0;
  for (const std::uint64_t count : blocklisted) total += count;
  return total;
}

}  // namespace originscan::scan
