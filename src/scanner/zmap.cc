#include "scanner/zmap.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>
#include <string>

#include "netbase/rng.h"

namespace originscan::scan {

// run() feeds permutation refills straight into the SoA pipeline; the
// two batch sizes must agree so a refill is exactly one probe batch.
static_assert(ZMapScanner::kRunBatch == sim::ProbeBatch::kCapacity);

ZMapScanner::ZMapScanner(const ZMapConfig& config, sim::Internet* internet,
                         sim::OriginId origin)
    : config_(config),
      internet_(internet),
      origin_(origin),
      // Resolving the lock-free context here (prewarming the caches if
      // needed) keeps every per-packet step of run()/run_scheduled()
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
  const double seconds_per_packet =
      1.0 / config_.effective_pps(config_.universe_size);

  // The walk is consumed one kRunBatch refill at a time, and each refill's
  // surviving targets ride the SoA pipeline as one batch. Cancellation is
  // polled once per refill — cheap enough to stay out of the per-packet
  // path, frequent enough that a tripped token stops the sweep long
  // before its next checkpoint.
  TargetWalk walk(config_);
  std::array<ScheduledTarget, kRunBatch> chunk;
  while (!walk.done()) {
    if (config_.cancel != nullptr && config_.cancel->cancelled()) break;
    const std::size_t count = walk.next(chunk);
    if (count != 0) {
      probe_batch(std::span<const ScheduledTarget>(chunk.data(), count),
                  seconds_per_packet, stats, on_result);
    }
  }
  stats.blocklisted_skipped = walk.blocklisted();
  if (config_.metrics != nullptr) {
    config_.metrics->add(obsv::Counter::kZmapBlocklistedSkipped,
                         walk.blocklisted());
  }
  return stats;
}

ZMapScanner::Stats ZMapScanner::run_scheduled(
    std::span<const ScheduledTarget> targets,
    const std::function<void(const L4Result&)>& on_result) {
  Stats stats;
  const double seconds_per_packet =
      1.0 / config_.effective_pps(config_.universe_size);
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

TargetWalk::TargetWalk(const ZMapConfig& config)
    : config_(config),
      iterator_(CyclicGroup::for_size(config.universe_size, config.seed)
                    .all()) {}

std::size_t TargetWalk::next(std::span<ScheduledTarget> out) {
  assert(out.size() <= buffer_.size());
  // One next_batch call keeps the modmul recurrence in registers across
  // the refill, in exactly the scalar next() order.
  const std::size_t filled = iterator_.next_batch(
      std::span<std::uint32_t>(buffer_.data(), out.size()));
  if (filled < out.size()) done_ = true;
  const auto probes = static_cast<std::uint64_t>(config_.probes);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < filled; ++i) {
    const net::Ipv4Addr dst(buffer_[i]);
    if (config_.allowlist && !config_.allowlist->contains(dst)) continue;
    if (config_.blocklist.is_blocked(dst)) {
      ++blocklisted_;
      continue;
    }
    out[kept++] = ScheduledTarget{dst, targets_ * probes};
    ++targets_;
  }
  return kept;
}

}  // namespace originscan::scan
