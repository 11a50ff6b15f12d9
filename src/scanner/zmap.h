// The stateless SYN scanner: iterates the address permutation, emits
// `probes` back-to-back SYN packets per target at a configured rate,
// rejects responses whose validation MAC was corrupted in flight, and
// reports per-target L4 results (which probes were answered and how).
//
// Probe timestamps come from a *virtual clock*: packet n of the global
// send schedule goes out at t = n / pps, a pure function of the packet's
// schedule slot. A shard therefore stamps its packets exactly as the
// serial sweep would — shard i of k owns slots congruent to i mod k —
// which is what lets a sharded scan merge into a bit-identical result
// (see ScanSchedule and orchestrator.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "faultinject/faultinject.h"
#include "netbase/ipv4.h"
#include "netbase/vtime.h"
#include "obsv/metrics.h"
#include "proto/protocol.h"
#include "scanner/blocklist.h"
#include "scanner/cancel.h"
#include "scanner/permutation.h"
#include "sim/internet.h"

namespace originscan::scan {

struct ZMapConfig {
  std::uint64_t seed = 0;          // shared across synchronized origins
  std::uint32_t universe_size = 0;  // scan space [0, universe_size)
  proto::Protocol protocol = proto::Protocol::kHttp;
  // Back-to-back SYNs per target, in [1, sim::ProbeBatch::kMaxProbes].
  int probes = 2;
  // Delay between the probes to one target. Zero reproduces ZMap's
  // back-to-back retransmission; Bano et al. propose spacing them so a
  // Bad period cannot swallow both.
  net::VirtualTime probe_interval;
  double packets_per_second = 0;    // 0 = derive from scan_duration
  net::VirtualTime scan_duration = net::VirtualTime::from_hours(21);
  std::vector<net::Ipv4Addr> source_ips;
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  Blocklist blocklist;
  // When set, only addresses inside this prefix are probed (the
  // Section-6 per-subnet retry experiment); others are skipped silently.
  std::optional<net::Prefix> allowlist;
  // Deterministic fault injection (core/faultinject layer): transient
  // send failures are retried in place (up to kSendRetries), slot-window
  // drops lose the packet in flight, and MAC corruption mangles the
  // response so validation rejects it. Null = no faults.
  const fault::FaultInjector* faults = nullptr;
  // Cooperative cancellation, polled once per target batch (every 256
  // targets). Null = uncancellable. A cancelled sweep stops early; the
  // caller must treat its partial output as garbage (ScanResult::aborted).
  const CancelToken* cancel = nullptr;
  // Single-writer metric block for this scanner's lane (zmap.* counters
  // plus the sim drop-reason taps, via ProbeContext::set_metrics). Null
  // (the default) disables all observability at zero cost — the same
  // ownership pattern as `faults`/`cancel`.
  obsv::MetricBlock* metrics = nullptr;

  [[nodiscard]] double effective_pps(std::uint64_t targets) const {
    if (packets_per_second > 0) return packets_per_second;
    const double total =
        static_cast<double>(targets) * static_cast<double>(probes);
    return total / scan_duration.seconds();
  }
};

// L4 view of one responsive target.
struct L4Result {
  net::Ipv4Addr addr;
  std::uint8_t synack_mask = 0;  // bit i: probe i answered with SYN-ACK
  std::uint8_t rst_mask = 0;     // bit i: probe i answered with RST
  net::VirtualTime probe_time;   // when the first probe was sent
  net::Ipv4Addr source_ip;       // which of our IPs probed it

  [[nodiscard]] bool any_synack() const { return synack_mask != 0; }
  [[nodiscard]] int synack_count() const {
    return __builtin_popcount(synack_mask);
  }
};

// One entry of a precomputed send schedule: a target plus the global
// packet slot of its first probe (its follow-up probes occupy the next
// `probes - 1` slots, exactly as in the serial sweep).
struct ScheduledTarget {
  net::Ipv4Addr addr;
  std::uint64_t first_packet = 0;
};

// A full scan, partitioned for parallel execution. `shards` follow the
// CyclicGroup::shard partition (sequence position mod shard_count) and
// may run concurrently in any order; `deferred` holds the targets the
// caller marked order-sensitive (rate-IDS networks), in global
// permutation order, to be executed serially.
struct ScanSchedule {
  std::vector<std::vector<ScheduledTarget>> shards;
  std::vector<ScheduledTarget> deferred;
  std::uint64_t blocklisted_skipped = 0;

  [[nodiscard]] std::uint64_t target_count() const {
    std::uint64_t count = deferred.size();
    for (const auto& shard : shards) count += shard.size();
    return count;
  }
};

class ZMapScanner {
 public:
  // Send-layer hardening: a transiently failing send (the sendto
  // EAGAIN analog, injectable via the send_fail fault point) is retried
  // in place up to this many times before the probe is abandoned.
  static constexpr int kSendRetries = 3;

  // Addresses pulled from the permutation per Iterator::next_batch call
  // in run(); also the cancellation polling granularity. 1 KiB of
  // stack-resident buffer — small enough to stay cache-hot, large
  // enough to amortize the per-call iterator state save/restore.
  static constexpr std::size_t kRunBatch = 256;

  // Throws std::invalid_argument when config.probes is outside
  // [1, sim::ProbeBatch::kMaxProbes].
  ZMapScanner(const ZMapConfig& config, sim::Internet* internet,
              sim::OriginId origin);

  struct Stats {
    std::uint64_t targets_probed = 0;
    std::uint64_t packets_sent = 0;
    std::uint64_t blocklisted_skipped = 0;
    std::uint64_t synacks = 0;
    std::uint64_t rsts = 0;
    std::uint64_t validation_failures = 0;

    Stats& operator+=(const Stats& other);
    friend bool operator==(const Stats&, const Stats&) = default;
  };

  // Runs the sweep; invokes `on_result` for every target that produced at
  // least one (validated) response. Results arrive in probe order. Honors
  // config.shard_index/shard_count: shard i stamps its n-th packet with
  // virtual-clock slot i + n * shard_count (ZMap's interleaved schedule).
  Stats run(const std::function<void(const L4Result&)>& on_result);

  // Probes exactly the given pre-scheduled targets, stamping each probe
  // from its recorded global packet slot. Used by the parallel executor's
  // shard lanes and its deferred rate-IDS lane; blocklist/allowlist
  // filtering already happened in build_schedule. Targets flow through
  // the SoA probe pipeline in kRunBatch chunks.
  Stats run_scheduled(std::span<const ScheduledTarget> targets,
                      const std::function<void(const L4Result&)>& on_result);

  // Walks the full permutation once (cheap: no simulation work) and
  // partitions the surviving targets into `shard_count` concurrent lanes
  // plus one order-sensitive lane (targets for which `defer` returns
  // true). Packet slots recorded in the schedule are identical to the
  // serial sweep's virtual clock, so executing the lanes in any
  // interleaving reproduces serial timestamps exactly.
  static ScanSchedule build_schedule(
      const ZMapConfig& config, std::uint32_t shard_count,
      const std::function<bool(net::Ipv4Addr)>& defer = {});

  // The source IP used for a destination: stable per target so that both
  // probes (and retries) come from the same address, and so that a
  // 64-IP origin spreads targets evenly across its block.
  [[nodiscard]] net::Ipv4Addr source_ip_for(net::Ipv4Addr dst) const;

 private:
  // Runs up to ProbeBatch::kCapacity targets through the SoA pipeline:
  // fills the batch (addresses, per-probe send times, delivered mask
  // after send-fault handling), resolves and classifies it in the sim,
  // then steps each live probe through ProbeContext::respond in
  // (target, probe) order, reporting each target's L4Result before the
  // next target's probes are answered. Dead targets never produce a
  // reply.
  void probe_batch(std::span<const ScheduledTarget> targets,
                   std::uint64_t slot_stride, double seconds_per_packet,
                   Stats& stats,
                   const std::function<void(const L4Result&)>& on_result);

  ZMapConfig config_;
  sim::Internet* internet_;
  sim::OriginId origin_;
  sim::ProbeContext context_;
  // Reused across probe_batch calls; lane-private like the context.
  sim::ProbeBatch batch_;
};

}  // namespace originscan::scan
