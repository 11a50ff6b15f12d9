// The stateless SYN scanner: iterates the address permutation, emits
// `probes` back-to-back SYN packets per target at a configured rate,
// rejects responses whose validation MAC was corrupted in flight, and
// reports per-target L4 results (which probes were answered and how).
//
// Probe timestamps come from a *virtual clock*: packet n of the global
// send schedule goes out at t = n / pps, a pure function of the packet's
// schedule slot. walk_shards, the one permutation walk, stamps every
// target with its global slot at any lane count, so a lane that probes
// any subset of the sweep stamps its packets exactly as one lane would —
// which is what lets the orchestrator's lanes merge into a bit-identical
// result (see orchestrator.h).
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
  // The send rate spreads probes * universe_size packets evenly over
  // this duration (effective_pps).
  net::VirtualTime scan_duration = net::VirtualTime::from_hours(21);
  std::vector<net::Ipv4Addr> source_ips;
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

  // Whether walk_shards drops `dst` before it takes a send slot: outside
  // the allowlist, or blocklisted (which bumps `blocklisted`).
  [[nodiscard]] bool filters_out(net::Ipv4Addr dst,
                                 std::uint64_t& blocklisted) const {
    if (allowlist && !allowlist->contains(dst)) return true;
    if (!blocklist.is_blocked(dst)) return false;
    ++blocklisted;
    return true;
  }

  [[nodiscard]] double effective_pps() const {
    const double total =
        static_cast<double>(universe_size) * static_cast<double>(probes);
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

// One target of the send schedule plus the global packet slot of its
// first probe (its follow-up probes occupy the next `probes - 1` slots).
struct ScheduledTarget {
  net::Ipv4Addr addr;
  std::uint64_t first_packet = 0;
};

class ZMapScanner {
 public:
  // Send-layer hardening: a transiently failing send (the sendto
  // EAGAIN analog, injectable via the send_fail fault point) is retried
  // in place up to this many times before the probe is abandoned.
  static constexpr int kSendRetries = 3;

  // Targets per probe batch: run_scheduled probes in chunks of this many,
  // and walk_shards hands a shard lane's targets to its visitor in stack
  // chunks of at most this size; also the cancellation polling
  // granularity. Small enough to stay cache-hot, large enough to amortize
  // the per-batch setup.
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

  // Runs the whole sweep on this one lane, a one-lane walk_shards feeding
  // run_scheduled; invokes `on_result` for every target that produced at
  // least one (validated) response. Results arrive in probe order.
  Stats run(const std::function<void(const L4Result&)>& on_result);

  // Probes exactly the given targets, stamping each probe from its
  // recorded global packet slot. Used by run() and the orchestrator's
  // lanes, which take their targets from walk_shards (filtering already
  // happened there). Targets flow through the SoA probe pipeline in
  // kRunBatch chunks.
  Stats run_scheduled(std::span<const ScheduledTarget> targets,
                      const std::function<void(const L4Result&)>& on_result);

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
                   double seconds_per_packet, Stats& stats,
                   const std::function<void(const L4Result&)>& on_result);

  ZMapConfig config_;
  sim::Internet* internet_;
  sim::OriginId origin_;
  sim::ProbeContext context_;
  // Reused across probe_batch calls; lane-private like the context.
  sim::ProbeBatch batch_;
};

// Receives one lane's targets, slotted (see walk_shards).
using ShardVisitor =
    std::function<void(std::size_t lane, std::span<const ScheduledTarget>)>;

// The one "permutation -> filter -> slot" walk: ZMap's sharded sweep on
// `lanes` threads, the caller among them. Lane i walks
// CyclicGroup::shard(i, lanes) of the permutation, drops the positions
// ZMapConfig::filters_out rejects, and passes its targets to visit(i, ...)
// on its own thread, each stamped with the global slot of its first probe
// (target n of the filtered permutation sends its first probe in slot
// n * probes, at any lane count). With lanes > 1, targets that `defer`
// selects go instead to visit(lanes, ...), on lane 0's thread and in
// permutation order; one lane already probes in that order, so it never
// calls `defer` (which may then be empty). The walk runs in windows of 2^18
// positions, visited one window after the other (lane 0 visits a window's
// deferred targets before its own), so visit(lanes, ...) sees every
// deferred target in the serial order. Stops after a window once
// config.cancel trips. If visits throw, the sweep stops at the next
// window and the lowest lane's exception is rethrown once all lanes are
// done. Returns how many blocklisted positions were skipped.
std::uint64_t walk_shards(const ZMapConfig& config, std::size_t lanes,
                          const std::function<bool(net::Ipv4Addr)>& defer,
                          const ShardVisitor& visit);

}  // namespace originscan::scan
