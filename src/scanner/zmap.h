// The stateless SYN scanner: iterates the address permutation, emits
// `probes` back-to-back SYN packets per target at a configured rate,
// rejects responses whose validation MAC was corrupted in flight, and
// reports per-target L4 results (which probes were answered and how).
//
// Probe timestamps come from a *virtual clock*: packet n of the global
// send schedule goes out at t = n / pps, a pure function of the packet's
// schedule slot. TargetWalk stamps every target with its global slot, so
// a lane that probes any subset of the walk stamps its packets exactly as
// the single-lane sweep would — which is what lets the orchestrator's
// lanes merge into a bit-identical result (see orchestrator.h).
#pragma once

#include <array>
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

  // Runs the whole sweep on this one lane, streaming the TargetWalk
  // through the probe pipeline; invokes `on_result` for every target that
  // produced at least one (validated) response. Results arrive in probe
  // order.
  Stats run(const std::function<void(const L4Result&)>& on_result);

  // Probes exactly the given targets, stamping each probe from its
  // recorded global packet slot. Used by the orchestrator's lanes, which
  // take their targets from a TargetWalk (filtering already happened
  // there). Targets flow through the SoA probe pipeline in kRunBatch
  // chunks.
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

// The one "permutation -> filter -> slot" walk: yields a sweep's targets
// in permutation order, after the allowlist and the blocklist, each
// stamped with the global slot of its first probe (target n of the walk
// sends its first probe in slot n * probes). ZMapScanner::run and the
// orchestrator's lane executor both draw their targets from here. Cheap:
// no simulation work. `config` must outlive the walk.
class TargetWalk {
 public:
  explicit TargetWalk(const ZMapConfig& config);

  // Pulls the next out.size() (at most ZMapScanner::kRunBatch)
  // permutation entries — fewer only at the end — and writes the ones
  // that survive filtering to `out`, in order. Returns how many survived.
  std::size_t next(std::span<ScheduledTarget> out);

  // True once the permutation is exhausted.
  [[nodiscard]] bool done() const { return done_; }
  // Full-sequence position of the last entry pulled (see
  // CyclicGroup::Iterator::last_position); with one-entry pulls, the
  // position of the target just returned.
  [[nodiscard]] std::uint64_t last_position() const {
    return iterator_.last_position();
  }
  [[nodiscard]] std::uint64_t targets() const { return targets_; }
  [[nodiscard]] std::uint64_t blocklisted() const { return blocklisted_; }

 private:
  const ZMapConfig& config_;
  CyclicGroup::Iterator iterator_;
  std::uint64_t targets_ = 0;
  std::uint64_t blocklisted_ = 0;
  bool done_ = false;
  std::array<std::uint32_t, ZMapScanner::kRunBatch> buffer_;
};

}  // namespace originscan::scan
