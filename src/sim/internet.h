// The simulated Internet, as seen from a scan origin: inject a SYN probe
// and (maybe) get response bytes back; open a TCP connection and drive an
// application-layer exchange against the destination host's server state
// machine, moderated by path loss, outages, and network policies.
//
// One Internet instance models one trial. Different protocols share the
// instance (host liveness is per-trial), but loss timelines and outage
// schedules are drawn per (origin, protocol) because the real scans were
// separate network events. Cross-trial policy state (tripped IDS blocks)
// lives in PersistentState, owned by the caller.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "faultinject/faultinject.h"
#include "netbase/ipv4.h"
#include "netbase/vtime.h"
#include "obsv/metrics.h"
#include "proto/protocol.h"
#include "sim/policy.h"
#include "sim/server.h"
#include "sim/world.h"

namespace originscan::sim {

struct TrialContext {
  int trial = 0;  // 0-based
  std::uint64_t experiment_seed = 0;
  // Origins scanning in lockstep (same ZMap seed, same start time); this
  // drives the MaxStartups concurrency model.
  int simultaneous_origins = 1;
  net::VirtualTime scan_duration = net::VirtualTime::from_hours(21);
};

// One established TCP connection from a scanner to a host. The ZGrab
// engine reads/writes bytes; the connection reports how the peer ended it.
class Connection {
 public:
  // Drains bytes the server has sent since the last read.
  std::vector<std::uint8_t> read();

  // Feeds client bytes to the server. No-op once the peer closed/reset.
  void send(std::span<const std::uint8_t> data);

  // Peer sent FIN (possibly after data still waiting in read()).
  [[nodiscard]] bool peer_closed() const { return peer_closed_; }
  // Peer sent RST.
  [[nodiscard]] bool peer_reset() const { return peer_reset_; }
  // Connection is a black hole: no data will ever arrive (policy drop or
  // middlebox); the client's read timer is the only way out.
  [[nodiscard]] bool hung() const { return hung_; }

 private:
  friend class Internet;
  Connection() = default;

  std::unique_ptr<ProtocolServer> server_;
  std::vector<std::uint8_t> pending_;
  bool peer_closed_ = false;
  bool peer_reset_ = false;
  bool hung_ = false;
};

class Internet;

// Pure per-target facts of the L4 path, resolved once per target and
// shared by every probe to it: the routed AS and the host that will
// answer this (origin, trial) — has_host == false when nothing is
// listening (unrouted, no host, offline this trial, or flaky-dark for
// the origin). The host is held *by value*: procedural worlds derive it
// on demand and have no table row to point into. Resolution has no side
// effects, so hoisting it out of the per-probe loop cannot change any
// decision.
struct ResolvedTarget {
  std::optional<AsId> as;
  Host host{};  // meaningful only when has_host
  bool has_host = false;

  [[nodiscard]] const Host* host_or_null() const {
    return has_host ? &host : nullptr;
  }
};

// Structure-of-arrays batch for the scan hot path: up to kCapacity
// targets × kMaxProbes probes travel together from permutation draw
// through resolution (resolve_batch) and fate classification
// (handle_probe_batch). Parallel arrays keep each pass a tight loop
// over one column — addresses, then AS ids, then draws — instead of
// pointer-chasing per-target objects. Probe-indexed arrays (time_us,
// fwd_draw) are probe-major: element [p * kCapacity + i] belongs to
// probe p of target i, so a fixed-p pass is a contiguous sweep.
//
// The scanner fills addr/time_us/sent_mask/size/probes, resolve_batch
// fills as/has_host/host, handle_probe_batch fills live_mask (and uses
// fwd_draw as scratch). A set bit p of sent_mask means probe p was
// delivered to the network (send retries exhausted and injected
// send-drops already excluded); a set bit of live_mask means the probe
// reaches a listening host — only those go on to ProbeContext::respond
// for the policy verdict and the reply. Dead targets never materialize
// a reply.
struct ProbeBatch {
  static constexpr int kCapacity = 256;
  static constexpr int kMaxProbes = 8;

  // Scanner-filled inputs.
  net::Ipv4Addr addr[kCapacity];
  std::int64_t time_us[kMaxProbes * kCapacity];  // probe-major send times
  std::uint8_t sent_mask[kCapacity];
  int size = 0;
  int probes = 0;

  // resolve_batch outputs. `as` holds kNoAs for unrouted targets;
  // has_host mirrors ResolvedTarget::has_host.
  AsId as[kCapacity];
  std::uint8_t has_host[kCapacity];
  Host host[kCapacity];

  // handle_probe_batch scratch/outputs.
  double fwd_draw[kMaxProbes * kCapacity];  // forward-loss uniforms
  std::uint8_t live_mask[kCapacity];
};

namespace detail {
// Fills a probe-major draw matrix (ProbeBatch::kCapacity lane stride)
// with the forward-loss uniforms hash01(mix(seed_by_as[as[i]],
// mix(addr[i], p, origin, 0xF0D0), 0xD60B)) using the AVX-512VL/DQ
// 4-lane kernel. Returns false (computing nothing) when the build or
// CPU lacks the extension; the caller then runs the portable unrolled
// path. Both paths are bit-identical — integer lanes are exact and the
// hash01 conversion stays below 2^53 where vector FP equals scalar FP.
// Exposed for the equivalence test in tests/batch_test.cc.
bool fwd_draws_vectorized(const net::Ipv4Addr* addr, const AsId* as,
                          const std::uint64_t* seed_by_as, AsId as_count,
                          std::uint64_t origin, int n, int probes,
                          double* fwd_draw);
}  // namespace detail

// Lock-free per-(origin, protocol) view of the Internet for the scan hot
// loop: the outage schedule and every per-AS loss model and policy set,
// resolved once (after prewarm) into flat vectors indexed by AsId. The
// per-packet path through resolve_batch/handle_probe_batch/respond then
// does zero synchronization and zero hashing. Holds raw pointers into the
// owning Internet's caches — valid for the Internet's lifetime; build one
// per scan lane.
class ProbeContext {
 public:
  ProbeContext() = default;

  [[nodiscard]] bool valid() const { return internet_ != nullptr; }
  [[nodiscard]] OriginId origin() const { return origin_; }
  [[nodiscard]] proto::Protocol protocol() const { return protocol_; }
  [[nodiscard]] const OutageSchedule& outage() const { return *outage_; }
  [[nodiscard]] const PathLossModel& loss(AsId as) const {
    return *loss_by_as_[as];
  }

  // Batched per-target resolution of batch.addr[0..size): fills
  // as/has_host/host with the facts Internet::resolve_target derives
  // (AS, host, liveness, flaky-miss), once per target rather than once
  // per probe. In procedural worlds a consecutive run of addresses in the
  // same /24 consults the lane-private block cache once for the whole run
  // (permutation batches are internally sequential, so runs are long).
  // Block-cache hit/miss counters count these per-fetch consults, not
  // per-address lookups (docs/METRICS.md).
  void resolve_batch(ProbeBatch& batch) const;

  // What the network sends back for one probe.
  enum class Reply : std::uint8_t { kNone, kSynAck, kRst };

  // The live-probe step for probe p of target i, whose live_mask bit
  // handle_probe_batch set: the three decisions left once a probe reaches
  // a listening host — policy admission (which feeds the rate-IDS
  // counters), SYN-ACK vs RST, and reverse-direction loss. Admission is
  // the simulation's one order-sensitive decision, so callers step live
  // probes in global (target, probe) emission order.
  Reply respond(const ProbeBatch& batch, int i, int p, net::Ipv4Addr src_ip);

  // Attaches a single-writer metric block for drop-reason accounting
  // (sim.probes_routed, sim.drops.*, sim.responses_*). The block must be
  // owned by this context's lane — writes are plain stores. nullptr
  // (the default) disables every tap; the hot loop then takes one
  // predictable never-taken branch per drop site and nothing else.
  void set_metrics(obsv::MetricBlock* metrics) { metrics_ = metrics; }

 private:
  friend class Internet;

  // One slot of the per-lane /24 facts cache (procedural worlds only).
  // Direct-mapped and lane-private scratch: resolve_batch() is const to
  // callers but may refill slots, which is safe because derivation is
  // pure — any refill writes the same facts. No other lane ever sees
  // this memory, so the zero-lock hot-path invariant (and the
  // cache_lock_count oracle) is untouched.
  struct BlockCacheSlot {
    std::uint32_t block = ~std::uint32_t{0};
    BlockFacts facts;
  };
  static constexpr std::uint32_t kBlockCacheSlots = 4096;  // power of two

  Internet* internet_ = nullptr;
  OriginId origin_ = 0;
  proto::Protocol protocol_ = proto::Protocol::kHttp;
  const OutageSchedule* outage_ = nullptr;
  obsv::MetricBlock* metrics_ = nullptr;
  std::vector<const PathLossModel*> loss_by_as_;
  std::vector<const AsPolicies*> policies_by_as_;
  // Flat copies of each loss model's stream seed so the batched
  // forward-loss kernel can gather four seeds and mix four draws without
  // touching the models themselves.
  std::vector<std::uint64_t> loss_seed_by_as_;
  // Per-AS memo of the loss window containing the last queried time —
  // probes arrive in near-sorted time order, so one window lookup
  // amortizes over many probes. Pure-refill scratch: a stale entry is
  // simply refilled, never observed.
  std::vector<PathLossModel::LossWindow> loss_cursor_;
  // Per-AS precomputed OutageSchedule::ever_in_outage — most ASes have
  // no outage windows at all, so the batch ladder can skip the
  // out-of-line in_outage call for them.
  std::vector<std::uint8_t> outage_possible_by_as_;
  // Allocated (kBlockCacheSlots entries) only when the world derives
  // state procedurally; empty otherwise.
  mutable std::vector<BlockCacheSlot> block_cache_;
};

class Internet {
 public:
  Internet(const World* world, const TrialContext& context,
           PersistentState* persistent);

  // ---- Layer 4 -----------------------------------------------------
  // Builds the lock-free hot-path view for one (origin, protocol) scan
  // lane. Prewarms the caches, so construction may take the cache lock;
  // the returned context never does.
  ProbeContext probe_context(OriginId origin, proto::Protocol protocol);

  // Classifies every sent probe of a resolved batch: computes the
  // forward-loss draws in a branch-minimized four-wide pass, then walks
  // the decision ladder (faults, outage, forward loss, liveness) per
  // probe, accumulating drop-reason counts batch-locally and flushing one
  // metric add per reason. Sets batch.live_mask; the caller hands each
  // live probe to ProbeContext::respond.
  void handle_probe_batch(ProbeContext& context, ProbeBatch& batch);

  // Per-target resolution: the routed AS and the host that answers this
  // (origin, trial), if any. Used for materialized addresses and connects.
  [[nodiscard]] ResolvedTarget resolve_target(net::Ipv4Addr dst,
                                              OriginId origin) const;

  // ---- Layer 7 -----------------------------------------------------
  // Attempts a TCP connection for an application handshake. Returns
  // nullptr when the connect times out (loss/outage or vanished host).
  // `attempt` is the retry index (0 = first try) — retries see lower
  // MaxStartups concurrency.
  std::unique_ptr<Connection> connect(OriginId origin, net::Ipv4Addr src_ip,
                                      net::Ipv4Addr dst,
                                      proto::Protocol protocol,
                                      net::VirtualTime t, int attempt);

  [[nodiscard]] const World& world() const { return *world_; }
  [[nodiscard]] const TrialContext& context() const { return context_; }
  [[nodiscard]] PolicyEngine& policy_engine() { return policy_engine_; }
  [[nodiscard]] const PolicyEngine& policy_engine() const {
    return policy_engine_;
  }

  // Builds the outage schedule and every per-AS loss model for
  // (origin, protocol) up front. Purely an optimization: the cached
  // content is a pure function of (world seed, key, trial), so lazy
  // concurrent construction yields the same models — prewarming just
  // keeps the parallel hot path off the cache's writer lock.
  void prewarm(OriginId origin, proto::Protocol protocol);

  // Path RTT for (origin, as); the scan engines use it to schedule the
  // L7 follow-up after a SYN-ACK.
  [[nodiscard]] net::VirtualTime rtt(OriginId origin, AsId as) const;

  // Attaches a deterministic fault injector (core/faultinject layer):
  // time-windowed extra path loss on probes and total outage windows
  // that silence both probes and connects. Fault decisions are pure
  // functions of (seed, host, time), so they commute with parallel
  // execution. Pass nullptr to detach.
  void set_fault_injector(const fault::FaultInjector* faults) {
    faults_ = faults;
  }
  [[nodiscard]] const fault::FaultInjector* fault_injector() const {
    return faults_;
  }

  // Number of cache_mutex_ acquisitions so far (shared or exclusive).
  // Tests assert this stays flat across a ProbeContext-driven scan loop
  // — the "zero synchronization in steady state" contract.
  [[nodiscard]] std::uint64_t cache_lock_count() const {
    return cache_lock_acquisitions_.load(std::memory_order_relaxed);
  }

 private:
  friend class ProbeContext;

  const PathLossModel& loss_model(OriginId origin, AsId as,
                                  proto::Protocol protocol);
  const OutageSchedule& outage_schedule(OriginId origin,
                                        proto::Protocol protocol);

  // Deterministic MaxStartups refusal decision for one attempt.
  [[nodiscard]] bool maxstartups_refuses(const Host& host, OriginId origin,
                                         int attempt) const;

  // Whether a flaky host is dark for this (origin, trial).
  [[nodiscard]] bool flaky_miss(const Host& host, OriginId origin) const;

  const World* world_;
  TrialContext context_;
  PolicyEngine policy_engine_;
  const fault::FaultInjector* faults_ = nullptr;

  // Guards the two lazy caches below (shared = lookup, exclusive =
  // insert). Cached values are behind unique_ptr, so references handed
  // out remain stable across concurrent inserts.
  std::shared_mutex cache_mutex_;
  std::atomic<std::uint64_t> cache_lock_acquisitions_{0};
  std::unordered_map<std::uint64_t, std::unique_ptr<PathLossModel>>
      loss_cache_;
  std::unordered_map<std::uint64_t, std::unique_ptr<OutageSchedule>>
      outage_cache_;
};

}  // namespace originscan::sim
