// Deterministic, seed-driven fault injection for the scan pipeline.
//
// A FaultPlan is parsed from a compact spec string, e.g.
//
//   "drop:slot=1024..2048,p=0.3;banner_trunc:host%7==0;cell_crash:cell=3"
//
// and bound to a seed by a FaultInjector. Every fault decision is a pure
// function of (seed, slot | host | cell | file or frame index), never of
// wall time or execution order, so a fault schedule is exactly
// replayable: the same plan + seed perturbs the same probes, the same
// handshakes, and the same journal files no matter how many worker
// threads execute the scan. This is what lets the golden-trace
// differential harness (core/goldens.h) use the byte-identity contract
// of parallel execution as an oracle — a run that recovers from every
// injected fault must reproduce the fault-free golden run byte for byte.
//
// The injection points are the rows of OSN_FAULT_POINTS below, the one
// place a point is declared: its names, the clause arguments it takes,
// its recoverability class, its hash salt and what must be present for
// a run to consult it. Adding a point means one row there, plus its
// query on FaultInjector and its tap at the consuming layer (and, when
// it has one, its fault.<name> counter in obsv/metrics.h).
// tests/faultpoint_registry_test.cc asserts every point is exercised.
//
// Recoverable faults (send_fail and the three ZGrab faults) are absorbed
// by pipeline machinery — the send retry loop and the RetryPolicy
// ladder — and leave the output byte-identical to the fault-free run.
// Degrading faults (probe_drop, outage, mac_corrupt) lose data in ways
// no retry can recover; the differential harness classifies their
// damage instead.
//
// The two cell-level faults model process death and wedged cells at the
// experiment layer (see core/supervisor.h). cell_crash kills the run at
// cell K's start — resumable from the journal, but not recoverable
// within the run. cell_hang makes attempts [0, N) of cell K exceed the
// supervisor's deadline (the attempt stalls for S virtual seconds); it
// recovers through the retry budget, or degrades the cell to lost when
// N exhausts it. Both classify as non-recoverable so the differential
// harness never treats an interrupted single run as byte-comparable.
//
// The three storage/transport faults model operational decay rather
// than crashes. enospc makes every durable journal write (manifest
// append, segment, sidecar) fail with a no-space error once the
// journal's cumulative byte count reaches N — the run degrades cell by
// cell through the retry/partial-grid machinery instead of aborting.
// segment_corrupt flips one seed-chosen byte in the Nth durable file
// the journal writes, which the CRC-verified resume path must
// quarantine rather than adopt. frame_garble flips one seed-chosen bit
// in the Nth frame a worker sends to the master, exercising the framed
// protocol's poison-on-error decoder as a live runtime fault. All
// three classify as non-recoverable: their recovery crosses runs
// (quarantine at resume) or processes (grant rollback).
//
// The two worker-level faults model real process failures in the
// distributed runtime (core/dist.h): worker_kill makes a worker process
// SIGKILL itself, worker_stall makes it block forever so the master's
// deadline has to fire. The `worker=W` form hits worker index W before
// it sends HELLO; the `cell=K,phase=...` form hits whichever worker is
// handling cell K, at the named protocol phase, on the cell's first N
// grants (attempts=, default 1). The master detects the death, rolls
// the claimed cells back, and retries — so a plan whose attempts stay
// under the grant budget still yields byte-identical output, which the
// dist kill matrix (tests/dist_test.cc) asserts. Like the cell faults,
// both classify as non-recoverable: they interrupt processes, and
// recovery happens in the master, not inside the faulted run.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "netbase/ipv4.h"
#include "netbase/vtime.h"

namespace originscan::fault {

// Clause argument keys, one bit each. Each key has one validator in
// FaultPlan::parse; a key given twice in one clause is refused.
namespace key {
enum : std::uint32_t {
  kSlot = 1u << 0,       // slot=A..B   inclusive packet-slot window
  kSec = 1u << 1,        // sec=A..B    inclusive virtual-second window
  kHost = 1u << 2,       // host%M==K   hosts with addr % M == K
  kCell = 1u << 3,       // cell=K      global grid cell index
  kHangSec = 1u << 4,    // sec=S       stall of S > 0 virtual seconds
  kWorker = 1u << 5,     // worker=W    worker index 0..255
  kPhase = 1u << 6,      // phase=hello|claim|segment|done
  kFile = 1u << 7,       // file=N      Nth durable journal file
  kFrame = 1u << 8,      // frame=N     Nth frame a worker sends
  kBytes = 1u << 9,      // bytes=N     journal byte budget
  kAttempts = 1u << 10,  // attempts=N  first N attempts/grants, 1..16
  kCount = 1u << 11,     // count=C     C consecutive files/frames, 1..64
  kP = 1u << 12,         // p=P         per-event probability in [0, 1]
  kOrigin = 1u << 13,    // origin=K    origin id 0..255
};
}  // namespace key

// What an experiment run needs before anything in it consults a point.
enum class Consumer : int {
  kAnyRun = 0,  // every run
  kWorkers,     // worker processes (originscan --workers)
  kJournal,     // the experiment journal (originscan --resume-dir)
};

// The injection-point registry: one row per point.
//
// X(symbol, name, keyword, keys, required, recoverable, salt, consumer,
//   kill_class)
//   name         point_name(), and the fault.<name> counter where the
//                point has one
//   keyword      the clause keyword in spec strings
//   keys         the argument keys the clause accepts
//   required     the keys it must give. Two pairs are alternatives,
//                checked in parse: drop takes one of slot= / sec=, the
//                worker faults one of worker= / cell=,phase=.
//   recoverable  absorbed by pipeline machinery inside the faulted run
//   salt         the fault-decision hash salt. 0xFA017007 belonged to a
//                retired point and stays unused, so no schedule moves.
//   consumer     see Consumer
//   kill_class   only interrupts persistence or transport (kills, worker
//                deaths, storage exhaustion, corruption): the scan bytes
//                of every surviving cell stay as a run without it
#define OSN_FAULT_POINTS(X)                                                   \
  X(kProbeDrop, "probe_drop", "drop", key::kSlot | key::kSec | key::kP, 0,   \
    false, 0xFA017000, kAnyRun, false)                                        \
  X(kOutage, "outage", "outage", key::kSec | key::kOrigin, key::kSec, false, \
    0xFA017001, kAnyRun, false)                                               \
  X(kSendFail, "send_fail", "send_fail", key::kSlot | key::kP, key::kSlot,   \
    true, 0xFA017002, kAnyRun, false)                                         \
  X(kMacCorrupt, "mac_corrupt", "mac_corrupt", key::kSlot | key::kP,         \
    key::kSlot, false, 0xFA017003, kAnyRun, false)                            \
  X(kConnectRst, "connect_rst", "rst", key::kHost | key::kAttempts | key::kP, \
    key::kHost, true, 0xFA017004, kAnyRun, false)                             \
  X(kBannerTruncate, "banner_trunc", "banner_trunc",                         \
    key::kHost | key::kAttempts | key::kP, key::kHost, true, 0xFA017005,     \
    kAnyRun, false)                                                           \
  X(kBannerStall, "banner_stall", "banner_stall",                            \
    key::kHost | key::kAttempts | key::kP, key::kHost, true, 0xFA017006,     \
    kAnyRun, false)                                                           \
  X(kCellCrash, "cell_crash", "cell_crash", key::kCell, key::kCell, false,   \
    0xFA017008, kAnyRun, true)                                                \
  X(kCellHang, "cell_hang", "cell_hang",                                     \
    key::kCell | key::kHangSec | key::kAttempts, key::kCell | key::kHangSec, \
    false, 0xFA017009, kAnyRun, false)                                        \
  X(kWorkerKill, "worker_kill", "worker_kill",                               \
    key::kWorker | key::kCell | key::kPhase | key::kAttempts, 0, false,      \
    0xFA01700A, kWorkers, true)                                               \
  X(kWorkerStall, "worker_stall", "worker_stall",                            \
    key::kWorker | key::kCell | key::kPhase | key::kAttempts, 0, false,      \
    0xFA01700B, kWorkers, true)                                               \
  X(kEnospc, "enospc", "enospc", key::kBytes, key::kBytes, false,            \
    0xFA01700C, kJournal, true)                                               \
  X(kSegmentCorrupt, "segment_corrupt", "segment_corrupt",                   \
    key::kFile | key::kCount, key::kFile, false, 0xFA01700D, kJournal, true) \
  X(kFrameGarble, "frame_garble", "frame_garble",                            \
    key::kWorker | key::kFrame | key::kCount, key::kWorker | key::kFrame,    \
    false, 0xFA01700E, kWorkers, true)

enum class Point : int {
#define OSN_X(symbol, ...) symbol,
  OSN_FAULT_POINTS(OSN_X)
#undef OSN_X
};

#define OSN_X(...) +1
inline constexpr int kPointCount = 0 OSN_FAULT_POINTS(OSN_X);
#undef OSN_X

// Protocol phases at which the worker faults can fire (the checkpoints
// core::run_worker queries). kHello is the `worker=W` form — the worker
// has no cell yet; the others key on the granted cell.
enum class WorkerPhase : int {
  kHello = 0,    // before the worker sends HELLO
  kClaim,        // after a cell is granted, before its scan starts
  kSegment,      // mid-SEGMENT stream (a torn write on the wire)
  kDone,         // segments sent, DONE not yet sent
};

[[nodiscard]] std::string_view worker_phase_name(WorkerPhase phase);

[[nodiscard]] std::string_view point_name(Point point);
[[nodiscard]] std::span<const Point> all_points();
[[nodiscard]] Consumer consumer(Point point);
[[nodiscard]] bool kill_class(Point point);

// One parsed clause of a fault spec.
struct FaultClause {
  Point point = Point::kProbeDrop;

  // Windowed faults (probe_drop, outage, send_fail, mac_corrupt):
  // inclusive [lo, hi] range of global packet slots or whole seconds of
  // virtual time, with per-event probability p (an outage always fires).
  enum class Unit { kSlot, kSeconds } unit = Unit::kSlot;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  double p = 1.0;

  // Host-selected faults (connect_rst, banner_trunc, banner_stall):
  // hosts with addr % mod == rem, on the first `attempts` handshake
  // attempts.
  std::uint32_t mod = 0;  // 0 = not a host clause
  std::uint32_t rem = 0;
  int attempts = 1;

  // segment_corrupt and frame_garble: the file=/frame= window
  // [write_index, write_index + count) of durable journal files or
  // frames a worker sends.
  std::uint64_t write_index = 0;
  std::uint64_t count = 1;

  // enospc: durable journal writes fail once the journal's cumulative
  // byte count reaches this threshold.
  std::uint64_t bytes = 0;

  // Cell faults (cell_crash, cell_hang): the global cell index in the
  // experiment grid, serial order (trial * protocols + p) * origins + o.
  // cell_hang stalls attempts [0, `attempts`) of the cell for
  // `hang_seconds` of virtual time.
  std::uint64_t cell = 0;
  std::uint64_t hang_seconds = 0;

  // Worker faults (worker_kill, worker_stall): either a worker index
  // (pre-HELLO form; phase is kHello) or a cell + later phase. `attempts`
  // bounds how many grants of the cell the fault fires on.
  int worker = -1;                          // -1 = cell-keyed clause
  int phase = static_cast<int>(WorkerPhase::kHello);

  // Outage scope: -1 darkens every origin's view; >= 0 restricts the
  // window to one origin id — the paper's Section-5.4 burst outages are
  // exactly such origin-local events.
  int origin = -1;

  [[nodiscard]] bool recoverable() const;
  [[nodiscard]] std::string to_string() const;

  bool operator==(const FaultClause&) const = default;
};

// A parsed fault plan: an ordered list of clauses.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::vector<FaultClause> clauses)
      : clauses_(std::move(clauses)) {}

  // Parses a spec string (clauses separated by ';'). Returns nullopt on
  // any syntax error — unknown clause, a key the clause does not take or
  // gives twice, a missing required key, malformed or reversed range,
  // numeric overflow, probability outside [0, 1], zero modulus, or an
  // empty spec — and, when `error` is non-null, stores a human-readable
  // reason.
  static std::optional<FaultPlan> parse(std::string_view spec,
                                        std::string* error = nullptr);

  [[nodiscard]] const std::vector<FaultClause>& clauses() const {
    return clauses_;
  }
  [[nodiscard]] bool empty() const { return clauses_.empty(); }

  // True when every clause is absorbed by pipeline recovery machinery,
  // i.e. a run under this plan must be byte-identical to the fault-free
  // run (given enough L7 retries; see min_l7_retries).
  [[nodiscard]] bool recoverable() const;

  // Retry budget needed to absorb the plan's L7 faults: the largest
  // `attempts` over ZGrab clauses (0 when there are none).
  [[nodiscard]] int min_l7_retries() const;

  // Whether recovery needs the RetryPolicy to also retry degraded
  // banners (timeouts / truncations), not just refused connections.
  [[nodiscard]] bool needs_banner_retry() const;

  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<FaultClause> clauses_;
};

// A plan bound to a seed. Query methods are pure functions of their
// arguments (plus plan and seed) and are safe to call from any number of
// threads; hit counters are relaxed atomics used only for diagnostics
// and the injection-point registry test.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, std::uint64_t seed);

  // ---- ZMap layer ---------------------------------------------------
  // Probe occupying global schedule slot `slot` is lost in flight.
  [[nodiscard]] bool drop_at_slot(std::uint64_t slot,
                                  net::Ipv4Addr dst) const;
  // Number of consecutive transient send failures for this probe (the
  // scanner's send loop retries in place; see ZMapScanner::probe_batch).
  [[nodiscard]] int send_failures(std::uint64_t slot,
                                  net::Ipv4Addr dst) const;
  // The response to this probe arrives with corrupted bytes.
  [[nodiscard]] bool corrupt_response(std::uint64_t slot,
                                      net::Ipv4Addr dst) const;

  // ---- sim layer ----------------------------------------------------
  // Extra path loss for a probe at virtual time t (sec windows).
  [[nodiscard]] bool drop_at_time(net::VirtualTime t, net::Ipv4Addr dst,
                                  int probe_index) const;
  // Total outage window: probes and connects are silently dropped.
  // `origin` scopes origin-local outage clauses; -1 (e.g. from contexts
  // with no origin identity) matches only unscoped clauses.
  [[nodiscard]] bool outage_at(net::VirtualTime t, int origin = -1) const;

  // ---- ZGrab layer --------------------------------------------------
  enum class L7Fault { kNone, kRst, kTruncate, kStall };
  [[nodiscard]] L7Fault l7_fault(net::Ipv4Addr dst, int attempt) const;

  // ---- experiment layer (core::CellSupervisor) ----------------------
  // The process dies at the start of this grid cell (simulated via the
  // supervisor's kill token, not an actual abort).
  [[nodiscard]] bool cell_crash(std::uint64_t cell_index) const;
  // Virtual seconds this attempt of the cell stalls before producing a
  // result; 0 = no hang. The supervisor fails the attempt when the stall
  // exceeds its per-cell deadline.
  [[nodiscard]] std::uint64_t cell_hang_seconds(std::uint64_t cell_index,
                                                int attempt) const;

  // ---- distributed layer (core::run_worker) -------------------------
  // Whether worker `worker`, at protocol phase `phase` while handling
  // grant number `grant` (0-based) of cell `cell`, should SIGKILL itself
  // / stall forever. For WorkerPhase::kHello only worker= clauses match
  // (cell/grant are ignored); for the later phases only cell= clauses
  // match, on grants [0, attempts).
  [[nodiscard]] bool worker_kill(int worker, WorkerPhase phase,
                                 std::uint64_t cell, int grant) const;
  [[nodiscard]] bool worker_stall(int worker, WorkerPhase phase,
                                  std::uint64_t cell, int grant) const;

  // ---- journal / storage layer --------------------------------------
  // Whether a durable journal write should fail with a no-space error,
  // given the cumulative bytes the journal has written so far. Once
  // true it stays true for every larger count — storage does not come
  // back within a run.
  [[nodiscard]] bool enospc(std::uint64_t bytes_written) const;
  // Whether the `file_index`-th durable file the journal writes
  // (0-based, counted across segments and sidecars) gets one byte
  // flipped after the write lands.
  [[nodiscard]] bool segment_corrupt(std::uint64_t file_index) const;
  // Seed-chosen offset of the flipped byte; pure, does not record a
  // hit (segment_corrupt already did). `file_size` must be > 0.
  [[nodiscard]] std::uint64_t corrupt_offset(std::uint64_t file_index,
                                             std::uint64_t file_size) const;

  // ---- dist transport layer -----------------------------------------
  // Whether the `frame_index`-th frame worker `worker` sends to the
  // master (0-based, counted per worker process) gets one bit flipped
  // on the wire.
  [[nodiscard]] bool frame_garble(int worker,
                                  std::uint64_t frame_index) const;
  // Seed-chosen byte offset for the bitflip; pure, no hit recorded.
  [[nodiscard]] std::uint64_t garble_offset(int worker,
                                            std::uint64_t frame_index,
                                            std::uint64_t frame_size) const;

  // Diagnostics: how many times each injection point actually fired.
  [[nodiscard]] std::uint64_t hits(Point point) const {
    return hits_[static_cast<int>(point)].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_hits() const;

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  // Whether some `point` clause whose `unit` window holds `value` fires
  // (each p-coin is drawn from `stream`); records the hit.
  [[nodiscard]] bool window_fires(Point point, FaultClause::Unit unit,
                                  std::uint64_t value,
                                  std::uint64_t stream) const;
  [[nodiscard]] bool worker_fault(Point point, int worker, WorkerPhase phase,
                                  std::uint64_t cell, int grant) const;
  // The first `point` clause that `match` accepts, recording the hit;
  // nullptr when none does.
  template <typename Match>
  const FaultClause* first_hit(Point point, Match match) const;
  void record(Point point) const {
    hits_[static_cast<int>(point)].fetch_add(1, std::memory_order_relaxed);
  }

  FaultPlan plan_;
  std::uint64_t seed_;
  mutable std::array<std::atomic<std::uint64_t>, kPointCount> hits_{};
};

}  // namespace originscan::fault
