#include "core/dist.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <deque>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/goldens.h"
#include "core/store.h"
#include "netbase/byteio.h"
#include "netbase/frame.h"
#include "netbase/sha256.h"

namespace originscan::core {
namespace {

// ---- Transport helpers -----------------------------------------------

// MSG_NOSIGNAL everywhere: a peer death must surface as EPIPE, never as
// a process-wide SIGPIPE.
bool write_all(int fd, std::span<const std::uint8_t> data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool send_message(int fd, const WireMessage& message) {
  return write_all(fd, encode_message(message));
}

// Blocking read of the next protocol message (worker side — the worker
// has exactly one peer and nothing else to do). nullopt = EOF, transport
// error, or an undecodable frame; the worker treats all three as "the
// master is gone" and exits.
std::optional<WireMessage> read_message(int fd, net::FrameDecoder& decoder) {
  for (;;) {
    if (auto payload = decoder.next()) return decode_message(*payload);
    if (decoder.error() != net::FrameError::kNone) return std::nullopt;
    std::uint8_t buffer[65536];
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    if (n == 0) return std::nullopt;
    decoder.feed(std::span(buffer, static_cast<std::size_t>(n)));
  }
}

void put_string(net::ByteWriter& writer, std::string_view s) {
  writer.u32(static_cast<std::uint32_t>(s.size()));
  writer.bytes(std::span(reinterpret_cast<const std::uint8_t*>(s.data()),
                         s.size()));
}

std::string get_string(net::ByteReader& reader) {
  const std::uint32_t n = reader.u32();
  const auto bytes = reader.bytes(n);
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

std::vector<std::uint8_t> get_bytes(net::ByteReader& reader) {
  const std::uint32_t n = reader.u32();
  const auto bytes = reader.bytes(n);
  return std::vector<std::uint8_t>(bytes.begin(), bytes.end());
}

}  // namespace

// ---- Wire protocol ---------------------------------------------------

std::string_view segment_kind_name(SegmentKind kind) {
  switch (kind) {
    case SegmentKind::kRecords:
      return "records";
    case SegmentKind::kIds:
      return "ids";
    case SegmentKind::kMetrics:
      return "metrics";
  }
  return "?";
}

namespace {
#define OSN_X(symbol, value, name) DistProtocolSymbol{name, value},
constexpr DistProtocolSymbol kDistMessageSymbols[] = {
    OSN_DIST_MESSAGES(OSN_X)};
constexpr DistProtocolSymbol kDistSegmentSymbols[] = {
    OSN_DIST_SEGMENT_KINDS(OSN_X)};
#undef OSN_X
}  // namespace

std::span<const DistProtocolSymbol> dist_message_symbols() {
  return kDistMessageSymbols;
}
std::span<const DistProtocolSymbol> dist_segment_symbols() {
  return kDistSegmentSymbols;
}

std::vector<std::uint8_t> encode_message(const WireMessage& message) {
  std::vector<std::uint8_t> payload;
  net::ByteWriter writer(payload);
  writer.u8(static_cast<std::uint8_t>(message.type));
  switch (message.type) {
    case MsgType::kHello:
      writer.u32(message.worker);
      break;
    case MsgType::kClaim:
      break;
    case MsgType::kGrant:
      writer.u32(message.origin);
      writer.u32(message.chain_pos);
      writer.u32(message.grant);
      writer.u8(message.have_snapshot ? 1 : 0);
      writer.u32(static_cast<std::uint32_t>(message.snapshot.size()));
      writer.bytes(message.snapshot);
      break;
    case MsgType::kSegment:
      writer.u64(message.slot);
      writer.u8(static_cast<std::uint8_t>(message.kind));
      writer.u32(static_cast<std::uint32_t>(message.bytes.size()));
      writer.bytes(message.bytes);
      break;
    case MsgType::kDone:
      writer.u64(message.slot);
      writer.u32(message.attempts);
      writer.u8(message.lost ? 1 : 0);
      put_string(writer, message.sha256);
      put_string(writer, message.text);
      break;
    case MsgType::kAbort:
      put_string(writer, message.text);
      break;
  }
  return net::encode_frame(payload);
}

std::optional<WireMessage> decode_message(
    std::span<const std::uint8_t> payload) {
  net::ByteReader reader(payload);
  WireMessage message;
  const std::uint8_t type = reader.u8();
  if (type < static_cast<std::uint8_t>(MsgType::kHello) ||
      type > static_cast<std::uint8_t>(MsgType::kAbort)) {
    return std::nullopt;
  }
  message.type = static_cast<MsgType>(type);
  switch (message.type) {
    case MsgType::kHello:
      message.worker = reader.u32();
      break;
    case MsgType::kClaim:
      break;
    case MsgType::kGrant:
      message.origin = reader.u32();
      message.chain_pos = reader.u32();
      message.grant = reader.u32();
      message.have_snapshot = reader.u8() != 0;
      message.snapshot = get_bytes(reader);
      break;
    case MsgType::kSegment: {
      message.slot = reader.u64();
      const std::uint8_t kind = reader.u8();
      if (kind > static_cast<std::uint8_t>(SegmentKind::kMetrics)) {
        return std::nullopt;
      }
      message.kind = static_cast<SegmentKind>(kind);
      message.bytes = get_bytes(reader);
      break;
    }
    case MsgType::kDone:
      message.slot = reader.u64();
      message.attempts = reader.u32();
      message.lost = reader.u8() != 0;
      message.sha256 = get_string(reader);
      message.text = get_string(reader);
      break;
    case MsgType::kAbort:
      message.text = get_string(reader);
      break;
  }
  if (!reader.ok() || reader.remaining() != 0) return std::nullopt;
  return message;
}

// ---- Segment merging -------------------------------------------------

void SegmentMerger::add(std::uint64_t slot, SegmentKind kind,
                        std::vector<std::uint8_t> bytes) {
  // Last write wins: a re-granted cell's segments are byte-identical by
  // the determinism contract, so overwriting is idempotent (and the
  // fuzz suite's duplicated frames land here harmlessly).
  segments_[{slot, static_cast<std::uint8_t>(kind)}] = std::move(bytes);
}

void SegmentMerger::drop_slot(std::uint64_t slot) {
  for (std::uint8_t kind = 0; kind <= 2; ++kind) {
    segments_.erase({slot, kind});
  }
}

const std::vector<std::uint8_t>* SegmentMerger::get(std::uint64_t slot,
                                                    SegmentKind kind) const {
  const auto it = segments_.find({slot, static_cast<std::uint8_t>(kind)});
  return it == segments_.end() ? nullptr : &it->second;
}

bool SegmentMerger::complete(std::uint64_t slot) const {
  return get(slot, SegmentKind::kRecords) != nullptr &&
         get(slot, SegmentKind::kIds) != nullptr &&
         get(slot, SegmentKind::kMetrics) != nullptr;
}

std::string SegmentMerger::digest() const {
  std::vector<std::uint8_t> canon;
  net::ByteWriter writer(canon);
  for (const auto& [key, bytes] : segments_) {
    writer.u64(key.first);
    writer.u8(key.second);
    writer.u32(static_cast<std::uint32_t>(bytes.size()));
    writer.bytes(bytes);
  }
  return net::Sha256::hex(net::Sha256::of(canon));
}

// ---- Worker ----------------------------------------------------------

namespace {

// A kill fault is a real SIGKILL — no destructors, no flushes, exactly
// what the master must be able to absorb. A stall is a worker that
// never progresses; only the master's deadline can end it.
[[noreturn]] void fault_kill() {
  ::raise(SIGKILL);
  std::_Exit(137);  // unreachable; placates noreturn
}

[[noreturn]] void fault_stall() {
  for (;;) ::pause();
}

// Queries both worker fault points at a protocol checkpoint. `torn`
// (optional) is a fully framed message the kill tears in half on the
// wire first — the mid-SEGMENT death leaves the master a partial frame,
// which its decoder must classify, not choke on.
void worker_checkpoint(const fault::FaultInjector* faults, int worker,
                       fault::WorkerPhase phase, std::uint64_t cell,
                       int grant, int fd,
                       const std::vector<std::uint8_t>* torn) {
  if (faults == nullptr) return;
  if (faults->worker_kill(worker, phase, cell, grant)) {
    if (torn != nullptr && torn->size() >= 2) {
      (void)write_all(fd, std::span(torn->data(), torn->size() / 2));
    }
    fault_kill();
  }
  if (faults->worker_stall(worker, phase, cell, grant)) {
    fault_stall();
  }
}

}  // namespace

void run_worker(int fd, int worker_index, Experiment& experiment,
                const SupervisorPolicy& policy) {
  const fault::FaultInjector* faults = experiment.config().faults;
  worker_checkpoint(faults, worker_index, fault::WorkerPhase::kHello, 0, 0,
                    fd, nullptr);

  // All worker->master traffic funnels through here so the frame_garble
  // fault point sees one monotone frame index per process. A garbled
  // frame fails the master's CRC/decode check (dist.frame_errors), which
  // fails this worker and re-grants its chain — transport corruption is
  // absorbed by the same machinery as a worker death.
  std::uint64_t frames_sent = 0;
  const auto send_frame = [&](std::vector<std::uint8_t> frame) {
    const std::uint64_t frame_index = frames_sent++;
    if (faults != nullptr && !frame.empty() &&
        faults->frame_garble(worker_index, frame_index)) {
      const std::uint64_t offset =
          faults->garble_offset(worker_index, frame_index, frame.size());
      frame[offset] ^= 0x40;
      if (experiment.config().metrics != nullptr) {
        experiment.config().metrics->add(obsv::Counter::kFaultFrameGarble);
      }
    }
    return write_all(fd, frame);
  };
  const auto send = [&](const WireMessage& message) {
    return send_frame(encode_message(message));
  };

  WireMessage hello;
  hello.type = MsgType::kHello;
  hello.worker = static_cast<std::uint32_t>(worker_index);
  if (!send(hello)) return;

  const std::size_t origin_count = experiment.world().origins.size();
  const std::size_t chain_len = experiment.cell_count() / origin_count;

  // Engine and supervisor are built lazily on the first grant: a worker
  // that only ever parks (more workers than chains) never pays for the
  // per-trial Internets.
  std::optional<CellEngine> engine;
  std::optional<CellSupervisor> supervisor;
  net::FrameDecoder decoder;

  for (;;) {
    WireMessage claim;
    claim.type = MsgType::kClaim;
    if (!send(claim)) return;

    const auto grant_msg = read_message(fd, decoder);
    if (!grant_msg.has_value() || grant_msg->type != MsgType::kGrant) {
      return;  // ABORT, EOF, or protocol breakage: shut down
    }
    if (grant_msg->origin >= origin_count ||
        grant_msg->chain_pos >= chain_len) {
      return;
    }

    if (!engine.has_value()) {
      engine.emplace(experiment);
      engine->set_scan_jobs(experiment.config().jobs);
      supervisor.emplace(policy, faults, experiment.config().scenario.seed);
    }

    const auto origin = static_cast<sim::OriginId>(grant_msg->origin);
    IdsSnapshot snapshot;  // empty = chain start
    if (grant_msg->have_snapshot) {
      auto parsed = IdsSnapshot::parse(grant_msg->snapshot);
      if (!parsed.has_value()) return;
      snapshot = std::move(*parsed);
    }
    // Restore unconditionally: a previous grant on this worker may have
    // left another chain's-worth of state for this origin... it cannot
    // have (origins are granted to one worker at a time), but restoring
    // from the master's snapshot is what makes the worker stateless.
    engine->restore_origin(origin, snapshot);

    for (std::size_t pos = grant_msg->chain_pos; pos < chain_len; ++pos) {
      const std::uint64_t slot = pos * origin_count + origin;
      // Only the granted start cell carries a retry count — a re-grant
      // always restarts at the chain's first un-DONEd cell, so every
      // later cell is on its first grant.
      const int grant =
          pos == grant_msg->chain_pos ? static_cast<int>(grant_msg->grant) : 0;
      worker_checkpoint(faults, worker_index, fault::WorkerPhase::kClaim,
                        slot, grant, fd, nullptr);

      obsv::MetricBlock cell_block;
      CellOutcome outcome = engine->run_cell(slot, *supervisor, &cell_block);

      if (outcome.status == CellOutcome::Status::kKilled) {
        WireMessage abort_msg;
        abort_msg.type = MsgType::kAbort;
        abort_msg.text = "cell_crash fault";
        (void)send(abort_msg);
        return;
      }

      WireMessage done;
      done.type = MsgType::kDone;
      done.slot = slot;
      done.attempts = static_cast<std::uint32_t>(outcome.attempts);

      if (outcome.status == CellOutcome::Status::kLost) {
        // The supervisor already rolled the IDS back to the pre-cell
        // snapshot, so the chain continues as if the cell never ran.
        done.lost = true;
        done.text = outcome.reason;
        worker_checkpoint(faults, worker_index, fault::WorkerPhase::kDone,
                          slot, grant, fd, nullptr);
        if (!send(done)) return;
        continue;
      }

      // Stream the cell: exactly the three artifacts the journal would
      // persist, in the bytes the journal would write.
      const IdsSnapshot post = engine->capture_origin(origin);
      WireMessage segment;
      segment.type = MsgType::kSegment;
      segment.slot = slot;

      segment.kind = SegmentKind::kRecords;
      segment.bytes = serialize_results({outcome.result});
      const std::vector<std::uint8_t> records_frame = encode_message(segment);
      worker_checkpoint(faults, worker_index, fault::WorkerPhase::kSegment,
                        slot, grant, fd, &records_frame);
      if (!send_frame(records_frame)) return;

      segment.kind = SegmentKind::kIds;
      segment.bytes = serialize_cell_sidecar(post, outcome.result.l4_stats,
                                             outcome.result.attempt_histogram);
      if (!send(segment)) return;

      segment.kind = SegmentKind::kMetrics;
      segment.bytes = cell_block.serialize();
      if (!send(segment)) return;

      done.sha256 = digest_of(outcome.result).record_sha256;
      worker_checkpoint(faults, worker_index, fault::WorkerPhase::kDone, slot,
                        grant, fd, nullptr);
      if (!send(done)) return;
    }
  }
}

// ---- Master ----------------------------------------------------------

// The distributed master: forks workers, grants origin chains, merges
// streamed segments, and settles every cell through the same
// GridRecorder run_journaled uses — which is what makes the journal
// directory, the metrics snapshot, and the final grid byte-identical to
// a single-process run.
class GridMaster {
 public:
  using Clock = std::chrono::steady_clock;

  GridMaster(Experiment& experiment, ExperimentJournal* journal,
             const SupervisorPolicy& policy, const DistOptions& options,
             obsv::MetricBlock* dist_metrics,
             const std::function<void(std::string_view)>& progress)
      : experiment_(experiment),
        policy_(policy),
        options_(options),
        dist_(dist_metrics),
        recorder_(experiment, journal, progress) {}

  RunReport run();

 private:
  // One origin's serial chain of cells. `pos` is the first un-settled
  // chain position; `snapshot` is the IDS state that position expects
  // (the latest DONEd cell's post-state; nullopt = chain start).
  // `grant_failures` counts worker deaths attributed to the cell at `pos`.
  struct Chain {
    sim::OriginId origin = 0;
    std::size_t pos = 0;
    std::optional<IdsSnapshot> snapshot;
    int grant_failures = 0;
    bool active = false;  // currently granted to a live worker
  };

  struct Worker {
    pid_t pid = -1;
    int fd = -1;
    int index = -1;
    net::FrameDecoder decoder;
    bool helloed = false;
    bool claim_pending = false;  // parked: waiting for a chain
    bool failed = false;         // scheduled for fail_worker this sweep
    bool dead = false;           // reaped; erase at sweep
    int chain = -1;              // index into chains_, -1 = none
    Clock::time_point deadline = Clock::time_point::max();
  };

  void bump(obsv::Counter counter, std::uint64_t by = 1) {
    if (dist_ != nullptr) dist_->add(counter, by);
  }

  [[nodiscard]] std::size_t chain_slot(const Chain& chain) const {
    return chain.pos * experiment_.origin_count() + chain.origin;
  }

  [[nodiscard]] bool all_done() const {
    return std::all_of(chains_.begin(), chains_.end(), [&](const Chain& c) {
      return c.pos >= chain_len_;
    });
  }

  [[nodiscard]] std::size_t chains_remaining() const {
    return static_cast<std::size_t>(
        std::count_if(chains_.begin(), chains_.end(),
                      [&](const Chain& c) { return c.pos < chain_len_; }));
  }

  void spawn_worker();
  void ensure_workers(bool initial);
  void dispatch_ready();
  void refresh_deadline(Worker& worker, Clock::time_point now);
  void handle_message(Worker& worker, WireMessage message,
                      Clock::time_point now);
  void handle_done(Worker& worker, WireMessage message);
  void fail_worker(Worker& worker);
  void reap(Worker& worker);
  void shutdown_all(bool graceful);

  Experiment& experiment_;
  SupervisorPolicy policy_;
  DistOptions options_;
  obsv::MetricBlock* dist_;
  GridRecorder recorder_;

  std::size_t chain_len_ = 0;
  std::vector<Chain> chains_;
  std::deque<std::size_t> ready_;  // chain indices awaiting a grant
  std::vector<std::unique_ptr<Worker>> workers_;
  SegmentMerger merger_;
  int next_index_ = 0;
  int respawns_used_ = 0;
  std::optional<std::string> killed_;  // kill reason once a worker ABORTs
};

void GridMaster::spawn_worker() {
  int sv[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    throw std::runtime_error("socketpair failed for worker transport");
  }
  const int index = next_index_++;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    throw std::runtime_error("fork failed spawning worker");
  }
  if (pid == 0) {
    // Child. Drop every master-side fd (ours and the other workers') so
    // the master's EOF detection only depends on actual worker deaths.
    ::close(sv[0]);
    for (const auto& other : workers_) {
      if (other->fd >= 0) ::close(other->fd);
    }
    if (!options_.worker_argv.empty()) {
      std::vector<std::string> argv_strings = options_.worker_argv;
      argv_strings.push_back("--fd");
      argv_strings.push_back(std::to_string(sv[1]));
      argv_strings.push_back("--worker-index");
      argv_strings.push_back(std::to_string(index));
      std::vector<char*> argv;
      argv.reserve(argv_strings.size() + 1);
      for (std::string& s : argv_strings) argv.push_back(s.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::_Exit(127);
    }
    if (options_.worker_main) {
      options_.worker_main(sv[1], index);
    } else {
      // Fork transport: the child runs against its copy-on-write view of
      // the master's (never-run) experiment — same world, same faults,
      // private IDS state. The master is single-threaded here, so the
      // fork is safe even under TSan.
      run_worker(sv[1], index, experiment_, policy_);
    }
    std::_Exit(0);
  }
  ::close(sv[1]);
  auto worker = std::make_unique<Worker>();
  worker->pid = pid;
  worker->fd = sv[0];
  worker->index = index;
  worker->deadline = Clock::now() + options_.hello_timeout;
  workers_.push_back(std::move(worker));
  bump(obsv::Counter::kDistWorkersSpawned);
}

void GridMaster::ensure_workers(bool initial) {
  const std::size_t want = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(1, options_.workers)),
      chains_remaining());
  while (workers_.size() < want) {
    if (!initial) {
      if (respawns_used_ >= options_.respawn_budget) {
        if (workers_.empty()) {
          shutdown_all(/*graceful=*/false);
          throw std::runtime_error(
              "distributed run stalled: worker respawn budget (" +
              std::to_string(options_.respawn_budget) +
              ") exhausted with " + std::to_string(chains_remaining()) +
              " origin chains unfinished");
        }
        break;
      }
      ++respawns_used_;
      bump(obsv::Counter::kDistWorkersRestarted);
    }
    spawn_worker();
  }
}

void GridMaster::dispatch_ready() {
  if (recorder_.storage_dead()) {
    // Storage died: granting more work would only produce results that
    // cannot be persisted. Drain the queue by failing every waiting
    // chain's remaining cells fast, writing nothing — active workers'
    // cells are failed the same way as their DONEs arrive.
    while (!ready_.empty()) {
      Chain& chain = chains_[ready_.front()];
      ready_.pop_front();
      for (; chain.pos < chain_len_; ++chain.pos) {
        recorder_.fail_fast(chain_slot(chain));
        bump(obsv::Counter::kDistCellsLost);
      }
    }
    return;
  }
  while (!ready_.empty()) {
    Worker* parked = nullptr;
    for (const auto& worker : workers_) {
      if (!worker->failed && !worker->dead && worker->helloed &&
          worker->claim_pending && worker->chain < 0) {
        parked = worker.get();
        break;
      }
    }
    if (parked == nullptr) return;

    const std::size_t ci = ready_.front();
    Chain& chain = chains_[ci];
    WireMessage grant;
    grant.type = MsgType::kGrant;
    grant.origin = static_cast<std::uint32_t>(chain.origin);
    grant.chain_pos = static_cast<std::uint32_t>(chain.pos);
    grant.grant = static_cast<std::uint32_t>(chain.grant_failures);
    grant.have_snapshot = chain.snapshot.has_value();
    if (chain.snapshot.has_value()) grant.snapshot = chain.snapshot->serialize();
    if (!send_message(parked->fd, grant)) {
      // The worker died between its CLAIM and our grant; the poll loop
      // will reap it. The chain stays queued for the next candidate.
      parked->failed = true;
      continue;
    }
    ready_.pop_front();
    chain.active = true;
    parked->chain = static_cast<int>(ci);
    parked->claim_pending = false;
    parked->deadline = Clock::now() + options_.cell_timeout;
    bump(obsv::Counter::kDistChainsGranted);
    if (chain.grant_failures > 0) bump(obsv::Counter::kDistGrantRetries);
  }
}

void GridMaster::refresh_deadline(Worker& worker, Clock::time_point now) {
  if (!worker.helloed) return;  // hello deadline stays fixed from spawn
  if (worker.chain >= 0) {
    worker.deadline = now + options_.cell_timeout;
  } else if (worker.claim_pending) {
    worker.deadline = Clock::time_point::max();  // parked: no work, no clock
  } else {
    worker.deadline = now + options_.cell_timeout;  // CLAIM expected
  }
}

void GridMaster::handle_done(Worker& worker, WireMessage message) {
  if (worker.chain < 0) {
    worker.failed = true;
    return;
  }
  Chain& chain = chains_[static_cast<std::size_t>(worker.chain)];
  const std::size_t slot = chain_slot(chain);
  if (message.slot != slot) {
    worker.failed = true;
    return;
  }
  const auto attempts = static_cast<int>(message.attempts);

  if (message.lost) {
    // Supervisor retry budget exhausted inside the worker (cell_hang):
    // same degradation as the single-process run, same manifest line.
    merger_.drop_slot(slot);
    recorder_.lost(slot, attempts, message.text);
    bump(obsv::Counter::kDistCellsLost);
  } else {
    const auto* records = merger_.get(slot, SegmentKind::kRecords);
    const auto* ids = merger_.get(slot, SegmentKind::kIds);
    const auto* metrics = merger_.get(slot, SegmentKind::kMetrics);
    if (records == nullptr || ids == nullptr || metrics == nullptr) {
      worker.failed = true;  // DONE before its segments: protocol breach
      return;
    }
    auto parsed = parse_results(*records);
    if (!parsed.has_value() || parsed->size() != 1) {
      worker.failed = true;
      return;
    }
    scan::ScanResult result = std::move(parsed->front());
    IdsSnapshot snapshot;
    if (!parse_cell_sidecar(*ids, snapshot, result.l4_stats,
                            result.attempt_histogram)) {
      worker.failed = true;
      return;
    }
    // End-to-end integrity: the digest of the records as the master
    // parsed them must match what the worker computed before streaming.
    if (digest_of(result).record_sha256 != message.sha256) {
      worker.failed = true;
      return;
    }
    obsv::MetricBlock delta;
    if (experiment_.config().metrics != nullptr) {
      auto parsed_block = obsv::MetricBlock::parse(*metrics);
      if (!parsed_block.has_value()) {
        worker.failed = true;
        return;
      }
      delta = std::move(*parsed_block);
    }
    merger_.drop_slot(slot);  // parsed; free the buffered copies
    // A failed journal write, or storage already dead, loses the cell.
    // Storage does not come back (storage_dead latches), so
    // dispatch_ready stops granting; the chain still advances so the run
    // ends with an honestly labeled partial grid.
    if (recorder_.done(slot, std::move(result), snapshot, attempts,
                       std::move(delta))) {
      bump(obsv::Counter::kDistCellsCompleted);
      chain.snapshot = std::move(snapshot);
    } else {
      bump(obsv::Counter::kDistCellsLost);
    }
  }

  chain.grant_failures = 0;
  ++chain.pos;
  if (chain.pos >= chain_len_) {
    chain.active = false;
    worker.chain = -1;
  }
}

void GridMaster::handle_message(Worker& worker, WireMessage message,
                                Clock::time_point now) {
  switch (message.type) {
    case MsgType::kHello:
      if (worker.helloed ||
          message.worker != static_cast<std::uint32_t>(worker.index)) {
        worker.failed = true;
        return;
      }
      worker.helloed = true;
      break;
    case MsgType::kClaim:
      if (!worker.helloed || worker.chain >= 0) {
        worker.failed = true;
        return;
      }
      worker.claim_pending = true;
      break;
    case MsgType::kSegment: {
      if (worker.chain < 0) {
        worker.failed = true;
        return;
      }
      const Chain& chain = chains_[static_cast<std::size_t>(worker.chain)];
      if (message.slot != chain_slot(chain)) {
        worker.failed = true;
        return;
      }
      merger_.add(message.slot, message.kind, std::move(message.bytes));
      bump(obsv::Counter::kDistSegmentsReceived);
      break;
    }
    case MsgType::kDone:
      handle_done(worker, std::move(message));
      break;
    case MsgType::kAbort:
      // The worker's run was killed (cell_crash): the whole distributed
      // run degrades to kKilled, exactly like run_journaled.
      killed_ = message.text.empty() ? "cell_crash fault" : message.text;
      return;
    case MsgType::kGrant:
      worker.failed = true;  // master-only message from a worker
      return;
  }
  refresh_deadline(worker, now);
}

void GridMaster::reap(Worker& worker) {
  if (worker.dead) return;
  worker.dead = true;
  ::kill(worker.pid, SIGKILL);
  int status = 0;
  while (::waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (worker.fd >= 0) {
    ::close(worker.fd);
    worker.fd = -1;
  }
}

void GridMaster::fail_worker(Worker& worker) {
  if (worker.dead) return;
  reap(worker);
  bump(obsv::Counter::kDistWorkersFailed);
  if (worker.chain >= 0) {
    const auto ci = static_cast<std::size_t>(worker.chain);
    Chain& chain = chains_[ci];
    const std::size_t slot = chain_slot(chain);
    // Roll back: the un-DONEd cell's buffered segments are dropped and
    // the death is charged against that cell's grant budget.
    merger_.drop_slot(slot);
    chain.active = false;
    ++chain.grant_failures;
    if (chain.grant_failures >= policy_.max_attempts) {
      recorder_.lost(slot, chain.grant_failures,
                     "worker died in all " +
                         std::to_string(chain.grant_failures) + " grants");
      bump(obsv::Counter::kDistCellsLost);
      ++chain.pos;
      chain.grant_failures = 0;
    }
    if (chain.pos < chain_len_) ready_.push_back(ci);
    worker.chain = -1;
  }
}

void GridMaster::shutdown_all(bool graceful) {
  for (const auto& worker : workers_) {
    if (worker->dead) continue;
    if (graceful) {
      WireMessage abort_msg;
      abort_msg.type = MsgType::kAbort;
      (void)send_message(worker->fd, abort_msg);
    }
    reap(*worker);
  }
  workers_.clear();
}

RunReport GridMaster::run() {
  const std::size_t origin_count = experiment_.origin_count();
  chain_len_ = experiment_.cell_count() / origin_count;
  std::vector<std::optional<IdsSnapshot>> latest = recorder_.start();

  chains_.resize(origin_count);
  for (sim::OriginId origin = 0; origin < origin_count; ++origin) {
    Chain& chain = chains_[origin];
    chain.origin = origin;
    chain.snapshot = std::move(latest[origin]);
    // The settled prefix (adopted + journaled-lost cells) never runs
    // again; the chain resumes at the first open position.
    while (chain.pos < chain_len_ && recorder_.settled(chain_slot(chain))) {
      ++chain.pos;
    }
    if (chain.pos < chain_len_) ready_.push_back(origin);
  }

  if (!ready_.empty()) {
    ensure_workers(/*initial=*/true);

    while (!all_done() && !killed_) {
      dispatch_ready();
      ensure_workers(/*initial=*/false);

      // Poll timeout: the nearest worker deadline, capped so grants and
      // respawns stay responsive.
      const Clock::time_point now_pre = Clock::now();
      int timeout_ms = 200;
      for (const auto& worker : workers_) {
        if (worker->deadline == Clock::time_point::max()) continue;
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                worker->deadline - now_pre)
                .count();
        timeout_ms = std::clamp<int>(static_cast<int>(remaining), 0,
                                     timeout_ms);
      }

      std::vector<pollfd> fds;
      fds.reserve(workers_.size());
      for (const auto& worker : workers_) {
        fds.push_back(pollfd{worker->fd, POLLIN, 0});
      }
      const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
      const Clock::time_point now = Clock::now();

      if (rc > 0) {
        for (std::size_t i = 0; i < fds.size() && !killed_; ++i) {
          Worker& worker = *workers_[i];
          if (worker.failed || worker.dead) continue;
          if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
          std::uint8_t buffer[65536];
          ssize_t n;
          do {
            n = ::recv(worker.fd, buffer, sizeof buffer, 0);
          } while (n < 0 && errno == EINTR);
          if (n <= 0) {
            // EOF: the worker died. Bytes stuck in the decoder are a
            // torn mid-frame write — classified, never parsed.
            if (worker.decoder.buffered() > 0) {
              bump(obsv::Counter::kDistFrameErrors);
            }
            worker.failed = true;
            continue;
          }
          worker.decoder.feed(
              std::span(buffer, static_cast<std::size_t>(n)));
          while (!worker.failed && !killed_) {
            auto payload = worker.decoder.next();
            if (!payload.has_value()) break;
            auto message = decode_message(*payload);
            if (!message.has_value()) {
              bump(obsv::Counter::kDistFrameErrors);
              worker.failed = true;
              break;
            }
            handle_message(worker, std::move(*message), now);
          }
          if (worker.decoder.error() != net::FrameError::kNone) {
            bump(obsv::Counter::kDistFrameErrors);
            worker.failed = true;
          }
        }
      }

      // Deadlines: a worker that has shown no protocol progress within
      // its budget is indistinguishable from a stalled one — kill it.
      for (const auto& worker : workers_) {
        if (worker->failed || worker->dead) continue;
        if (now >= worker->deadline) {
          bump(obsv::Counter::kDistDeadlinesExpired);
          worker->failed = true;
        }
      }

      for (const auto& worker : workers_) {
        if (worker->failed && !worker->dead) fail_worker(*worker);
      }
      std::erase_if(workers_,
                    [](const std::unique_ptr<Worker>& w) { return w->dead; });
    }
  }

  if (killed_) {
    shutdown_all(/*graceful=*/false);
    return recorder_.killed(*killed_);
  }
  shutdown_all(/*graceful=*/true);
  return recorder_.finish();
}

RunReport run_distributed(
    Experiment& experiment, ExperimentJournal* journal,
    const SupervisorPolicy& policy, const DistOptions& options,
    obsv::MetricBlock* dist_metrics,
    const std::function<void(std::string_view)>& progress) {
  GridMaster master(experiment, journal, policy, options, dist_metrics,
                    progress);
  return master.run();
}

}  // namespace originscan::core
