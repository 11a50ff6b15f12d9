#include "service/service.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "core/parallel.h"

namespace originscan::service {

int make_unix_listener(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    if (error != nullptr) *error = "socket path too long: " + path;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 128) != 0) {
    if (error != nullptr) *error = std::string("bind/listen: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_unix(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    if (error != nullptr) *error = "socket path too long: " + path;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    if (error != nullptr) *error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

// One client connection owned by the event loop: its nonblocking frame
// stream and the requests it has open. `seq` disambiguates a reused fd
// number — completions carry the seq of the connection that submitted
// them and are discarded on mismatch.
struct Originscand::Connection {
  net::FrameStream stream;
  std::uint64_t seq = 0;
  bool hello_done = false;
  bool close_after_flush = false;  // flush outbound, then drop
  bool peer_gone = false;          // disconnect() ran: no reader left
  // client request_id -> loop-global request key
  std::unordered_map<std::uint64_t, std::uint64_t> open_requests;
};

// One admitted session, from SUBMIT to delivery. Stays in the table
// while an executor thread holds its CancelToken, even after its client
// is gone — the completion is what retires it.
struct Originscand::Request {
  std::uint64_t key = 0;  // loop-global
  std::uint64_t conn_seq = 0;
  int conn_fd = -1;
  std::uint64_t client_request_id = 0;
  std::uint32_t tenant = 0;
  SessionSpec spec;
  SessionState state = SessionState::kQueued;
  bool orphaned = false;        // client disconnected; discard delivery
  bool shutdown_drain = false;  // in flight when SHUTDOWN arrived
  std::unique_ptr<scan::CancelToken> cancel =
      std::make_unique<scan::CancelToken>();
};

struct Originscand::Completion {
  std::uint64_t key = 0;
  SessionOutcome outcome;
  obsv::MetricBlock scan_metrics;
};

// The event loop: one thread owning all sockets, the request table, and
// the service.* block; a ThreadPool running sessions; a wake pipe
// bridging executor completions back into poll().
class Originscand::Loop {
 public:
  Loop(Originscand& daemon, int listen_fd)
      : daemon_(daemon),
        config_(daemon.config_),
        metrics_(daemon.service_metrics_),
        listen_fd_(listen_fd),
        wake_read_fd_(daemon.wake_read_fd_),
        wake_write_fd_(daemon.wake_write_fd_) {}

  // The wake pipe belongs to the Originscand object (request_stop may
  // write it from any thread, even as serve() tears down), so ~Loop
  // closes nothing here.

  void run(std::vector<int> preconnected) {
    if (wake_read_fd_ < 0 || wake_write_fd_ < 0) return;
    if (listen_fd_ >= 0) net::set_nonblocking(listen_fd_);

    for (int fd : preconnected) adopt_connection(fd);

    while (!finished()) {
      poll_once();
      if (daemon_.stop_requested_.load(std::memory_order_relaxed)) {
        begin_drain();
      }
      drain_completions();
      dispatch();
    }

    // Admitted work has delivered (or its clients are gone); make sure
    // every executor thread has joined its queue before teardown.
    pool_.wait();
    drain_completions();
    // The fds may still be nonblocking: park on a full socket rather than
    // drop a RESULT the drain promised, but give up on a peer that reads
    // nothing for 100 ms.
    for (auto& [fd, conn] : connections_) (void)conn->stream.send_all({}, 100);
    connections_.clear();
  }

 private:
  // The loop exits once a drain was requested, every admitted session
  // has retired, and every surviving connection's outbound bytes are on
  // the wire (drain means *deliver*, not just finish).
  [[nodiscard]] bool finished() const {
    if (!draining_) return false;
    if (!requests_.empty()) return false;
    for (const auto& [fd, conn] : connections_) {
      if (conn->stream.flush_pending() && !conn->close_after_flush) {
        return false;
      }
    }
    return true;
  }

  void begin_drain() {
    if (draining_) return;
    draining_ = true;
    for (auto& [key, request] : requests_) request->shutdown_drain = true;
    if (config_.log) {
      config_.log("shutdown: draining " + std::to_string(requests_.size()) +
                  " in-flight session(s)");
    }
  }

  void poll_once() {
    std::vector<pollfd> fds;
    fds.push_back({wake_read_fd_, POLLIN, 0});
    if (listen_fd_ >= 0 && !draining_) {
      fds.push_back({listen_fd_, POLLIN, 0});
    }
    std::vector<int> conn_fds;
    for (auto& [fd, conn] : connections_) {
      short events = conn->close_after_flush ? 0 : POLLIN;
      if (conn->stream.flush_pending()) events |= POLLOUT;
      fds.push_back({fd, events, 0});
      conn_fds.push_back(fd);
    }
    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 200);
    if (rc <= 0) return;

    std::size_t index = 0;
    if (fds[index].revents & POLLIN) {
      std::uint8_t scratch[64];
      while (::read(wake_read_fd_, scratch, sizeof scratch) > 0) {
      }
    }
    ++index;
    if (listen_fd_ >= 0 && !draining_) {
      if (fds[index].revents & POLLIN) accept_connections();
      ++index;
    }
    for (int fd : conn_fds) {
      const short revents = fds[index++].revents;
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      Connection& conn = *it->second;
      if (revents & POLLOUT) flush_some(conn);
      if (revents & (POLLIN | POLLHUP | POLLERR)) read_some(conn);
    }
    reap_closed();
  }

  void accept_connections() {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) break;
      adopt_connection(fd);
    }
  }

  void adopt_connection(int fd) {
    net::set_nonblocking(fd);
    auto conn = std::make_unique<Connection>();
    conn->stream = net::FrameStream(fd);
    conn->seq = ++conn_seq_;
    connections_.emplace(fd, std::move(conn));
    metrics_.add(obsv::Counter::kServiceConnections);
  }

  void read_some(Connection& conn) {
    if (conn.close_after_flush) return;
    // Frames that arrived before a hang-up still count — a client may
    // legitimately send SHUTDOWN (or a fire-and-forget CANCEL) and hang
    // up in the same wire flight, so decode before disconnecting.
    const bool hung_up = !conn.stream.fill();
    while (auto payload = conn.stream.next()) {
      // A connection the daemon closed drops its remaining frames; one
      // whose peer hung up (even mid-loop, when a reply's flush failed)
      // still has them handled.
      if (conn.close_after_flush && !conn.peer_gone) break;
      handle_payload(conn, *payload);
    }
    if (!conn.close_after_flush &&
        conn.stream.error() != net::FrameError::kNone) {
      refuse(conn, 0, ServiceError::kMalformed,
             std::string("frame error: ") +
                 std::string(net::frame_error_name(conn.stream.error())));
      metrics_.add(obsv::Counter::kServiceFramesMalformed);
      conn.close_after_flush = true;
    }
    if (hung_up || conn.peer_gone) disconnect(conn);
  }

  void handle_payload(Connection& conn, std::span<const std::uint8_t> payload) {
    const auto message = decode_service_message(payload);
    if (!message) {
      refuse(conn, 0, ServiceError::kMalformed, "undecodable message");
      metrics_.add(obsv::Counter::kServiceFramesMalformed);
      conn.close_after_flush = true;
      return;
    }
    if (!conn.hello_done && message->type != ServiceMsg::kHello) {
      refuse(conn, 0, ServiceError::kMalformed, "expected HELLO first");
      metrics_.add(obsv::Counter::kServiceFramesMalformed);
      conn.close_after_flush = true;
      return;
    }
    switch (message->type) {
      case ServiceMsg::kHello:
        handle_hello(conn, *message);
        break;
      case ServiceMsg::kSubmit:
        handle_submit(conn, *message);
        break;
      case ServiceMsg::kStatus:
        handle_status(conn, *message);
        break;
      case ServiceMsg::kCancel:
        handle_cancel(conn, *message);
        break;
      case ServiceMsg::kShutdown:
        begin_drain();
        break;
      default:
        // Server-only message types arriving from a client are protocol
        // violations, same as undecodable bytes.
        refuse(conn, 0, ServiceError::kMalformed, "unexpected message type");
        metrics_.add(obsv::Counter::kServiceFramesMalformed);
        conn.close_after_flush = true;
        break;
    }
  }

  void handle_hello(Connection& conn, const ServiceWire& message) {
    if (message.version != kServiceProtocolVersion) {
      refuse(conn, 0, ServiceError::kBadVersion,
             "server speaks version " +
                 std::to_string(kServiceProtocolVersion));
      conn.close_after_flush = true;
      return;
    }
    conn.hello_done = true;
    ServiceWire ack;
    ack.type = ServiceMsg::kHelloAck;
    ack.version = kServiceProtocolVersion;
    ack.universe_seed = daemon_.universe_.seed();
    ack.universe_size = daemon_.universe_.universe_size();
    send(conn, ack);
  }

  void handle_submit(Connection& conn, const ServiceWire& message) {
    if (draining_) {
      reject(conn, message.request_id, ServiceError::kShuttingDown,
             "daemon is draining");
      return;
    }
    SessionSpec spec;
    spec.origin_code = message.origin_code;
    spec.protocol = message.protocol;
    spec.trial = message.trial;
    spec.probes = message.probes;
    spec.retries = message.retries;
    if (!spec.valid()) {
      reject(conn, message.request_id, ServiceError::kBadSpec,
             "trial in [1,3], probes in [1,8], retries in [0,8]");
      return;
    }
    if (daemon_.universe_.origin_id(spec.origin_code) == ~sim::OriginId{0}) {
      reject(conn, message.request_id, ServiceError::kUnknownOrigin,
             "unknown origin: " + spec.origin_code);
      return;
    }
    if (conn.open_requests.count(message.request_id) != 0) {
      reject(conn, message.request_id, ServiceError::kBadSpec,
             "request id already open on this connection");
      return;
    }
    if (inflight_ >= config_.max_inflight ||
        tenant_inflight_[message.tenant] >= config_.max_inflight_per_tenant) {
      reject(conn, message.request_id, ServiceError::kAdmissionFull,
             "admission caps reached");
      return;
    }

    auto request = std::make_unique<Request>();
    request->key = ++request_seq_;
    request->conn_seq = conn.seq;
    request->conn_fd = conn.stream.fd();
    request->client_request_id = message.request_id;
    request->tenant = message.tenant;
    request->spec = std::move(spec);
    const std::uint64_t key = request->key;
    conn.open_requests.emplace(message.request_id, key);

    ++inflight_;
    ++tenant_inflight_[message.tenant];
    inflight_peak_ = std::max<std::uint64_t>(inflight_peak_, inflight_);
    metrics_.add(obsv::Counter::kServiceRequestsAccepted);
    metrics_.gauge_max(obsv::Gauge::kServiceInflightPeak, inflight_peak_);

    auto& queue = tenant_queues_[message.tenant];
    queue.push_back(key);
    std::size_t queued_total = 0;
    for (const auto& [tenant, q] : tenant_queues_) queued_total += q.size();
    metrics_.observe(obsv::Histogram::kServiceQueueDepth, queued_total);

    ServiceWire ack;
    ack.type = ServiceMsg::kStatus;
    ack.request_id = message.request_id;
    ack.state = SessionState::kQueued;
    ack.queue_position = static_cast<std::uint32_t>(queue.size() - 1);
    send(conn, ack);

    requests_.emplace(key, std::move(request));
  }

  void handle_status(Connection& conn, const ServiceWire& message) {
    ServiceWire reply;
    reply.type = ServiceMsg::kStatus;
    reply.request_id = message.request_id;
    reply.state = SessionState::kUnknown;
    const auto it = conn.open_requests.find(message.request_id);
    if (it != conn.open_requests.end()) {
      const auto rit = requests_.find(it->second);
      if (rit != requests_.end()) {
        const Request& request = *rit->second;
        reply.state = request.state;
        if (request.state == SessionState::kQueued) {
          const auto& queue = tenant_queues_[request.tenant];
          for (std::size_t i = 0; i < queue.size(); ++i) {
            if (queue[i] == request.key) {
              reply.queue_position = static_cast<std::uint32_t>(i);
              break;
            }
          }
        }
      }
    }
    send(conn, reply);
  }

  void handle_cancel(Connection& conn, const ServiceWire& message) {
    const auto it = conn.open_requests.find(message.request_id);
    if (it == conn.open_requests.end()) {
      refuse(conn, message.request_id, ServiceError::kUnknownRequest,
             "no such open request");
      return;
    }
    const auto rit = requests_.find(it->second);
    if (rit == requests_.end()) return;
    Request& request = *rit->second;
    if (request.state == SessionState::kQueued) {
      // Never dispatched: drop it from its tenant queue and answer now.
      auto& queue = tenant_queues_[request.tenant];
      std::erase(queue, request.key);
      retire(request);
      metrics_.add(obsv::Counter::kServiceRequestsCancelled);
      refuse(conn, message.request_id, ServiceError::kCancelled,
             "cancelled while queued");
      requests_.erase(rit);
      conn.open_requests.erase(it);
      return;
    }
    // Running: trip the token; the executor winds down at its next batch
    // boundary and the completion path answers with ERROR CANCELLED.
    request.cancel->cancel();
  }

  // Peer vanished: every queued request it owns is dropped, every
  // running one is cooperatively cancelled (its completion is discarded
  // on arrival via `orphaned`). Nothing another tenant owns is touched.
  // Idempotent: a second call only cancels requests admitted since the
  // first (frames that were already buffered when the peer hung up).
  void disconnect(Connection& conn) {
    if (!conn.peer_gone) metrics_.add(obsv::Counter::kServiceDisconnects);
    conn.peer_gone = true;
    for (const auto& [client_id, key] : conn.open_requests) {
      const auto rit = requests_.find(key);
      if (rit == requests_.end()) continue;
      Request& request = *rit->second;
      request.orphaned = true;
      if (request.state == SessionState::kQueued) {
        std::erase(tenant_queues_[request.tenant], request.key);
        retire(request);
        metrics_.add(obsv::Counter::kServiceRequestsCancelled);
        requests_.erase(rit);
      } else {
        request.cancel->cancel();
      }
    }
    conn.open_requests.clear();
    conn.close_after_flush = true;
    conn.stream.discard_outbound();  // no reader left
  }

  // Round-robin across tenants with queued work: each pass hands at most
  // one session per tenant to the executor, so a flooding tenant only
  // ever gets the pool share a single-request tenant gets.
  void dispatch() {
    while (running_ < pool_.thread_count()) {
      std::uint64_t key = 0;
      if (!pick_next(key)) return;
      const auto rit = requests_.find(key);
      if (rit == requests_.end()) continue;
      Request& request = *rit->second;
      request.state = SessionState::kRunning;
      ++running_;
      const SessionSpec spec = request.spec;
      const scan::CancelToken* cancel = request.cancel.get();
      const std::string track = "svc/t" + std::to_string(request.tenant) +
                                "/r" +
                                std::to_string(request.client_request_id);
      pool_.submit([this, key, spec, cancel, track] {
        if (config_.session_started_hook) config_.session_started_hook();
        Completion completion;
        completion.key = key;
        completion.outcome =
            run_session(daemon_.universe_, spec, config_.scan_jobs, cancel,
                        &completion.scan_metrics, config_.trace, track);
        {
          std::scoped_lock lock(completions_mutex_);
          completions_.push_back(std::move(completion));
        }
        const std::uint8_t byte = 1;
        (void)!::write(wake_write_fd_, &byte, 1);
      });
    }
  }

  bool pick_next(std::uint64_t& key) {
    // Queues can be empty without being erased (a queued request that
    // was cancelled or orphaned is removed by std::erase), so sweep
    // those out here; each pass either returns or shrinks the map, so
    // the loop terminates.
    while (!tenant_queues_.empty()) {
      auto it = tenant_queues_.lower_bound(rr_cursor_);
      if (it == tenant_queues_.end()) it = tenant_queues_.begin();
      rr_cursor_ = it->first + 1;  // next pass starts after this tenant
      if (it->second.empty()) {
        tenant_queues_.erase(it);
        continue;
      }
      key = it->second.front();
      it->second.pop_front();
      if (it->second.empty()) tenant_queues_.erase(it);
      return true;
    }
    return false;
  }

  void drain_completions() {
    std::vector<Completion> batch;
    {
      std::scoped_lock lock(completions_mutex_);
      batch.swap(completions_);
    }
    for (Completion& completion : batch) deliver(completion);
  }

  void deliver(Completion& completion) {
    const auto rit = requests_.find(completion.key);
    if (rit == requests_.end()) return;
    Request& request = *rit->second;
    --running_;
    retire(request);

    if (completion.outcome.ok) {
      metrics_.add(obsv::Counter::kServiceRequestsCompleted);
      if (request.shutdown_drain) {
        metrics_.add(obsv::Counter::kServiceShutdownDrained);
      }
      if (config_.metrics != nullptr) {
        config_.metrics->merge_block(completion.scan_metrics);
      }
    } else {
      metrics_.add(obsv::Counter::kServiceRequestsCancelled);
    }

    Connection* conn = find_connection(request.conn_fd, request.conn_seq);
    if (conn != nullptr && !request.orphaned) {
      if (completion.outcome.ok) {
        ServiceWire result;
        result.type = ServiceMsg::kResult;
        result.request_id = request.client_request_id;
        result.records = std::move(completion.outcome.records);
        send(*conn, result);
      } else {
        refuse(*conn, request.client_request_id, ServiceError::kCancelled,
               completion.outcome.error);
      }
      conn->open_requests.erase(request.client_request_id);
    }
    if (config_.log) {
      config_.log("tenant " + std::to_string(request.tenant) + " request " +
                  std::to_string(request.client_request_id) +
                  (completion.outcome.ok
                       ? " done, " +
                             std::to_string(completion.outcome.record_count) +
                             " records"
                       : " " + completion.outcome.error));
    }
    requests_.erase(rit);
  }

  void retire(Request& request) {
    --inflight_;
    auto it = tenant_inflight_.find(request.tenant);
    if (it != tenant_inflight_.end() && --it->second == 0) {
      tenant_inflight_.erase(it);
    }
  }

  Connection* find_connection(int fd, std::uint64_t seq) {
    const auto it = connections_.find(fd);
    if (it == connections_.end() || it->second->seq != seq) return nullptr;
    return it->second.get();
  }

  // ---- outbound path --------------------------------------------------

  void send(Connection& conn, const ServiceWire& message) {
    if (conn.peer_gone) return;
    conn.stream.queue(encode_service_message(message));
    flush_some(conn);
  }

  void refuse(Connection& conn, std::uint64_t request_id, ServiceError error,
              std::string text) {
    ServiceWire message;
    message.type = ServiceMsg::kError;
    message.request_id = request_id;
    message.error = error;
    message.text = std::move(text);
    send(conn, message);
  }

  void reject(Connection& conn, std::uint64_t request_id, ServiceError error,
              std::string text) {
    metrics_.add(obsv::Counter::kServiceRequestsRejected);
    refuse(conn, request_id, error, std::move(text));
  }

  void flush_some(Connection& conn) {
    if (conn.stream.flush() == net::FrameStream::Io::kClosed) disconnect(conn);
  }

  // Connections marked dead are reaped after the event pass so iterator
  // invalidation can't bite mid-loop.
  void reap_closed() {
    for (auto it = connections_.begin(); it != connections_.end();) {
      Connection& conn = *it->second;
      if (conn.close_after_flush && !conn.stream.flush_pending()) {
        it = connections_.erase(it);  // the stream closes the fd
      } else {
        ++it;
      }
    }
  }

  Originscand& daemon_;
  const ServiceConfig& config_;
  obsv::MetricBlock& metrics_;
  int listen_fd_;

  const int wake_read_fd_;
  const int wake_write_fd_;

  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Request>> requests_;
  std::map<std::uint32_t, std::deque<std::uint64_t>> tenant_queues_;
  std::unordered_map<std::uint32_t, std::uint32_t> tenant_inflight_;
  std::uint32_t rr_cursor_ = 0;
  std::uint64_t conn_seq_ = 0;
  std::uint64_t request_seq_ = 0;
  std::uint32_t inflight_ = 0;
  std::uint64_t inflight_peak_ = 0;
  int running_ = 0;
  bool draining_ = false;

  std::mutex completions_mutex_;
  std::vector<Completion> completions_;

  // Declared last so it is destroyed first: even on an exceptional
  // unwind, executor threads join while every member they touch (the
  // completion queue, the wake pipe) is still alive.
  core::ThreadPool pool_{config_.executor_threads};
};

Originscand::Originscand(const ServiceConfig& config)
    : config_(config), universe_(config.scenario) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) == 0) {
    wake_read_fd_ = pipe_fds[0];
    wake_write_fd_ = pipe_fds[1];
    net::set_nonblocking(wake_read_fd_);
    net::set_nonblocking(wake_write_fd_);
  }
}

Originscand::~Originscand() {
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

void Originscand::serve(int listen_fd, std::vector<int> preconnected) {
  if (served_) return;
  served_ = true;
  Loop loop(*this, listen_fd);
  loop.run(std::move(preconnected));
}

void Originscand::request_stop() {
  stop_requested_.store(true, std::memory_order_relaxed);
  const int fd = wake_write_fd_;
  if (fd >= 0) {
    const std::uint8_t byte = 1;
    (void)!::write(fd, &byte, 1);
  }
}

}  // namespace originscan::service
