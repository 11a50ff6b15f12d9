// Tests for the originscand scan-as-a-service daemon (src/service/):
// the universe/session split's byte-identity guarantee under concurrent
// tenants, admission control, fair-share scheduling, cancellation,
// mid-request disconnects, SHUTDOWN drain, HELLO negotiation, and
// malformed-frame rejection. All transports are socketpairs — no real
// network, no filesystem.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "core/store.h"
#include "service/client.h"
#include "service/loadgen.h"
#include "service/service.h"

namespace originscan {
namespace {

sim::ScenarioConfig tiny_scenario() {
  sim::ScenarioConfig scenario;
  scenario.universe_size = 1u << 12;
  scenario.seed = 0x05CA9;
  return scenario;
}

service::ServiceConfig tiny_config() {
  service::ServiceConfig config;
  config.scenario = tiny_scenario();
  config.executor_threads = 2;
  return config;
}

// Makes a socketpair, hands one end to the daemon, returns the other.
int client_end(std::vector<int>& server_ends) {
  int sv[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  server_ends.push_back(sv[1]);
  return sv[0];
}

// A gate the session_started_hook blocks on, so tests can hold sessions
// in-flight deterministically.
class Gate {
 public:
  void wait() {
    std::unique_lock lock(mutex_);
    ++arrived_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }
  void await_arrivals(int n) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this, n] { return arrived_ >= n; });
  }
  void open() {
    std::scoped_lock lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int arrived_ = 0;
  bool open_ = false;
};

TEST(Service, SessionMatchesDirectExperimentScan) {
  // The core byte-identity claim, at its root: run_session over a
  // FrozenUniverse (what `originscan scan` and the daemon run) produces
  // exactly the bytes of Experiment::run_extra_scan with a fresh
  // PersistentState, at the default spec and at a non-default --probes.
  const auto scenario = tiny_scenario();
  service::FrozenUniverse universe(scenario);

  for (const int probes : {2, 1}) {
    SCOPED_TRACE(probes);
    service::SessionSpec spec;
    spec.origin_code = "JP";
    spec.protocol = proto::Protocol::kHttps;
    spec.trial = 2;
    spec.probes = probes;
    spec.retries = 1;
    const auto outcome = service::run_session(universe, spec);
    ASSERT_TRUE(outcome.ok) << outcome.error;

    core::ExperimentConfig config;
    config.scenario = scenario;
    config.protocols = {spec.protocol};
    core::Experiment experiment(config);
    scan::ScanOptions options;
    options.probes = spec.probes;
    options.l7_retries = spec.retries;
    const auto direct = experiment.run_extra_scan(
        spec.trial - 1, spec.protocol, experiment.origin_id(spec.origin_code),
        options);
    EXPECT_EQ(outcome.records, core::serialize_results({direct}));
    EXPECT_EQ(outcome.record_count, direct.records.size());
  }
}

TEST(Service, RejectsInvalidSpecsAndUnknownOrigins) {
  service::FrozenUniverse universe(tiny_scenario());
  service::SessionSpec bad_trial;
  bad_trial.trial = 4;
  EXPECT_FALSE(service::run_session(universe, bad_trial).ok);
  service::SessionSpec bad_origin;
  bad_origin.origin_code = "XX";
  const auto outcome = service::run_session(universe, bad_origin);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("unknown origin"), std::string::npos);
}

TEST(Service, HelloNegotiationAndVersionRefusal) {
  std::vector<int> server_ends;
  const int good_fd = client_end(server_ends);
  const int bad_fd = client_end(server_ends);

  service::Originscand daemon(tiny_config());
  std::thread serving([&] { daemon.serve(-1, server_ends); });

  {
    service::ServiceClient client(good_fd);
    ASSERT_TRUE(client.hello()) << client.error();
    EXPECT_EQ(client.universe_seed(), tiny_scenario().seed);
    EXPECT_EQ(client.universe_size(), tiny_scenario().universe_size);
  }
  {
    service::ServiceClient client(bad_fd);
    service::ServiceWire hello;
    hello.type = service::ServiceMsg::kHello;
    hello.version = 99;
    ASSERT_TRUE(client.send(hello));
    const auto reply = client.next_message();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, service::ServiceMsg::kError);
    EXPECT_EQ(reply->error, service::ServiceError::kBadVersion);
    // The daemon closes the connection after the refusal.
    EXPECT_FALSE(client.next_message().has_value());
  }

  daemon.request_stop();
  serving.join();
}

TEST(Service, ConcurrentTenantsGetByteIdenticalRecords) {
  // Four tenants hammer the daemon concurrently over two multiplexed
  // connections while two executor threads interleave their sessions;
  // every RESULT must byte-match the direct single-run scan.
  std::vector<int> server_ends;
  const int fd_a = client_end(server_ends);
  const int fd_b = client_end(server_ends);

  service::Originscand daemon(tiny_config());
  std::thread serving([&] { daemon.serve(-1, server_ends); });

  const service::SessionSpec specs[] = {
      {.origin_code = "AU", .protocol = proto::Protocol::kHttp, .trial = 1},
      {.origin_code = "DE", .protocol = proto::Protocol::kSsh, .trial = 2},
      {.origin_code = "US1", .protocol = proto::Protocol::kHttps, .trial = 3},
      {.origin_code = "CEN", .protocol = proto::Protocol::kHttp, .trial = 2},
  };

  service::ServiceClient a(fd_a);
  service::ServiceClient b(fd_b);
  ASSERT_TRUE(a.hello()) << a.error();
  ASSERT_TRUE(b.hello()) << b.error();
  // Tenants 0/1 ride connection A, tenants 2/3 connection B; everything
  // is in flight at once.
  ASSERT_TRUE(a.submit(1, 0, specs[0]));
  ASSERT_TRUE(a.submit(2, 1, specs[1]));
  ASSERT_TRUE(b.submit(1, 2, specs[2]));
  ASSERT_TRUE(b.submit(2, 3, specs[3]));

  // Answers arrive in completion order, so collect them per connection
  // with next_message() (wait_for would discard the other request's
  // terminal answer on a multiplexed connection).
  std::map<std::uint64_t, service::ServiceWire> from_a, from_b;
  const auto collect = [](service::ServiceClient& client,
                          std::map<std::uint64_t, service::ServiceWire>& out) {
    while (out.size() < 2) {
      auto message = client.next_message();
      ASSERT_TRUE(message.has_value()) << client.error();
      if (message->type == service::ServiceMsg::kResult ||
          message->type == service::ServiceMsg::kError) {
        out.emplace(message->request_id, std::move(*message));
      }
    }
  };
  collect(a, from_a);
  collect(b, from_b);

  service::FrozenUniverse solo(tiny_scenario());
  const service::ServiceWire* answers[] = {&from_a.at(1), &from_a.at(2),
                                           &from_b.at(1), &from_b.at(2)};
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(answers[i]->type, service::ServiceMsg::kResult)
        << "spec " << i << ": " << answers[i]->text;
    const auto direct = service::run_session(solo, specs[i]);
    ASSERT_TRUE(direct.ok);
    EXPECT_EQ(answers[i]->records, direct.records) << "spec " << i;
  }

  daemon.request_stop();
  serving.join();
  EXPECT_EQ(daemon.service_metrics().counter(
                obsv::Counter::kServiceRequestsCompleted),
            4u);
}

TEST(Service, AdmissionControlRefusesBeyondCaps) {
  // One executor thread held at the gate + one queued = the global cap
  // of 2 is full; the third SUBMIT must be refused, deterministically.
  auto gate = std::make_shared<Gate>();
  service::ServiceConfig config = tiny_config();
  config.executor_threads = 1;
  config.max_inflight = 2;
  config.session_started_hook = [gate] { gate->wait(); };

  std::vector<int> server_ends;
  const int fd = client_end(server_ends);
  service::Originscand daemon(config);
  std::thread serving([&] { daemon.serve(-1, server_ends); });

  service::ServiceClient client(fd);
  ASSERT_TRUE(client.hello()) << client.error();
  service::SessionSpec spec;
  ASSERT_TRUE(client.submit(1, 0, spec));
  gate->await_arrivals(1);  // request 1 is running, held at the gate
  ASSERT_TRUE(client.submit(2, 0, spec));  // queued: cap reached
  ASSERT_TRUE(client.submit(3, 0, spec));  // must be refused

  const auto refusal = client.wait_for(3);
  ASSERT_TRUE(refusal.has_value()) << client.error();
  ASSERT_EQ(refusal->type, service::ServiceMsg::kError);
  EXPECT_EQ(refusal->error, service::ServiceError::kAdmissionFull);

  gate->open();
  const auto one = client.wait_for(1);
  const auto two = client.wait_for(2);
  ASSERT_TRUE(one.has_value());
  ASSERT_TRUE(two.has_value());
  EXPECT_EQ(one->type, service::ServiceMsg::kResult);
  EXPECT_EQ(two->type, service::ServiceMsg::kResult);

  daemon.request_stop();
  serving.join();
  const auto& metrics = daemon.service_metrics();
  EXPECT_EQ(metrics.counter(obsv::Counter::kServiceRequestsRejected), 1u);
  EXPECT_EQ(metrics.counter(obsv::Counter::kServiceRequestsAccepted), 2u);
  EXPECT_EQ(metrics.gauge(obsv::Gauge::kServiceInflightPeak), 2u);
}

TEST(Service, CancelQueuedAndRunningRequests) {
  auto gate = std::make_shared<Gate>();
  service::ServiceConfig config = tiny_config();
  config.executor_threads = 1;
  config.session_started_hook = [gate] { gate->wait(); };

  std::vector<int> server_ends;
  const int fd = client_end(server_ends);
  service::Originscand daemon(config);
  std::thread serving([&] { daemon.serve(-1, server_ends); });

  service::ServiceClient client(fd);
  ASSERT_TRUE(client.hello()) << client.error();
  service::SessionSpec spec;
  ASSERT_TRUE(client.submit(1, 0, spec));
  gate->await_arrivals(1);
  ASSERT_TRUE(client.submit(2, 0, spec));  // queued behind the gate

  // Cancel the queued request: immediate ERROR CANCELLED.
  service::ServiceWire cancel;
  cancel.type = service::ServiceMsg::kCancel;
  cancel.request_id = 2;
  ASSERT_TRUE(client.send(cancel));
  const auto cancelled = client.wait_for(2);
  ASSERT_TRUE(cancelled.has_value());
  ASSERT_EQ(cancelled->type, service::ServiceMsg::kError);
  EXPECT_EQ(cancelled->error, service::ServiceError::kCancelled);

  // Cancel an unknown id: ERROR UNKNOWN_REQUEST.
  cancel.request_id = 99;
  ASSERT_TRUE(client.send(cancel));
  const auto unknown = client.wait_for(99);
  ASSERT_TRUE(unknown.has_value());
  ASSERT_EQ(unknown->type, service::ServiceMsg::kError);
  EXPECT_EQ(unknown->error, service::ServiceError::kUnknownRequest);

  // Cancel the running request while it is held at the gate, then let it
  // proceed: the scan aborts cooperatively and answers ERROR CANCELLED.
  // The STATUS round trip proves the loop handled the CANCEL (frames on
  // one connection are handled in order) before the gate opens; without
  // it the scan can finish first and answer RESULT.
  cancel.request_id = 1;
  ASSERT_TRUE(client.send(cancel));
  service::ServiceWire status;
  status.type = service::ServiceMsg::kStatus;
  status.request_id = 1;
  ASSERT_TRUE(client.send(status));
  const auto status_reply = client.next_message();
  ASSERT_TRUE(status_reply.has_value()) << client.error();
  ASSERT_EQ(status_reply->type, service::ServiceMsg::kStatus);
  gate->open();
  const auto aborted = client.wait_for(1);
  ASSERT_TRUE(aborted.has_value());
  ASSERT_EQ(aborted->type, service::ServiceMsg::kError);
  EXPECT_EQ(aborted->error, service::ServiceError::kCancelled);

  daemon.request_stop();
  serving.join();
  EXPECT_EQ(daemon.service_metrics().counter(
                obsv::Counter::kServiceRequestsCancelled),
            2u);
}

TEST(Service, MidRequestDisconnectCancelsOnlyThatClient) {
  auto gate = std::make_shared<Gate>();
  service::ServiceConfig config = tiny_config();
  config.executor_threads = 2;
  config.session_started_hook = [gate] { gate->wait(); };

  std::vector<int> server_ends;
  const int doomed_fd = client_end(server_ends);
  const int steady_fd = client_end(server_ends);
  service::Originscand daemon(config);
  std::thread serving([&] { daemon.serve(-1, server_ends); });

  service::ServiceClient steady(steady_fd);
  ASSERT_TRUE(steady.hello()) << steady.error();
  service::SessionSpec spec;
  ASSERT_TRUE(steady.submit(1, 1, spec));
  {
    service::ServiceClient doomed(doomed_fd);
    ASSERT_TRUE(doomed.hello()) << doomed.error();
    ASSERT_TRUE(doomed.submit(1, 0, spec));
    gate->await_arrivals(2);  // both sessions running
    // ~doomed closes the fd mid-request.
  }
  // Let the event loop notice the hangup before releasing the sessions:
  // each STATUS round trip on the steady connection proves a full poll
  // pass ran, and the hangup is level-triggered, so two passes guarantee
  // the disconnect handler fired and tripped the doomed session's token.
  for (int i = 0; i < 2; ++i) {
    service::ServiceWire poll_msg;
    poll_msg.type = service::ServiceMsg::kStatus;
    poll_msg.request_id = 1;
    ASSERT_TRUE(steady.send(poll_msg));
    const auto reply = steady.next_message();
    ASSERT_TRUE(reply.has_value()) << steady.error();
    ASSERT_EQ(reply->type, service::ServiceMsg::kStatus);
  }
  gate->open();

  // The surviving client's request is untouched by the neighbor's death.
  const auto answer = steady.wait_for(1);
  ASSERT_TRUE(answer.has_value()) << steady.error();
  EXPECT_EQ(answer->type, service::ServiceMsg::kResult);

  daemon.request_stop();
  serving.join();
  const auto& metrics = daemon.service_metrics();
  EXPECT_GE(metrics.counter(obsv::Counter::kServiceDisconnects), 1u);
  EXPECT_EQ(metrics.counter(obsv::Counter::kServiceRequestsCancelled), 1u);
  EXPECT_EQ(metrics.counter(obsv::Counter::kServiceRequestsCompleted), 1u);
}

TEST(Service, ShutdownDrainsAdmittedWorkThenExits) {
  std::vector<int> server_ends;
  const int fd = client_end(server_ends);
  service::Originscand daemon(tiny_config());
  std::thread serving([&] { daemon.serve(-1, server_ends); });

  service::ServiceClient client(fd);
  ASSERT_TRUE(client.hello()) << client.error();
  service::SessionSpec spec;
  ASSERT_TRUE(client.submit(1, 0, spec));
  ASSERT_TRUE(client.submit(2, 1, spec));
  service::ServiceWire shutdown;
  shutdown.type = service::ServiceMsg::kShutdown;
  ASSERT_TRUE(client.send(shutdown));
  // A SUBMIT racing the drain is refused, never silently dropped.
  ASSERT_TRUE(client.submit(3, 2, spec));

  int results = 0;
  bool refused_during_drain = false;
  for (int i = 0; i < 3; ++i) {
    const auto message = client.next_message();
    if (!message) break;
    if (message->type == service::ServiceMsg::kStatus) {
      --i;
      continue;
    }
    if (message->type == service::ServiceMsg::kResult) ++results;
    if (message->type == service::ServiceMsg::kError &&
        message->error == service::ServiceError::kShuttingDown) {
      refused_during_drain = true;
    }
  }
  EXPECT_EQ(results, 2);
  EXPECT_TRUE(refused_during_drain);

  serving.join();  // SHUTDOWN alone must terminate serve()
  const auto& metrics = daemon.service_metrics();
  EXPECT_EQ(metrics.counter(obsv::Counter::kServiceRequestsCompleted), 2u);
  EXPECT_EQ(metrics.counter(obsv::Counter::kServiceShutdownDrained), 2u);
}

// A `client --shutdown` sends SHUTDOWN and hangs up without waiting for
// the drain. The daemon sees the frame and the EOF in the same poll wake
// — the frame must still be decoded (regression: read_some used to drop
// buffered frames on disconnect, leaving the daemon running forever).
// To make that one wake certain, the daemon's loop is parked in its log
// callback (after it delivered a RESULT) while the client sends
// SHUTDOWN and hangs up; a loop left free could wake between the two.
TEST(Service, ShutdownFromClientThatImmediatelyDisconnects) {
  auto gate = std::make_shared<Gate>();
  service::ServiceConfig config = tiny_config();
  config.log = [gate](std::string_view line) {
    if (line.find(" done, ") != std::string_view::npos) gate->wait();
  };
  std::vector<int> server_ends;
  const int fd = client_end(server_ends);
  service::Originscand daemon(config);
  std::thread serving([&] { daemon.serve(-1, server_ends); });

  {
    service::ServiceClient client(fd);
    ASSERT_TRUE(client.hello()) << client.error();
    ASSERT_TRUE(client.submit(1, 0, service::SessionSpec{}));
    const auto result = client.wait_for(1);
    ASSERT_TRUE(result.has_value()) << client.error();
    ASSERT_EQ(result->type, service::ServiceMsg::kResult);
    gate->await_arrivals(1);  // the loop is parked in its log line
    service::ServiceWire shutdown;
    shutdown.type = service::ServiceMsg::kShutdown;
    ASSERT_TRUE(client.send(shutdown));
  }  // destructor closes the fd right behind the SHUTDOWN bytes
  gate->open();

  serving.join();  // must return without any request_stop nudge
  EXPECT_EQ(
      daemon.service_metrics().counter(obsv::Counter::kServiceDisconnects),
      1u);
}

// A client that sends HELLO and SHUTDOWN and hangs up before reading
// anything: the HELLO_ACK's flush fails (EPIPE), and the SHUTDOWN already
// buffered behind the HELLO must still be handled, so serve() returns on
// its own. A watchdog turns a hang into a failure.
TEST(Service, ShutdownBufferedBehindFailedAckFlush) {
  std::vector<int> server_ends;
  const int fd = client_end(server_ends);
  {
    service::ServiceClient client(fd);
    service::ServiceWire hello;
    hello.type = service::ServiceMsg::kHello;
    ASSERT_TRUE(client.send(hello));
    service::ServiceWire shutdown;
    shutdown.type = service::ServiceMsg::kShutdown;
    ASSERT_TRUE(client.send(shutdown));
  }  // hangs up before the daemon reads a byte

  service::Originscand daemon(tiny_config());
  std::mutex mutex;
  std::condition_variable cv;
  bool served = false;
  std::thread serving([&] {
    daemon.serve(-1, server_ends);
    std::scoped_lock lock(mutex);
    served = true;
    cv.notify_all();
  });
  bool returned = false;
  {
    std::unique_lock lock(mutex);
    returned = cv.wait_for(lock, std::chrono::seconds(20),
                           [&served] { return served; });
  }
  if (!returned) daemon.request_stop();  // unblock the join, then fail
  serving.join();
  EXPECT_TRUE(returned) << "serve() ignored the buffered SHUTDOWN";
  EXPECT_EQ(
      daemon.service_metrics().counter(obsv::Counter::kServiceDisconnects),
      1u);
}

TEST(Service, MalformedFramesPoisonOnlyTheirConnection) {
  std::vector<int> server_ends;
  const int garbage_fd = client_end(server_ends);
  const int steady_fd = client_end(server_ends);
  service::Originscand daemon(tiny_config());
  std::thread serving([&] { daemon.serve(-1, server_ends); });

  service::ServiceClient steady(steady_fd);
  ASSERT_TRUE(steady.hello()) << steady.error();

  {
    // A frame whose CRC cannot match: the daemon answers ERROR MALFORMED
    // (request 0) and drops the connection.
    service::ServiceClient garbage(garbage_fd);
    ASSERT_TRUE(garbage.hello()) << garbage.error();
    const std::uint8_t junk[] = {0, 0, 0, 4, 1, 2, 3, 4, 9, 9, 9, 9};
    ASSERT_EQ(::send(garbage.fd(), junk, sizeof junk, 0),
              static_cast<ssize_t>(sizeof junk));
    const auto reply = garbage.next_message();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, service::ServiceMsg::kError);
    EXPECT_EQ(reply->error, service::ServiceError::kMalformed);
    EXPECT_FALSE(garbage.next_message().has_value());  // closed
  }
  {
    // An out-of-range spec is refused per-request without poisoning the
    // connection (BAD_SPEC is recoverable; MALFORMED is not).
    service::SessionSpec bad;
    bad.trial = 7;
    ASSERT_TRUE(steady.submit(5, 0, bad));
    const auto refusal = steady.wait_for(5);
    ASSERT_TRUE(refusal.has_value());
    ASSERT_EQ(refusal->type, service::ServiceMsg::kError);
    EXPECT_EQ(refusal->error, service::ServiceError::kBadSpec);
  }

  // The steady connection still works end to end afterwards.
  service::SessionSpec spec;
  ASSERT_TRUE(steady.submit(6, 0, spec));
  const auto answer = steady.wait_for(6);
  ASSERT_TRUE(answer.has_value()) << steady.error();
  EXPECT_EQ(answer->type, service::ServiceMsg::kResult);

  daemon.request_stop();
  serving.join();
  EXPECT_GE(daemon.service_metrics().counter(
                obsv::Counter::kServiceFramesMalformed),
            1u);
}

TEST(Service, FairShareSchedulingInterleavesTenants) {
  // Tenant 0 floods six requests before tenant 1 submits one; with a
  // single executor the round-robin must slot tenant 1's session ahead
  // of the flood's tail rather than FIFO-starving it.
  auto gate = std::make_shared<Gate>();
  service::ServiceConfig config = tiny_config();
  config.executor_threads = 1;
  config.session_started_hook = [gate] { gate->wait(); };

  std::vector<int> server_ends;
  const int fd = client_end(server_ends);
  service::Originscand daemon(config);
  std::thread serving([&] { daemon.serve(-1, server_ends); });

  service::ServiceClient client(fd);
  ASSERT_TRUE(client.hello()) << client.error();
  service::SessionSpec spec;
  for (std::uint64_t id = 1; id <= 6; ++id) {
    ASSERT_TRUE(client.submit(id, /*tenant=*/0, spec));
  }
  gate->await_arrivals(1);  // flood request 1 is running; 2..6 queued
  ASSERT_TRUE(client.submit(7, /*tenant=*/1, spec));
  gate->open();

  // Collect RESULT arrival order; tenant 1's single request (id 7) must
  // finish second — right after the already-running flood head.
  std::vector<std::uint64_t> order;
  while (order.size() < 7) {
    const auto message = client.next_message();
    ASSERT_TRUE(message.has_value()) << client.error();
    if (message->type != service::ServiceMsg::kResult) continue;
    order.push_back(message->request_id);
  }
  EXPECT_EQ(order[1], 7u) << "fair share did not interleave the tenants";

  daemon.request_stop();
  serving.join();
}

TEST(Service, LoadgenVerifiesByteIdentityInProcess) {
  // The loadgen end to end at test scale: a burst of tenants over
  // multiplexed connections, every distinct spec byte-verified against
  // a direct run.
  service::ServiceConfig config = tiny_config();
  service::LoadgenOptions options;
  options.tenants = 6;
  options.requests_per_tenant = 2;
  options.connections = 3;
  const auto report = service::run_loadgen(config, options);
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.completed, 12u);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_EQ(report.byte_mismatches, 0u);
  EXPECT_GT(report.verified_specs, 0u);
  EXPECT_GT(report.p99_us, 0);
  // The JSON rendering is flat and carries the bench_gate field.
  const std::string json = service::loadgen_report_json(report);
  EXPECT_NE(json.find("\"loadgen_p99_us\": "), std::string::npos);
}

}  // namespace
}  // namespace originscan
