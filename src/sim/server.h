// Server-side protocol behaviour for simulated hosts: the closed set
// {HTTP, TLS, SSH}, dispatched on protocol. A server is fed client bytes
// and appends its reply to a caller-owned buffer — the same byte streams
// a real ZGrab peer would see.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "proto/protocol.h"
#include "sim/host.h"

namespace originscan::sim {

// The server end of one connection. One object serves many connections
// in turn: start() drops the previous connection's state but keeps the
// buffer's capacity, so a reused server allocates nothing.
class Server {
 public:
  // Starts serving `protocol` for `host`, which must run it. A non-empty
  // `forced_title` makes the HTTP server serve that page title regardless
  // of the host's own content (the ServeBlockPage policy); the server
  // keeps the view, so it must outlive the connection (a literal does).
  void start(const Host& host, proto::Protocol protocol,
             std::string_view forced_title = {});

  // Appends what the server sends as soon as the connection opens: the
  // SSH identification (RFC 4253 §4.2); nothing for HTTP and TLS.
  void greet(std::vector<std::uint8_t>& out) const;

  // Feeds client bytes and appends the server's reply to `out` (nothing
  // while a request is incomplete). Returns true when the server closes
  // the connection (FIN) after the reply.
  [[nodiscard]] bool on_bytes(std::span<const std::uint8_t> data,
                              std::vector<std::uint8_t>& out);

 private:
  bool http_on_bytes(std::vector<std::uint8_t>& out);
  bool tls_on_bytes(std::vector<std::uint8_t>& out);
  bool ssh_on_bytes(std::vector<std::uint8_t>& out);

  Host host_;  // by value: procedural hosts have no stable table row
  proto::Protocol protocol_ = proto::Protocol::kHttp;
  std::string_view forced_title_;
  bool client_id_seen_ = false;     // SSH: the client's identification
  std::vector<std::uint8_t> inbox_;  // client bytes not yet consumed
};

// Banner helpers exposed for tests and the scenario builder.
std::string_view http_server_software(std::uint64_t host_seed);
std::string_view ssh_server_software(std::uint64_t host_seed);

}  // namespace originscan::sim
