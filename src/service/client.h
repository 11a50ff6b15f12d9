// Blocking client for the `originscand` wire protocol — the transport
// half of `originscan client` and the building block the service tests
// and the in-process loadgen drive directly over socketpairs. One
// ServiceClient owns one connected fd, through a blocking
// net::FrameStream; it performs the HELLO handshake, frames outgoing
// messages, and decodes incoming ones strictly (any
// framing or grammar violation poisons the client, mirroring the
// server's no-resynchronization rule).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "netbase/frame.h"
#include "service/session.h"
#include "service/wire.h"

namespace originscan::service {

class ServiceClient {
 public:
  // Takes ownership of a connected (blocking or nonblocking) fd.
  explicit ServiceClient(int fd) : stream_(fd) {}

  ServiceClient(ServiceClient&& other) noexcept = default;
  ServiceClient& operator=(ServiceClient&&) = delete;
  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  // HELLO/HELLO_ACK handshake. On success fills the daemon's universe
  // identity; on refusal or transport failure returns false and sets
  // error().
  bool hello();
  [[nodiscard]] std::uint64_t universe_seed() const { return universe_seed_; }
  [[nodiscard]] std::uint32_t universe_size() const { return universe_size_; }

  // Sends one message (SUBMIT, STATUS poll, CANCEL, SHUTDOWN).
  bool send(const ServiceWire& message) {
    return send_frame(encode_service_message(message));
  }

  // Convenience: a SUBMIT from a spec.
  bool submit(std::uint64_t request_id, std::uint32_t tenant,
              const SessionSpec& spec);

  // Blocks for the next server message. nullopt = EOF, transport error,
  // or protocol violation (see error()).
  std::optional<ServiceWire> next_message();

  // Blocks until the terminal answer (RESULT or ERROR) for `request_id`
  // arrives, discarding interleaved STATUS acks and other requests'
  // traffic is NOT expected — callers multiplexing requests must use
  // next_message() directly.
  std::optional<ServiceWire> wait_for(std::uint64_t request_id);

  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] int fd() const { return stream_.fd(); }

  // Release the fd without closing it (the loadgen hands fds to its own
  // poll loop).
  int release() { return stream_.release(); }

 private:
  bool send_frame(std::span<const std::uint8_t> frame);

  net::FrameStream stream_;
  std::uint64_t universe_seed_ = 0;
  std::uint32_t universe_size_ = 0;
  std::string error_;
};

}  // namespace originscan::service
