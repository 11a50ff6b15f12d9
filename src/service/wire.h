// Wire protocol of the scan-as-a-service daemon (`originscand`): the
// message grammar clients speak to submit scans against the daemon's one
// frozen universe. Every message travels as one CRC32-framed,
// length-prefixed frame (netbase/frame.h — the same framing the journal
// segments and the dist master/worker protocol use); the payload starts
// with a message-type byte and is decoded strictly (unknown type,
// truncated fields, or trailing bytes poison the connection — there is
// no resynchronization, exactly like the dist codec).
//
// The full byte-level grammar, the HELLO version negotiation, and the
// error-code table are specified in docs/PROTOCOL.md; the spec and this
// header are kept in lockstep by tools/protocol_doc_check (ctest label
// `docs`). Extend the protocol by adding a row to the X-macro tables
// below — the doc check fails until docs/PROTOCOL.md gains the matching
// row.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netbase/frame.h"
#include "proto/protocol.h"

namespace originscan::service {

// Version negotiated in HELLO. The server refuses (ERROR BAD_VERSION +
// close) any client advertising a different major version; there is no
// downgrade path — the protocol is versioned as a whole.
inline constexpr std::uint16_t kServiceProtocolVersion = 1;

// Field-size caps enforced by the decoder (beyond the frame-level
// kMaxFramePayload cap): a hostile peer must not make the daemon
// allocate from a lying length field.
inline constexpr std::size_t kMaxOriginCodeBytes = 16;
inline constexpr std::size_t kMaxErrorTextBytes = 4096;

// ---- Message types ---------------------------------------------------
// X(symbol, wire_value, "DOC-NAME")
// Directionality (C = client, S = server) is part of the grammar:
//   HELLO     C→S  version handshake; first message on every connection
//   HELLO_ACK S→C  accepted: echoes version + universe identity
//   SUBMIT    C→S  enqueue one scan session (tenant, request id, spec)
//   STATUS    C→S  poll one request          S→C  state + queue position
//   RESULT    S→C  completed session's records (store-format bytes)
//   CANCEL    C→S  abandon one request (queued: dropped; running:
//                  cooperatively aborted via the scan CancelToken)
//   SHUTDOWN  C→S  drain-and-exit: admitted sessions finish and deliver,
//                  new SUBMITs are refused, then the daemon exits
//   ERROR     S→C  refusal or failure, scoped to a request id (0 =
//                  whole-connection)
#define OSN_SERVICE_MESSAGES(X)                                               \
  X(kHello, 1, "HELLO")                                                       \
  X(kHelloAck, 2, "HELLO_ACK")                                                \
  X(kSubmit, 3, "SUBMIT")                                                     \
  X(kStatus, 4, "STATUS")                                                     \
  X(kResult, 5, "RESULT")                                                     \
  X(kCancel, 6, "CANCEL")                                                     \
  X(kShutdown, 7, "SHUTDOWN")                                                 \
  X(kError, 8, "ERROR")

enum class ServiceMsg : std::uint8_t {
#define OSN_X(symbol, value, name) symbol = value,
  OSN_SERVICE_MESSAGES(OSN_X)
#undef OSN_X
};

// ---- Error codes (ERROR.code) ---------------------------------------
#define OSN_SERVICE_ERRORS(X)                                                 \
  X(kBadVersion, 1, "BAD_VERSION")                                            \
  X(kMalformed, 2, "MALFORMED")                                               \
  X(kAdmissionFull, 3, "ADMISSION_FULL")                                      \
  X(kUnknownOrigin, 4, "UNKNOWN_ORIGIN")                                      \
  X(kUnknownRequest, 5, "UNKNOWN_REQUEST")                                    \
  X(kCancelled, 6, "CANCELLED")                                               \
  X(kShuttingDown, 7, "SHUTTING_DOWN")                                        \
  X(kBadSpec, 8, "BAD_SPEC")

enum class ServiceError : std::uint8_t {
#define OSN_X(symbol, value, name) symbol = value,
  OSN_SERVICE_ERRORS(OSN_X)
#undef OSN_X
};

// ---- Session states (STATUS.state) ----------------------------------
#define OSN_SERVICE_STATES(X)                                                 \
  X(kQueued, 0, "QUEUED")                                                     \
  X(kRunning, 1, "RUNNING")                                                   \
  X(kDone, 2, "DONE")                                                         \
  X(kUnknown, 3, "UNKNOWN")

enum class SessionState : std::uint8_t {
#define OSN_X(symbol, value, name) symbol = value,
  OSN_SERVICE_STATES(OSN_X)
#undef OSN_X
};

[[nodiscard]] std::string_view service_msg_name(ServiceMsg type);
[[nodiscard]] std::string_view service_error_name(ServiceError error);
[[nodiscard]] std::string_view session_state_name(SessionState state);

// Introspection rows for tools/protocol_doc_check.
[[nodiscard]] std::span<const net::ProtocolSymbol> service_message_symbols();
[[nodiscard]] std::span<const net::ProtocolSymbol> service_error_symbols();
[[nodiscard]] std::span<const net::ProtocolSymbol> service_state_symbols();

// One decoded service message. Fields are populated per type; encode
// writes only the typed fields and decode rejects payloads with missing
// or trailing bytes.
struct ServiceWire {
  ServiceMsg type = ServiceMsg::kHello;
  // HELLO / HELLO_ACK
  std::uint16_t version = kServiceProtocolVersion;
  // HELLO_ACK: the frozen universe's identity, so a client can detect a
  // daemon serving a different world than it expects.
  std::uint64_t universe_seed = 0;
  std::uint32_t universe_size = 0;
  // SUBMIT / STATUS / RESULT / CANCEL / ERROR
  std::uint64_t request_id = 0;  // client-chosen; unique per connection
  // SUBMIT: the scan session spec.
  std::uint32_t tenant = 0;  // fair-share scheduling key
  std::string origin_code;
  proto::Protocol protocol = proto::Protocol::kHttp;
  std::uint8_t trial = 1;    // 1-based, [1, 3]
  std::uint8_t probes = 2;   // SYN probes per target, [1, 8]
  std::uint8_t retries = 0;  // L7 retry budget
  // STATUS (S→C)
  SessionState state = SessionState::kUnknown;
  std::uint32_t queue_position = 0;  // sessions ahead when kQueued
  // RESULT: core::serialize_results(result) bytes — the same
  // store-format segment a direct `originscan scan` would persist, so
  // byte-comparing RESULT payloads against solo runs is exact.
  std::vector<std::uint8_t> records;
  // ERROR
  ServiceError error = ServiceError::kMalformed;
  std::string text;
};

// Encodes `message` as one complete frame (length + payload + CRC).
[[nodiscard]] std::vector<std::uint8_t> encode_service_message(
    const ServiceWire& message);

// Decodes one frame payload. nullopt = structurally invalid; the caller
// must drop the connection.
[[nodiscard]] std::optional<ServiceWire> decode_service_message(
    std::span<const std::uint8_t> payload);

}  // namespace originscan::service
