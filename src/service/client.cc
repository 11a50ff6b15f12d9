#include "service/client.h"

#include <cerrno>
#include <cstring>

namespace originscan::service {

bool ServiceClient::send_frame(std::span<const std::uint8_t> frame) {
  if (stream_.fd() < 0) {
    error_ = "client closed";
    return false;
  }
  if (!stream_.send_all(frame)) {
    error_ = std::string("send: ") + std::strerror(errno);
    return false;
  }
  return true;
}

bool ServiceClient::hello() {
  ServiceWire hello;
  hello.type = ServiceMsg::kHello;
  hello.version = kServiceProtocolVersion;
  if (!send(hello)) return false;
  const auto reply = next_message();
  if (!reply) return false;
  if (reply->type == ServiceMsg::kError) {
    error_ = "server refused: " + std::string(service_error_name(reply->error)) +
             " (" + reply->text + ")";
    return false;
  }
  if (reply->type != ServiceMsg::kHelloAck) {
    error_ = "expected HELLO_ACK, got " +
             std::string(service_msg_name(reply->type));
    return false;
  }
  universe_seed_ = reply->universe_seed;
  universe_size_ = reply->universe_size;
  return true;
}

bool ServiceClient::submit(std::uint64_t request_id, std::uint32_t tenant,
                           const SessionSpec& spec) {
  ServiceWire message;
  message.type = ServiceMsg::kSubmit;
  message.request_id = request_id;
  message.tenant = tenant;
  message.origin_code = spec.origin_code;
  message.protocol = spec.protocol;
  message.trial = static_cast<std::uint8_t>(spec.trial);
  message.probes = static_cast<std::uint8_t>(spec.probes);
  message.retries = static_cast<std::uint8_t>(spec.retries);
  return send(message);
}

std::optional<ServiceWire> ServiceClient::next_message() {
  if (stream_.fd() < 0) {
    error_ = "client closed";
    return std::nullopt;
  }
  const auto payload = stream_.read();
  if (!payload) {
    error_ = stream_.error() != net::FrameError::kNone
                 ? "framing error: " +
                       std::string(net::frame_error_name(stream_.error()))
                 : "connection closed by server";
    return std::nullopt;
  }
  auto message = decode_service_message(*payload);
  if (!message) error_ = "protocol violation: undecodable message";
  return message;
}

std::optional<ServiceWire> ServiceClient::wait_for(std::uint64_t request_id) {
  for (;;) {
    auto message = next_message();
    if (!message) return std::nullopt;
    if (message->request_id != request_id) continue;
    if (message->type == ServiceMsg::kResult ||
        message->type == ServiceMsg::kError) {
      return message;
    }
    // STATUS acks for the same request are progress, not answers.
  }
}

}  // namespace originscan::service
