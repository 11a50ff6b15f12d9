#include "service/wire.h"

#include "netbase/byteio.h"

namespace originscan::service {
namespace {

void put_string(net::ByteWriter& writer, std::string_view s) {
  writer.u16(static_cast<std::uint16_t>(s.size()));
  writer.bytes(std::span(reinterpret_cast<const std::uint8_t*>(s.data()),
                         s.size()));
}

std::string get_string(net::ByteReader& reader, std::size_t cap) {
  const std::uint16_t n = reader.u16();
  if (n > cap) {
    reader.invalidate();
    return {};
  }
  const auto bytes = reader.bytes(n);
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

bool valid_protocol(std::uint8_t raw) {
  for (proto::Protocol p : proto::kAllProtocols) {
    if (static_cast<std::uint8_t>(p) == raw) return true;
  }
  return false;
}

#define OSN_X(symbol, value, name) net::ProtocolSymbol{name, value},
constexpr net::ProtocolSymbol kMessageSymbols[] = {OSN_SERVICE_MESSAGES(OSN_X)};
constexpr net::ProtocolSymbol kErrorSymbols[] = {OSN_SERVICE_ERRORS(OSN_X)};
constexpr net::ProtocolSymbol kStateSymbols[] = {OSN_SERVICE_STATES(OSN_X)};
#undef OSN_X

}  // namespace

std::string_view service_msg_name(ServiceMsg type) {
  switch (type) {
#define OSN_X(symbol, value, name) \
  case ServiceMsg::symbol:         \
    return name;
    OSN_SERVICE_MESSAGES(OSN_X)
#undef OSN_X
  }
  return "?";
}

std::string_view service_error_name(ServiceError error) {
  switch (error) {
#define OSN_X(symbol, value, name) \
  case ServiceError::symbol:       \
    return name;
    OSN_SERVICE_ERRORS(OSN_X)
#undef OSN_X
  }
  return "?";
}

std::string_view session_state_name(SessionState state) {
  switch (state) {
#define OSN_X(symbol, value, name) \
  case SessionState::symbol:       \
    return name;
    OSN_SERVICE_STATES(OSN_X)
#undef OSN_X
  }
  return "?";
}

std::span<const net::ProtocolSymbol> service_message_symbols() {
  return kMessageSymbols;
}
std::span<const net::ProtocolSymbol> service_error_symbols() {
  return kErrorSymbols;
}
std::span<const net::ProtocolSymbol> service_state_symbols() {
  return kStateSymbols;
}

std::vector<std::uint8_t> encode_service_message(const ServiceWire& message) {
  std::vector<std::uint8_t> payload;
  net::ByteWriter writer(payload);
  writer.u8(static_cast<std::uint8_t>(message.type));
  switch (message.type) {
    case ServiceMsg::kHello:
      writer.u16(message.version);
      break;
    case ServiceMsg::kHelloAck:
      writer.u16(message.version);
      writer.u64(message.universe_seed);
      writer.u32(message.universe_size);
      break;
    case ServiceMsg::kSubmit:
      writer.u64(message.request_id);
      writer.u32(message.tenant);
      put_string(writer, message.origin_code);
      writer.u8(static_cast<std::uint8_t>(message.protocol));
      writer.u8(message.trial);
      writer.u8(message.probes);
      writer.u8(message.retries);
      break;
    case ServiceMsg::kStatus:
      writer.u64(message.request_id);
      writer.u8(static_cast<std::uint8_t>(message.state));
      writer.u32(message.queue_position);
      break;
    case ServiceMsg::kResult:
      writer.u64(message.request_id);
      writer.u32(static_cast<std::uint32_t>(message.records.size()));
      writer.bytes(message.records);
      break;
    case ServiceMsg::kCancel:
      writer.u64(message.request_id);
      break;
    case ServiceMsg::kShutdown:
      break;
    case ServiceMsg::kError:
      writer.u64(message.request_id);
      writer.u8(static_cast<std::uint8_t>(message.error));
      put_string(writer, message.text);
      break;
  }
  return net::encode_frame(payload);
}

std::optional<ServiceWire> decode_service_message(
    std::span<const std::uint8_t> payload) {
  net::ByteReader reader(payload);
  const std::uint8_t raw_type = reader.u8();
  if (!reader.ok()) return std::nullopt;
  ServiceWire message;
  switch (raw_type) {
    case static_cast<std::uint8_t>(ServiceMsg::kHello):
      message.type = ServiceMsg::kHello;
      message.version = reader.u16();
      break;
    case static_cast<std::uint8_t>(ServiceMsg::kHelloAck):
      message.type = ServiceMsg::kHelloAck;
      message.version = reader.u16();
      message.universe_seed = reader.u64();
      message.universe_size = reader.u32();
      break;
    case static_cast<std::uint8_t>(ServiceMsg::kSubmit): {
      message.type = ServiceMsg::kSubmit;
      message.request_id = reader.u64();
      message.tenant = reader.u32();
      message.origin_code = get_string(reader, kMaxOriginCodeBytes);
      const std::uint8_t raw_protocol = reader.u8();
      if (!valid_protocol(raw_protocol)) return std::nullopt;
      message.protocol = static_cast<proto::Protocol>(raw_protocol);
      message.trial = reader.u8();
      message.probes = reader.u8();
      message.retries = reader.u8();
      break;
    }
    case static_cast<std::uint8_t>(ServiceMsg::kStatus): {
      message.type = ServiceMsg::kStatus;
      message.request_id = reader.u64();
      const std::uint8_t raw_state = reader.u8();
      if (raw_state > static_cast<std::uint8_t>(SessionState::kUnknown)) {
        return std::nullopt;
      }
      message.state = static_cast<SessionState>(raw_state);
      message.queue_position = reader.u32();
      break;
    }
    case static_cast<std::uint8_t>(ServiceMsg::kResult): {
      message.type = ServiceMsg::kResult;
      message.request_id = reader.u64();
      const std::uint32_t n = reader.u32();
      if (n > net::kMaxFramePayload) return std::nullopt;
      const auto bytes = reader.bytes(n);
      message.records.assign(bytes.begin(), bytes.end());
      break;
    }
    case static_cast<std::uint8_t>(ServiceMsg::kCancel):
      message.type = ServiceMsg::kCancel;
      message.request_id = reader.u64();
      break;
    case static_cast<std::uint8_t>(ServiceMsg::kShutdown):
      message.type = ServiceMsg::kShutdown;
      break;
    case static_cast<std::uint8_t>(ServiceMsg::kError): {
      message.type = ServiceMsg::kError;
      message.request_id = reader.u64();
      const std::uint8_t raw_error = reader.u8();
      bool known = false;
#define OSN_X(symbol, value, name) known = known || raw_error == (value);
      OSN_SERVICE_ERRORS(OSN_X)
#undef OSN_X
      if (!known) return std::nullopt;
      message.error = static_cast<ServiceError>(raw_error);
      message.text = get_string(reader, kMaxErrorTextBytes);
      break;
    }
    default:
      return std::nullopt;
  }
  if (!reader.ok() || reader.remaining() != 0) return std::nullopt;
  return message;
}

}  // namespace originscan::service
