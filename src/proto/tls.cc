#include "proto/tls.h"

#include <algorithm>
#include <array>

#include "netbase/byteio.h"

namespace originscan::proto {

using net::ByteReader;
using net::ByteWriter;

std::span<const std::uint16_t> chrome_cipher_suites() {
  static constexpr std::array<std::uint16_t, 8> kSuites = {
      0xC02B,  // ECDHE-ECDSA-AES128-GCM-SHA256
      0xC02F,  // ECDHE-RSA-AES128-GCM-SHA256
      0xC02C,  // ECDHE-ECDSA-AES256-GCM-SHA384
      0xC030,  // ECDHE-RSA-AES256-GCM-SHA384
      0xCCA9,  // ECDHE-ECDSA-CHACHA20-POLY1305
      0xCCA8,  // ECDHE-RSA-CHACHA20-POLY1305
      0x009C,  // RSA-AES128-GCM-SHA256
      0x009D,  // RSA-AES256-GCM-SHA384
  };
  return kSuites;
}

void TlsRecord::write(std::vector<std::uint8_t>& out) const {
  ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(content_type));
  w.u16(version);
  w.u16(static_cast<std::uint16_t>(fragment.size()));
  w.bytes(fragment);
}

std::optional<TlsRecord> TlsRecord::parse(std::span<const std::uint8_t> data,
                                          std::size_t& consumed) {
  if (data.size() < 5) return std::nullopt;
  ByteReader r(data);
  TlsRecord record;
  const std::uint8_t type = r.u8();
  if (type != static_cast<std::uint8_t>(TlsContentType::kAlert) &&
      type != static_cast<std::uint8_t>(TlsContentType::kHandshake)) {
    return std::nullopt;
  }
  record.content_type = static_cast<TlsContentType>(type);
  record.version = r.u16();
  const std::uint16_t length = r.u16();
  record.fragment = r.bytes(length);
  if (!r.ok()) return std::nullopt;
  consumed = 5 + static_cast<std::size_t>(length);
  return record;
}

// Record header (type, version, length) then handshake header (type,
// 24-bit length); both lengths are patched by end_handshake.
std::size_t begin_handshake(std::vector<std::uint8_t>& out,
                            TlsHandshakeType type) {
  const std::size_t start = out.size();
  ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(TlsContentType::kHandshake));
  w.u16(0x0303);
  w.u16(0);
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(0);
  w.u16(0);
  return start;
}

void end_handshake(std::vector<std::uint8_t>& out, std::size_t start) {
  const std::size_t fragment = out.size() - start - 5;
  ByteWriter w(out);
  w.patch_u16(start + 3, static_cast<std::uint16_t>(fragment));
  w.patch_u24(start + 6, static_cast<std::uint32_t>(fragment - 4));
}

void write_client_hello(std::vector<std::uint8_t>& out,
                        std::span<const std::uint16_t> cipher_suites,
                        std::string_view server_name,
                        const std::array<std::uint8_t, 32>& random) {
  ByteWriter w(out);
  w.u16(0x0303);
  w.bytes(random);
  w.u8(0);  // session id length
  w.u16(static_cast<std::uint16_t>(cipher_suites.size() * 2));
  for (std::uint16_t suite : cipher_suites) w.u16(suite);
  w.u8(1);  // compression methods length
  w.u8(0);  // null compression
  // Extensions: only SNI when requested.
  if (server_name.empty()) {
    w.u16(0);
    return;
  }
  const auto name_length = static_cast<std::uint16_t>(server_name.size());
  const std::uint16_t sni_list = name_length + 3;
  const std::uint16_t sni_ext = sni_list + 2;
  w.u16(sni_ext + 4);  // total extensions length
  w.u16(0);            // extension type: server_name
  w.u16(sni_ext);
  w.u16(sni_list);
  w.u8(0);  // name type: host_name
  w.u16(name_length);
  w.text(server_name);
}

std::optional<ClientHello> ClientHello::parse(
    std::span<const std::uint8_t> body) {
  ByteReader r(body);
  ClientHello hello;
  hello.version = r.u16();
  auto random = r.bytes(32);
  const std::uint8_t session_id_length = r.u8();
  r.skip(session_id_length);
  const std::uint16_t suites_length = r.u16();
  if (suites_length % 2 != 0) return std::nullopt;
  hello.cipher_suites = r.bytes(suites_length);
  const std::uint8_t compression_length = r.u8();
  r.skip(compression_length);
  if (!r.ok()) return std::nullopt;
  std::copy(random.begin(), random.end(), hello.random.begin());
  if (r.remaining() >= 2) {
    std::uint16_t extensions_length = r.u16();
    while (r.ok() && extensions_length >= 4) {
      const std::uint16_t ext_type = r.u16();
      const std::uint16_t ext_length = r.u16();
      auto ext = r.bytes(ext_length);
      if (!r.ok()) return std::nullopt;
      extensions_length =
          static_cast<std::uint16_t>(extensions_length - 4 - ext_length);
      if (ext_type == 0 && ext.size() >= 5) {
        ByteReader sni(ext);
        sni.skip(2);  // list length
        sni.skip(1);  // name type
        const std::uint16_t name_length = sni.u16();
        auto name = sni.bytes(name_length);
        if (sni.ok()) hello.server_name = net::as_text(name);
      }
    }
  }
  return hello;
}

void ServerHello::write(std::vector<std::uint8_t>& out) const {
  ByteWriter w(out);
  w.u16(version);
  w.bytes(random);
  w.u8(0);  // session id length
  w.u16(cipher_suite);
  w.u8(0);   // null compression
  w.u16(0);  // no extensions
}

std::optional<ServerHello> ServerHello::parse(
    std::span<const std::uint8_t> body) {
  ByteReader r(body);
  ServerHello hello;
  hello.version = r.u16();
  auto random = r.bytes(32);
  const std::uint8_t session_id_length = r.u8();
  r.skip(session_id_length);
  hello.cipher_suite = r.u16();
  r.skip(1);  // compression
  if (!r.ok()) return std::nullopt;
  std::copy(random.begin(), random.end(), hello.random.begin());
  return hello;
}

void write_certificate(std::vector<std::uint8_t>& out,
                       std::span<const std::span<const std::uint8_t>> chain) {
  ByteWriter w(out);
  std::size_t total = 0;
  for (const auto& der : chain) total += 3 + der.size();
  // 24-bit chain length.
  w.u8(static_cast<std::uint8_t>(total >> 16));
  w.u16(static_cast<std::uint16_t>(total));
  for (const auto& der : chain) {
    w.u8(static_cast<std::uint8_t>(der.size() >> 16));
    w.u16(static_cast<std::uint16_t>(der.size()));
    w.bytes(der);
  }
}

std::optional<Certificate> Certificate::parse(
    std::span<const std::uint8_t> body) {
  ByteReader r(body);
  std::uint32_t chain_length = std::uint32_t{r.u8()} << 16;
  chain_length |= r.u16();
  Certificate cert;
  std::uint32_t remaining = chain_length;
  while (r.ok() && remaining >= 3) {
    std::uint32_t der_length = std::uint32_t{r.u8()} << 16;
    der_length |= r.u16();
    auto der = r.bytes(der_length);
    if (!r.ok()) return std::nullopt;
    if (cert.count++ == 0) cert.leaf = der;
    remaining -= 3 + der_length;
  }
  if (!r.ok() || remaining != 0) return std::nullopt;
  return cert;
}

void TlsAlert::write_record(std::vector<std::uint8_t>& out) const {
  const std::array<std::uint8_t, 2> body = {
      static_cast<std::uint8_t>(fatal ? 2 : 1),
      static_cast<std::uint8_t>(description)};
  TlsRecord{.content_type = TlsContentType::kAlert, .fragment = body}.write(
      out);
}

std::optional<TlsAlert> TlsAlert::parse(std::span<const std::uint8_t> body) {
  if (body.size() != 2) return std::nullopt;
  TlsAlert alert;
  if (body[0] != 1 && body[0] != 2) return std::nullopt;
  alert.fatal = body[0] == 2;
  alert.description = static_cast<TlsAlertDescription>(body[1]);
  return alert;
}

HandshakeWalker::HandshakeWalker(std::span<const std::uint8_t> fragment)
    : rest_(fragment) {
  // Check the whole fragment's framing up front, so a broken fragment
  // yields nothing rather than the messages before the break.
  ByteReader r(fragment);
  while (r.ok() && r.remaining() >= 4) {
    r.skip(1);
    std::uint32_t length = std::uint32_t{r.u8()} << 16;
    length |= r.u16();
    r.skip(length);
  }
  ok_ = r.ok() && r.remaining() == 0;
  if (!ok_) rest_ = {};
}

std::optional<HandshakeMessage> HandshakeWalker::next() {
  if (rest_.empty()) return std::nullopt;
  ByteReader r(rest_);
  HandshakeMessage message;
  message.type = static_cast<TlsHandshakeType>(r.u8());
  std::uint32_t length = std::uint32_t{r.u8()} << 16;
  length |= r.u16();
  message.body = r.bytes(length);
  rest_ = rest_.subspan(r.position());
  return message;
}

}  // namespace originscan::proto
