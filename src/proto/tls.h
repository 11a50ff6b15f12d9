// TLS 1.2 handshake codec — the subset a ZGrab TLS banner grab exercises:
// ClientHello (with the cipher suites modern Chrome offers, per the
// paper's methodology), ServerHello, Certificate, ServerHelloDone, and
// Alert. Record framing and handshake framing follow RFC 5246; key
// exchange and encryption are intentionally out of scope because the
// study terminates the handshake once the server's flight arrives.
//
// Writers append to a caller-owned buffer. Parsers return views (spans,
// string_views) into the bytes they were given, so a parsed message is
// valid only as long as those bytes are.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace originscan::proto {

enum class TlsContentType : std::uint8_t {
  kAlert = 21,
  kHandshake = 22,
};

enum class TlsHandshakeType : std::uint8_t {
  kClientHello = 1,
  kServerHello = 2,
  kCertificate = 11,
  kServerHelloDone = 14,
};

enum class TlsAlertDescription : std::uint8_t {
  kCloseNotify = 0,
  kUnexpectedMessage = 10,
  kHandshakeFailure = 40,
  kAccessDenied = 49,
  kInternalError = 80,
};

// The TLS 1.2 cipher suites offered by modern Chrome at the time of the
// study (ECDHE suites with AES-GCM / ChaCha20).
std::span<const std::uint16_t> chrome_cipher_suites();

struct TlsRecord {
  TlsContentType content_type = TlsContentType::kHandshake;
  std::uint16_t version = 0x0303;  // TLS 1.2
  std::span<const std::uint8_t> fragment;

  void write(std::vector<std::uint8_t>& out) const;
  // Parses one record from the front of `data`; advances `consumed`.
  static std::optional<TlsRecord> parse(std::span<const std::uint8_t> data,
                                        std::size_t& consumed);
};

// Handshake record framing written in place: begin_handshake appends the
// record and handshake headers with zero lengths and returns where they
// start; once the caller has appended the body, end_handshake
// back-patches both lengths. wrap_handshake does both around a writer.
std::size_t begin_handshake(std::vector<std::uint8_t>& out,
                            TlsHandshakeType type);
void end_handshake(std::vector<std::uint8_t>& out, std::size_t start);

template <typename WriteBody>
void wrap_handshake(std::vector<std::uint8_t>& out, TlsHandshakeType type,
                    WriteBody&& write_body) {
  const std::size_t start = begin_handshake(out, type);
  write_body(out);
  end_handshake(out, start);
}

struct ClientHello {
  std::uint16_t version = 0x0303;
  std::array<std::uint8_t, 32> random{};
  // The offered suites as on the wire: two big-endian bytes each.
  std::span<const std::uint8_t> cipher_suites;
  std::string_view server_name;  // SNI extension; empty = omitted

  [[nodiscard]] std::size_t suite_count() const {
    return cipher_suites.size() / 2;
  }
  [[nodiscard]] std::uint16_t suite(std::size_t i) const {
    return static_cast<std::uint16_t>(cipher_suites[2 * i] << 8 |
                                      cipher_suites[2 * i + 1]);
  }

  static std::optional<ClientHello> parse(std::span<const std::uint8_t> body);
};

// Appends a ClientHello body offering `cipher_suites`, with an SNI
// extension when `server_name` is non-empty.
void write_client_hello(std::vector<std::uint8_t>& out,
                        std::span<const std::uint16_t> cipher_suites,
                        std::string_view server_name = {},
                        const std::array<std::uint8_t, 32>& random = {});

struct ServerHello {
  std::uint16_t version = 0x0303;
  std::array<std::uint8_t, 32> random{};
  std::uint16_t cipher_suite = 0;

  void write(std::vector<std::uint8_t>& out) const;  // handshake body
  static std::optional<ServerHello> parse(std::span<const std::uint8_t> body);
};

// A Certificate body's chain, checked for framing: the leaf (first DER
// blob, empty for an empty chain) and the number of blobs. The
// simulation carries opaque synthetic DER.
struct Certificate {
  std::span<const std::uint8_t> leaf;
  std::size_t count = 0;

  static std::optional<Certificate> parse(std::span<const std::uint8_t> body);
};

// Appends a Certificate body carrying `chain` (DER blobs, leaf first).
void write_certificate(std::vector<std::uint8_t>& out,
                       std::span<const std::span<const std::uint8_t>> chain);

struct TlsAlert {
  bool fatal = true;
  TlsAlertDescription description = TlsAlertDescription::kHandshakeFailure;

  // Appends the whole alert record (header and 2-byte body).
  void write_record(std::vector<std::uint8_t>& out) const;
  static std::optional<TlsAlert> parse(std::span<const std::uint8_t> body);
};

struct HandshakeMessage {
  TlsHandshakeType type{};
  std::span<const std::uint8_t> body;
};

// Walks the handshake messages of one record fragment in place. A
// fragment whose framing is broken (a body running past the end, or
// trailing bytes too short for a header) yields no message at all and
// reports !ok().
class HandshakeWalker {
 public:
  explicit HandshakeWalker(std::span<const std::uint8_t> fragment);

  [[nodiscard]] bool ok() const { return ok_; }
  // The next message, or nullopt once the fragment is exhausted.
  std::optional<HandshakeMessage> next();

 private:
  std::span<const std::uint8_t> rest_;
  bool ok_ = true;
};

}  // namespace originscan::proto
