#include "sim/server.h"

#include <array>

#include "netbase/byteio.h"
#include "netbase/rng.h"
#include "proto/http.h"
#include "proto/ssh.h"
#include "proto/tls.h"

namespace originscan::sim {
namespace {

// "{prefix}{dotted quad}{suffix}", written into `buffer`.
std::string_view format_with_addr(std::array<char, 32>& buffer,
                                  std::string_view prefix, net::Ipv4Addr addr,
                                  std::string_view suffix) {
  char* p = buffer.data() + prefix.copy(buffer.data(), prefix.size());
  p = addr.write_to(p);
  p += suffix.copy(p, suffix.size());
  return {buffer.data(), static_cast<std::size_t>(p - buffer.data())};
}

void fatal_alert(proto::TlsAlertDescription description,
                 std::vector<std::uint8_t>& out) {
  proto::TlsAlert{.fatal = true, .description = description}.write_record(out);
}

}  // namespace

void Server::start(const Host& host, proto::Protocol protocol,
                   std::string_view forced_title) {
  host_ = host;
  protocol_ = protocol;
  forced_title_ = forced_title;
  client_id_seen_ = false;
  inbox_.clear();
}

void Server::greet(std::vector<std::uint8_t>& out) const {
  // SSH servers speak first (RFC 4253 §4.2).
  if (protocol_ != proto::Protocol::kSsh) return;
  proto::SshIdentification{.software_version = ssh_server_software(host_.seed)}
      .write(out);
}

bool Server::on_bytes(std::span<const std::uint8_t> data,
                      std::vector<std::uint8_t>& out) {
  inbox_.insert(inbox_.end(), data.begin(), data.end());
  switch (protocol_) {
    case proto::Protocol::kHttp:
      return http_on_bytes(out);
    case proto::Protocol::kHttps:
      return tls_on_bytes(out);
    case proto::Protocol::kSsh:
      return ssh_on_bytes(out);
  }
  return false;
}

// ---------------------------------------------------------------- HTTP --

bool Server::http_on_bytes(std::vector<std::uint8_t>& out) {
  const std::string_view text = net::as_text(inbox_);
  if (!proto::HttpRequest::parse(text)) {
    // A request that parses has its blank line; one that does not is
    // either still arriving or malformed.
    if (text.find("\r\n\r\n") == std::string_view::npos) return false;
    proto::HttpResponse{.status_code = 400, .reason = "Bad Request"}.write(out);
    return true;
  }
  std::array<char, 32> title_buffer;
  std::array<char, 32> location_buffer;
  proto::HttpResponse response;
  response.server = http_server_software(host_.seed);
  response.title =
      forced_title_.empty()
          ? format_with_addr(title_buffer, "host-", host_.addr, "")
          : forced_title_;
  // A small share of real servers answer GET / with a redirect or an
  // error page; either still counts as a completed L7 handshake.
  const std::uint64_t h = net::mix_u64(host_.seed, 0x477Eu);
  if (h % 100 < 8) {
    response.status_code = 301;
    response.reason = "Moved Permanently";
    response.location =
        format_with_addr(location_buffer, "https://", host_.addr, "/");
  } else if (h % 100 < 12) {
    response.status_code = 403;
    response.reason = "Forbidden";
  }
  response.write(out);
  return true;
}

// ----------------------------------------------------------------- TLS --

bool Server::tls_on_bytes(std::vector<std::uint8_t>& out) {
  std::size_t consumed = 0;
  const auto record = proto::TlsRecord::parse(inbox_, consumed);
  if (!record) return false;  // need more bytes

  // The record is a view into inbox_: answer first, then drop it.
  const bool close = [&] {
    if (record->content_type != proto::TlsContentType::kHandshake) {
      fatal_alert(proto::TlsAlertDescription::kUnexpectedMessage, out);
      return true;
    }
    proto::HandshakeWalker messages(record->fragment);
    const auto first = messages.next();
    if (!first || first->type != proto::TlsHandshakeType::kClientHello) {
      fatal_alert(proto::TlsAlertDescription::kUnexpectedMessage, out);
      return true;
    }
    const auto hello = proto::ClientHello::parse(first->body);
    if (!hello) {
      fatal_alert(proto::TlsAlertDescription::kUnexpectedMessage, out);
      return true;
    }

    // Pick the first offered suite we "support" (all ECDHE-RSA/GCM ones).
    std::uint16_t chosen = 0;
    for (std::size_t i = 0; i < hello->suite_count() && chosen == 0; ++i) {
      for (std::uint16_t known : proto::chrome_cipher_suites()) {
        if (hello->suite(i) == known) {
          chosen = known;
          break;
        }
      }
    }
    if (chosen == 0) {
      fatal_alert(proto::TlsAlertDescription::kHandshakeFailure, out);
      return true;
    }

    proto::ServerHello server_hello;
    server_hello.cipher_suite = chosen;
    net::Rng rng(net::mix_u64(host_.seed, 0x715u));
    for (auto& byte : server_hello.random) {
      byte = static_cast<std::uint8_t>(rng());
    }
    // An opaque stand-in certificate: DER SEQUENCE header + random body.
    std::array<std::uint8_t, 4 + 0x40> der = {0x30, 0x82, 0x00, 0x40};
    for (std::size_t i = 4; i < der.size(); ++i) {
      der[i] = static_cast<std::uint8_t>(rng());
    }
    const std::span<const std::uint8_t> chain[] = {der};

    proto::wrap_handshake(out, proto::TlsHandshakeType::kServerHello,
                          [&](auto& body) { server_hello.write(body); });
    proto::wrap_handshake(
        out, proto::TlsHandshakeType::kCertificate,
        [&](auto& body) { proto::write_certificate(body, chain); });
    proto::wrap_handshake(out, proto::TlsHandshakeType::kServerHelloDone,
                          [](auto&) {});
    return false;
  }();
  inbox_.erase(inbox_.begin(),
               inbox_.begin() + static_cast<std::ptrdiff_t>(consumed));
  return close;
}

// ----------------------------------------------------------------- SSH --

bool Server::ssh_on_bytes(std::vector<std::uint8_t>& out) {
  if (client_id_seen_) return false;  // study terminates before key exchange
  const std::string_view text = net::as_text(inbox_);
  const auto newline = text.find('\n');
  if (newline == std::string_view::npos) return false;
  const bool valid =
      proto::SshIdentification::parse(text.substr(0, newline + 1))
          .has_value();
  inbox_.erase(inbox_.begin(),
               inbox_.begin() + static_cast<std::ptrdiff_t>(newline + 1));
  if (!valid) return true;  // protocol mismatch: drop the connection
  client_id_seen_ = true;
  // Follow the version exchange with our KEXINIT, as real servers do.
  proto::SshKexInit kex;
  net::Rng rng(net::mix_u64(host_.seed, 0x55Bu));
  for (auto& byte : kex.cookie) byte = static_cast<std::uint8_t>(rng());
  const std::size_t packet = proto::begin_ssh_packet(out);
  kex.write(out);
  proto::end_ssh_packet(out, packet, net::mix_u64(host_.seed, 0x9ADu));
  return false;
}

std::string_view http_server_software(std::uint64_t host_seed) {
  static constexpr std::array<std::string_view, 5> kServers = {
      "nginx/1.14.0", "Apache/2.4.29", "Microsoft-IIS/10.0", "lighttpd/1.4.45",
      "nginx/1.16.1"};
  return kServers[net::mix_u64(host_seed, 0x5E7Fu) % kServers.size()];
}

std::string_view ssh_server_software(std::uint64_t host_seed) {
  static constexpr std::array<std::string_view, 5> kServers = {
      "OpenSSH_7.4", "OpenSSH_7.6p1", "OpenSSH_8.0", "dropbear_2019.78",
      "OpenSSH_6.6.1"};
  return kServers[net::mix_u64(host_seed, 0x55DFu) % kServers.size()];
}

}  // namespace originscan::sim
