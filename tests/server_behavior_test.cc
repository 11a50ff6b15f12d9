// Direct tests of the simulated servers' protocol behaviour: the byte
// streams they emit must satisfy the same codecs a real peer would use.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "netbase/byteio.h"
#include "netbase/rng.h"
#include "netbase/sha256.h"
#include "proto/http.h"
#include "proto/ssh.h"
#include "proto/tls.h"
#include "sim/server.h"

namespace originscan::sim {
namespace {

Host make_host(std::uint64_t seed = 42) {
  Host host;
  host.addr = net::Ipv4Addr(10, 1, 2, 3);
  host.services = 0b111;
  host.seed = seed;
  return host;
}

std::span<const std::uint8_t> bytes_of(std::string_view text) {
  return net::as_bytes(text);
}

std::string_view text_of(std::span<const std::uint8_t> bytes) {
  return net::as_text(bytes);
}

// What a server sends back to one chunk of client bytes.
struct Reply {
  std::vector<std::uint8_t> bytes;
  bool close = false;
};

Reply serve(Server& server, std::span<const std::uint8_t> request) {
  Reply reply;
  reply.close = server.on_bytes(request, reply.bytes);
  return reply;
}

Reply serve(const Host& host, proto::Protocol protocol,
            std::span<const std::uint8_t> request,
            std::string_view forced_title = {}) {
  Server server;
  server.start(host, protocol, forced_title);
  return serve(server, request);
}

std::vector<std::uint8_t> get_request() {
  std::vector<std::uint8_t> bytes;
  proto::HttpRequest{}.write(bytes);
  return bytes;
}

std::vector<std::uint8_t> client_hello(
    std::span<const std::uint16_t> suites = proto::chrome_cipher_suites()) {
  std::vector<std::uint8_t> bytes;
  proto::wrap_handshake(bytes, proto::TlsHandshakeType::kClientHello,
                        [&](auto& body) {
                          proto::write_client_hello(body, suites);
                        });
  return bytes;
}

// ------------------------------------------------------------------ HTTP --

TEST(HttpServerBehavior, AnswersGetWithParseableResponse) {
  const Host host = make_host();
  Server server;
  server.start(host, proto::Protocol::kHttp);
  std::vector<std::uint8_t> greeting;
  server.greet(greeting);
  EXPECT_TRUE(greeting.empty());  // client speaks first

  const auto reply = serve(server, get_request());
  ASSERT_FALSE(reply.bytes.empty());
  EXPECT_TRUE(reply.close);  // Connection: close semantics

  auto response = proto::HttpResponse::parse(text_of(reply.bytes));
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->valid());
  EXPECT_EQ(response->server, http_server_software(host.seed));
  EXPECT_EQ(response->title, "host-10.1.2.3");
}

TEST(HttpServerBehavior, StatusVariantsAreDeterministicPerHost) {
  // Different hosts serve 200/301/403 variants; the same host always
  // serves the same one.
  std::map<int, int> statuses;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Host host = make_host(seed);
    const auto reply = serve(host, proto::Protocol::kHttp, get_request());
    auto response = proto::HttpResponse::parse(text_of(reply.bytes));
    ASSERT_TRUE(response.has_value());
    ++statuses[response->status_code];
    EXPECT_EQ(response->location.empty(), response->status_code != 301);

    const auto again = serve(host, proto::Protocol::kHttp, get_request());
    EXPECT_EQ(again.bytes, reply.bytes);
  }
  EXPECT_GT(statuses[200], 120);  // most hosts serve a plain page
  EXPECT_GT(statuses[301] + statuses[403], 10);
}

TEST(HttpServerBehavior, ForcedBlockPageTitle) {
  const Host host = make_host();
  const auto reply =
      serve(host, proto::Protocol::kHttp, get_request(), "Blocked Site");
  auto response = proto::HttpResponse::parse(text_of(reply.bytes));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->title, "Blocked Site");
}

TEST(HttpServerBehavior, RejectsGarbageWith400) {
  const Host host = make_host();
  const auto reply =
      serve(host, proto::Protocol::kHttp, bytes_of("NONSENSE\r\n\r\n"));
  auto response = proto::HttpResponse::parse(text_of(reply.bytes));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status_code, 400);
  EXPECT_TRUE(reply.close);
}

TEST(HttpServerBehavior, BuffersPartialRequests) {
  const Host host = make_host();
  Server server;
  server.start(host, proto::Protocol::kHttp);
  EXPECT_TRUE(serve(server, bytes_of("GET / HT")).bytes.empty());
  const auto reply = serve(server, bytes_of("TP/1.1\r\nHost: x\r\n\r\n"));
  EXPECT_FALSE(reply.bytes.empty());
}

TEST(HttpServerBehavior, RestartDropsBufferedBytes) {
  // A reused server starts each connection clean: a partial request
  // left by the previous connection does not leak into the next.
  const Host host = make_host();
  Server server;
  server.start(host, proto::Protocol::kHttp);
  EXPECT_TRUE(serve(server, bytes_of("NONSENSE")).bytes.empty());
  server.start(host, proto::Protocol::kHttp);
  const auto reply = serve(server, get_request());
  EXPECT_EQ(reply.bytes,
            serve(host, proto::Protocol::kHttp, get_request()).bytes);
}

// ------------------------------------------------------------------- TLS --

TEST(TlsServerBehavior, FullServerFlightParses) {
  const Host host = make_host();
  const auto reply = serve(host, proto::Protocol::kHttps, client_hello());
  ASSERT_FALSE(reply.bytes.empty());
  EXPECT_FALSE(reply.close);

  bool saw_hello = false, saw_cert = false, saw_done = false;
  const std::span<const std::uint8_t> flight = reply.bytes;
  std::size_t offset = 0;
  while (offset < flight.size()) {
    std::size_t consumed = 0;
    auto record = proto::TlsRecord::parse(flight.subspan(offset), consumed);
    ASSERT_TRUE(record.has_value());
    offset += consumed;
    proto::HandshakeWalker messages(record->fragment);
    ASSERT_TRUE(messages.ok());
    while (const auto message = messages.next()) {
      if (message->type == proto::TlsHandshakeType::kServerHello) {
        auto server_hello = proto::ServerHello::parse(message->body);
        ASSERT_TRUE(server_hello.has_value());
        // The chosen suite must be one the client offered.
        const auto offered = proto::chrome_cipher_suites();
        EXPECT_NE(std::find(offered.begin(), offered.end(),
                            server_hello->cipher_suite),
                  offered.end());
        saw_hello = true;
      } else if (message->type == proto::TlsHandshakeType::kCertificate) {
        auto cert = proto::Certificate::parse(message->body);
        ASSERT_TRUE(cert.has_value());
        EXPECT_EQ(cert->count, 1u);
        saw_cert = true;
      } else if (message->type ==
                 proto::TlsHandshakeType::kServerHelloDone) {
        saw_done = true;
      }
    }
  }
  EXPECT_TRUE(saw_hello && saw_cert && saw_done);
  EXPECT_EQ(offset, flight.size());
}

TEST(TlsServerBehavior, AlertsOnNoCommonSuite) {
  const Host host = make_host();
  const std::uint16_t tls13[] = {0x1301};  // a suite we don't "support"
  const auto reply = serve(host, proto::Protocol::kHttps, client_hello(tls13));
  ASSERT_FALSE(reply.bytes.empty());
  EXPECT_TRUE(reply.close);
  std::size_t consumed = 0;
  auto record = proto::TlsRecord::parse(reply.bytes, consumed);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->content_type, proto::TlsContentType::kAlert);
  auto alert = proto::TlsAlert::parse(record->fragment);
  ASSERT_TRUE(alert.has_value());
  EXPECT_EQ(alert->description,
            proto::TlsAlertDescription::kHandshakeFailure);
}

TEST(TlsServerBehavior, AlertsOnNonHandshakeRecord) {
  const Host host = make_host();
  std::vector<std::uint8_t> bogus;
  proto::TlsAlert{.fatal = false,
                  .description = proto::TlsAlertDescription::kCloseNotify}
      .write_record(bogus);
  const auto reply = serve(host, proto::Protocol::kHttps, bogus);
  EXPECT_TRUE(reply.close);
}

TEST(TlsServerBehavior, WaitsForWholeRecord) {
  const Host host = make_host();
  const auto hello = client_hello();
  const std::span<const std::uint8_t> bytes = hello;
  Server server;
  server.start(host, proto::Protocol::kHttps);
  EXPECT_TRUE(serve(server, bytes.first(7)).bytes.empty());
  EXPECT_EQ(serve(server, bytes.subspan(7)).bytes,
            serve(host, proto::Protocol::kHttps, hello).bytes);
}

// ------------------------------------------------------------------- SSH --

TEST(SshServerBehavior, BannerThenKexInit) {
  const Host host = make_host();
  Server server;
  server.start(host, proto::Protocol::kSsh);

  std::vector<std::uint8_t> banner;
  server.greet(banner);
  auto id = proto::SshIdentification::parse(text_of(banner));
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(id->software_version, ssh_server_software(host.seed));

  std::vector<std::uint8_t> client;
  proto::SshIdentification{.software_version = "TestClient_1.0"}.write(client);
  const auto reply = serve(server, client);
  ASSERT_FALSE(reply.bytes.empty());
  EXPECT_FALSE(reply.close);
  auto packet = proto::SshPacket::parse(reply.bytes);
  ASSERT_TRUE(packet.has_value());
  auto kex = proto::SshKexInit::parse(packet->payload);
  ASSERT_TRUE(kex.has_value());
  EXPECT_EQ(kex->kex_algorithms, proto::kDefaultKexAlgorithms);
}

TEST(SshServerBehavior, ClosesOnProtocolMismatch) {
  const Host host = make_host();
  Server server;
  server.start(host, proto::Protocol::kSsh);
  const auto reply = serve(server, bytes_of("GET / HTTP/1.1\r\n"));
  EXPECT_TRUE(reply.close);
  EXPECT_TRUE(reply.bytes.empty());
}

TEST(SshServerBehavior, BannerVariesAcrossHosts) {
  std::set<std::string_view> versions;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    versions.insert(ssh_server_software(seed));
  }
  EXPECT_GE(versions.size(), 3u);
}

// ------------------------------------------------------------ flights --

// Every flight the servers emit, for 4,096 seeded hosts, hashed into one
// SHA-256: HTTP 200/301/403 pages, the forced "Blocked Site" page and the
// 400 reply; the full TLS flight and both alerts; the SSH identification
// and KEXINIT. The constant pins the wire bytes, so a rewrite of the
// codecs or servers cannot change a byte unnoticed.
std::vector<std::uint8_t> flight(const Host& host, int kind) {
  std::vector<std::uint8_t> bogus;
  const std::uint16_t tls13[] = {0x1301};
  switch (kind) {
    case 0:
      return serve(host, proto::Protocol::kHttp, get_request()).bytes;
    case 1:
      return serve(host, proto::Protocol::kHttp, get_request(), "Blocked Site")
          .bytes;
    case 2:
      return serve(host, proto::Protocol::kHttp, bytes_of("NONSENSE\r\n\r\n"))
          .bytes;
    case 3:
      return serve(host, proto::Protocol::kHttps, client_hello()).bytes;
    case 4:
      return serve(host, proto::Protocol::kHttps, client_hello(tls13)).bytes;
    case 5:
      proto::TlsRecord{.content_type = proto::TlsContentType::kAlert,
                       .fragment = std::array<std::uint8_t, 2>{1, 0}}
          .write(bogus);
      return serve(host, proto::Protocol::kHttps, bogus).bytes;
    default: {
      Server server;
      server.start(host, proto::Protocol::kSsh);
      std::vector<std::uint8_t> bytes;
      server.greet(bytes);
      (void)server.on_bytes(bytes_of("SSH-2.0-OpenSSH_7.9 originscan\r\n"),
                            bytes);
      return bytes;
    }
  }
}

TEST(ServerFlights, DigestIsPinned) {
  net::Sha256 sha;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    Host host;
    host.addr =
        net::Ipv4Addr(static_cast<std::uint32_t>(net::mix_u64(i, 0xADD)));
    host.services = 0b111;
    host.seed = net::mix_u64(i, 0x5EED);
    for (int kind = 0; kind < 7; ++kind) {
      const auto bytes = flight(host, kind);
      ASSERT_FALSE(bytes.empty()) << "kind " << kind;
      const std::uint8_t length[2] = {
          static_cast<std::uint8_t>(bytes.size() >> 8),
          static_cast<std::uint8_t>(bytes.size())};
      sha.update(length);
      sha.update(bytes);
    }
  }
  EXPECT_EQ(net::Sha256::hex(sha.finish()),
            "372ebcc0ac093e2a502369328da22bdf32f5502859889e138f3ab68ac46c8abb");
}

}  // namespace
}  // namespace originscan::sim
