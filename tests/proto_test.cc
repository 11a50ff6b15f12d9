#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "proto/http.h"
#include "proto/protocol.h"
#include "proto/ssh.h"
#include "proto/tls.h"

namespace originscan::proto {
namespace {

// -------------------------------------------------------------- protocol --

TEST(Protocol, PortsAndNames) {
  EXPECT_EQ(port_of(Protocol::kHttp), 80);
  EXPECT_EQ(port_of(Protocol::kHttps), 443);
  EXPECT_EQ(port_of(Protocol::kSsh), 22);
  EXPECT_EQ(name_of(Protocol::kSsh), "SSH");
}

// ------------------------------------------------------------------ HTTP --

std::string_view text_of(const std::vector<std::uint8_t>& bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

TEST(Http, RequestRoundTrip) {
  HttpRequest request;
  request.host = "example.org";
  std::vector<std::uint8_t> bytes;
  request.write(bytes);
  auto parsed = HttpRequest::parse(text_of(bytes));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->method, "GET");
  EXPECT_EQ(parsed->target, "/");
  EXPECT_EQ(parsed->host, "example.org");
  EXPECT_EQ(parsed->user_agent, request.user_agent);
}

TEST(Http, RequestRejectsGarbage) {
  EXPECT_FALSE(HttpRequest::parse("not http\r\n\r\n").has_value());
  EXPECT_FALSE(HttpRequest::parse("GET /\r\n\r\n").has_value());
  EXPECT_FALSE(HttpRequest::parse("GET / HTTP/1.1").has_value());  // no CRLF
}

TEST(Http, ResponseRoundTrip) {
  HttpResponse response;
  response.status_code = 301;
  response.reason = "Moved Permanently";
  response.server = "nginx/1.14.0";
  response.location = "https://10.0.0.1/";
  response.title = "Blocked Site";
  std::vector<std::uint8_t> bytes;
  response.write(bytes);
  auto parsed = HttpResponse::parse(text_of(bytes));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status_code, 301);
  EXPECT_EQ(parsed->reason, "Moved Permanently");
  EXPECT_EQ(parsed->server, "nginx/1.14.0");
  EXPECT_EQ(parsed->location, "https://10.0.0.1/");
  EXPECT_EQ(parsed->title, "Blocked Site");
  EXPECT_TRUE(parsed->valid());
}

TEST(Http, ResponseRejectsBadStatusLine) {
  EXPECT_FALSE(HttpResponse::parse("HTTP/1.1 999 Nope\r\n\r\n").has_value());
  EXPECT_FALSE(HttpResponse::parse("SIP/2.0 200 OK\r\n\r\n").has_value());
}

TEST(Http, HeaderLookupIsCaseInsensitiveAndLastWins) {
  auto parsed = HttpResponse::parse(
      "HTTP/1.1 200 OK\r\nSERVER: a\r\nLocation:  /one \r\nx-tag: t\r\n"
      "location: /two\r\n\r\n<title>t</title>");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->server, "a");
  EXPECT_EQ(parsed->location, "/two");
  EXPECT_EQ(parsed->title, "t");
  auto request = HttpRequest::parse(
      "GET / HTTP/1.0\r\nhOsT:\texample.org \r\n\r\n");
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->host, "example.org");
}

TEST(Http, HeaderTableOverflowIsRejected) {
  std::string text = "HTTP/1.1 200 OK\r\n";
  for (std::size_t i = 0; i < kMaxHttpHeaders; ++i) {
    text += "X-" + std::to_string(i) + ": v\r\n";
  }
  EXPECT_TRUE(HttpResponse::parse(text + "\r\n").has_value());
  EXPECT_FALSE(HttpResponse::parse(text + "X-more: v\r\n\r\n").has_value());
}

TEST(Http, ContentLengthFramesTheBody) {
  // The title after the framed body is not part of the page.
  auto parsed = HttpResponse::parse(
      "HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbody<title>x</title>");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->title, "");
}

TEST(Http, ExtractTitle) {
  EXPECT_EQ(extract_title("<html><title>Hi</title></html>"), "Hi");
  EXPECT_EQ(extract_title("<html><body>none</body></html>"), "");
  EXPECT_EQ(extract_title("<title>unterminated"), "");
}

// ------------------------------------------------------------------- TLS --

TEST(Tls, RecordRoundTrip) {
  const std::vector<std::uint8_t> fragment = {1, 2, 3, 4};
  std::vector<std::uint8_t> bytes;
  TlsRecord{.content_type = TlsContentType::kHandshake, .fragment = fragment}
      .write(bytes);
  std::size_t consumed = 0;
  auto parsed = TlsRecord::parse(bytes, consumed);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_TRUE(std::ranges::equal(parsed->fragment, fragment));
  // The fragment is a view into the parsed bytes, not a copy.
  EXPECT_EQ(parsed->fragment.data(), bytes.data() + 5);
}

TEST(Tls, RecordRejectsUnknownContentType) {
  std::vector<std::uint8_t> bytes = {99, 3, 3, 0, 0};
  std::size_t consumed = 0;
  EXPECT_FALSE(TlsRecord::parse(bytes, consumed).has_value());
}

TEST(Tls, ClientHelloRoundTripWithSni) {
  std::array<std::uint8_t, 32> random{};
  for (std::size_t i = 0; i < random.size(); ++i) {
    random[i] = static_cast<std::uint8_t>(i);
  }
  std::vector<std::uint8_t> body;
  write_client_hello(body, chrome_cipher_suites(), "scanned.example", random);
  auto parsed = ClientHello::parse(body);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->suite_count(), chrome_cipher_suites().size());
  for (std::size_t i = 0; i < parsed->suite_count(); ++i) {
    EXPECT_EQ(parsed->suite(i), chrome_cipher_suites()[i]);
  }
  EXPECT_EQ(parsed->server_name, "scanned.example");
  EXPECT_EQ(parsed->random, random);
}

TEST(Tls, ClientHelloWithoutSni) {
  const std::uint16_t suites[] = {0xC02F};
  std::vector<std::uint8_t> body;
  write_client_hello(body, suites);
  auto parsed = ClientHello::parse(body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->server_name.empty());
  ASSERT_EQ(parsed->suite_count(), 1u);
  EXPECT_EQ(parsed->suite(0), 0xC02F);
}

TEST(Tls, ServerHelloRoundTrip) {
  ServerHello hello;
  hello.cipher_suite = 0xCCA8;
  std::vector<std::uint8_t> body;
  hello.write(body);
  auto parsed = ServerHello::parse(body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cipher_suite, 0xCCA8);
}

TEST(Tls, CertificateChainRoundTrip) {
  const std::vector<std::uint8_t> leaf = {0x30, 0x82, 1, 2, 3};
  const std::vector<std::uint8_t> issuer = {0x30, 0x82, 9};
  const std::span<const std::uint8_t> chain[] = {leaf, issuer};
  std::vector<std::uint8_t> body;
  write_certificate(body, chain);
  auto parsed = Certificate::parse(body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->count, 2u);
  EXPECT_TRUE(std::ranges::equal(parsed->leaf, leaf));
  body.pop_back();
  EXPECT_FALSE(Certificate::parse(body).has_value());
}

TEST(Tls, AlertRoundTrip) {
  TlsAlert alert;
  alert.fatal = true;
  alert.description = TlsAlertDescription::kAccessDenied;
  std::vector<std::uint8_t> bytes;
  alert.write_record(bytes);
  std::size_t consumed = 0;
  auto record = TlsRecord::parse(bytes, consumed);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->content_type, TlsContentType::kAlert);
  auto parsed = TlsAlert::parse(record->fragment);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->fatal);
  EXPECT_EQ(parsed->description, TlsAlertDescription::kAccessDenied);
}

TEST(Tls, HandshakeWalkerWalksFlight) {
  ServerHello hello;
  hello.cipher_suite = 0xC02F;
  std::vector<std::uint8_t> record_bytes;
  wrap_handshake(record_bytes, TlsHandshakeType::kServerHello,
                 [&](auto& body) { hello.write(body); });
  std::size_t consumed = 0;
  auto record = TlsRecord::parse(record_bytes, consumed);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(consumed, record_bytes.size());
  HandshakeWalker messages(record->fragment);
  ASSERT_TRUE(messages.ok());
  auto message = messages.next();
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->type, TlsHandshakeType::kServerHello);
  EXPECT_EQ(ServerHello::parse(message->body)->cipher_suite, 0xC02F);
  EXPECT_FALSE(messages.next().has_value());
}

TEST(Tls, HandshakeWalkerRejectsBrokenFramingWhole) {
  // A good message followed by one whose body runs past the end: the
  // walker yields neither.
  const std::vector<std::uint8_t> fragment = {14, 0, 0, 0, 2, 0, 0, 9, 1};
  HandshakeWalker messages(fragment);
  EXPECT_FALSE(messages.ok());
  EXPECT_FALSE(messages.next().has_value());
  // Trailing bytes too short for a header are broken framing too.
  const std::vector<std::uint8_t> trailing = {14, 0, 0, 0, 7};
  EXPECT_FALSE(HandshakeWalker(trailing).ok());
}

TEST(Tls, ChromeSuitesIncludeEcdheGcm) {
  bool found = false;
  for (std::uint16_t suite : chrome_cipher_suites()) {
    if (suite == 0xC02F) found = true;
  }
  EXPECT_TRUE(found);
}

// ------------------------------------------------------------------- SSH --

TEST(Ssh, IdentificationRoundTrip) {
  SshIdentification id;
  id.software_version = "OpenSSH_7.4";
  std::vector<std::uint8_t> bytes;
  id.write(bytes);
  EXPECT_EQ(text_of(bytes), "SSH-2.0-OpenSSH_7.4\r\n");
  auto parsed = SshIdentification::parse(text_of(bytes));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->software_version, "OpenSSH_7.4");
  EXPECT_EQ(parsed->protocol_version, "2.0");
}

TEST(Ssh, IdentificationWithComment) {
  auto parsed = SshIdentification::parse("SSH-2.0-OpenSSH_8.0 Ubuntu-6\r\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->software_version, "OpenSSH_8.0");
  EXPECT_EQ(parsed->comment, "Ubuntu-6");
}

TEST(Ssh, IdentificationRejectsBadVersions) {
  EXPECT_FALSE(SshIdentification::parse("SSH-1.5-old\r\n").has_value());
  EXPECT_FALSE(SshIdentification::parse("HTTP/1.1 200 OK\r\n").has_value());
  EXPECT_FALSE(SshIdentification::parse("SSH-2.0-\r\n").has_value());
}

TEST(Ssh, MaxStartupsParse) {
  auto triple = MaxStartups::parse("10:30:100");
  ASSERT_TRUE(triple.has_value());
  EXPECT_EQ(triple->start, 10);
  EXPECT_EQ(triple->rate, 30);
  EXPECT_EQ(triple->full, 100);
  EXPECT_EQ(triple->to_string(), "10:30:100");

  EXPECT_FALSE(MaxStartups::parse("10:30").has_value());
  EXPECT_FALSE(MaxStartups::parse("10:101:100").has_value());
  EXPECT_FALSE(MaxStartups::parse("100:30:10").has_value());  // full < start
  EXPECT_FALSE(MaxStartups::parse("a:b:c").has_value());
}

TEST(Ssh, MaxStartupsRefusalCurve) {
  const MaxStartups triple{10, 30, 100};
  EXPECT_DOUBLE_EQ(triple.refusal_probability(0), 0.0);
  EXPECT_DOUBLE_EQ(triple.refusal_probability(9), 0.0);
  EXPECT_DOUBLE_EQ(triple.refusal_probability(10), 0.30);
  EXPECT_DOUBLE_EQ(triple.refusal_probability(100), 1.0);
  EXPECT_DOUBLE_EQ(triple.refusal_probability(1000), 1.0);
  // Monotone in between.
  double previous = 0;
  for (int n = 0; n <= 120; ++n) {
    const double p = triple.refusal_probability(n);
    EXPECT_GE(p, previous);
    previous = p;
  }
}

std::vector<std::uint8_t> packet_of(std::span<const std::uint8_t> payload,
                                    std::uint64_t padding_seed) {
  std::vector<std::uint8_t> bytes;
  const std::size_t start = begin_ssh_packet(bytes);
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  end_ssh_packet(bytes, start, padding_seed);
  return bytes;
}

TEST(Ssh, PacketRoundTripAndPadding) {
  const std::vector<std::uint8_t> payload = {20, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto bytes = packet_of(payload, /*padding_seed=*/42);
  EXPECT_EQ(bytes.size() % 8, 0u);
  EXPECT_GE(bytes[4], 4);  // padding_length
  auto parsed = SshPacket::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(std::ranges::equal(parsed->payload, payload));
}

TEST(Ssh, PacketRejectsTruncated) {
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  auto bytes = packet_of(payload, 1);
  bytes.pop_back();
  EXPECT_FALSE(SshPacket::parse(bytes).has_value());
}

TEST(Ssh, KexInitRoundTrip) {
  SshKexInit kex;
  for (std::size_t i = 0; i < kex.cookie.size(); ++i) {
    kex.cookie[i] = static_cast<std::uint8_t>(i * 3);
  }
  std::vector<std::uint8_t> payload;
  kex.write(payload);
  auto parsed = SshKexInit::parse(payload);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kex_algorithms, kDefaultKexAlgorithms);
  EXPECT_EQ(parsed->host_key_algorithms, kDefaultHostKeyAlgorithms);
  EXPECT_EQ(parsed->cookie, kex.cookie);
}

}  // namespace
}  // namespace originscan::proto
