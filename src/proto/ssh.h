// SSH-2 transport-layer codec for the pieces a ZGrab SSH banner grab
// touches: the identification string exchange (RFC 4253 §4.2) — the study
// terminates after this — plus KEXINIT write/parse so the library can also
// model clients that go one message further. Also models the
// "ssh_exchange_identification: Connection closed by remote host" refusal
// that OpenSSH's MaxStartups produces (Section 6 of the paper).
//
// Writers append to a caller-owned buffer. Parsers return views into the
// bytes they were given, valid only as long as those bytes are.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace originscan::proto {

struct SshIdentification {
  std::string_view protocol_version = "2.0";
  std::string_view software_version = "OpenSSH_7.4";
  std::string_view comment;  // optional trailing comment

  // Appends "SSH-2.0-OpenSSH_7.4[ comment]\r\n".
  void write(std::vector<std::uint8_t>& out) const;
  static std::optional<SshIdentification> parse(std::string_view line);
};

// OpenSSH MaxStartups start:rate:full triple (sshd_config(5)): once
// `start` unauthenticated connections are open, refuse new ones with
// probability ramping linearly from rate% to 100% at `full`.
struct MaxStartups {
  int start = 10;
  int rate = 30;  // percent
  int full = 100;

  // Refusal probability given the current number of open unauthenticated
  // connections (0 below start, 1 at/above full).
  [[nodiscard]] double refusal_probability(int unauthenticated) const;

  static std::optional<MaxStartups> parse(std::string_view text);  // "10:30:100"
  [[nodiscard]] std::string to_string() const;
};

// SSH binary packet framing (RFC 4253 §6, unencrypted): carries KEXINIT.
struct SshPacket {
  std::span<const std::uint8_t> payload;

  static std::optional<SshPacket> parse(std::span<const std::uint8_t> data);
};

// Packet framing written in place: begin_ssh_packet appends the length
// and padding-length fields as zeros and returns where they start; once
// the caller has appended the payload, end_ssh_packet appends padding
// (at least 4 bytes, drawn from `padding_seed`, rounding the packet to a
// multiple of 8) and back-patches both fields.
std::size_t begin_ssh_packet(std::vector<std::uint8_t>& out);
void end_ssh_packet(std::vector<std::uint8_t>& out, std::size_t start,
                    std::uint64_t padding_seed);

// Default algorithm name-lists resembling OpenSSH 7.x.
inline constexpr std::string_view kDefaultKexAlgorithms =
    "curve25519-sha256,ecdh-sha2-nistp256,diffie-hellman-group14-sha256";
inline constexpr std::string_view kDefaultHostKeyAlgorithms =
    "ssh-ed25519,rsa-sha2-512,rsa-sha2-256";

struct SshKexInit {
  static constexpr std::uint8_t kMessageNumber = 20;

  std::array<std::uint8_t, 16> cookie{};
  // Comma-separated name-lists, as on the wire.
  std::string_view kex_algorithms = kDefaultKexAlgorithms;
  std::string_view host_key_algorithms = kDefaultHostKeyAlgorithms;

  void write(std::vector<std::uint8_t>& out) const;  // packet payload
  static std::optional<SshKexInit> parse(std::span<const std::uint8_t> payload);
};

}  // namespace originscan::proto
