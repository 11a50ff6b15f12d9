#include "proto/ssh.h"

#include <algorithm>
#include <charconv>

#include "netbase/byteio.h"
#include "netbase/rng.h"

namespace originscan::proto {

using net::ByteReader;
using net::ByteWriter;

void SshIdentification::write(std::vector<std::uint8_t>& out) const {
  ByteWriter w(out);
  w.text("SSH-");
  w.text(protocol_version);
  w.text("-");
  w.text(software_version);
  if (!comment.empty()) {
    w.text(" ");
    w.text(comment);
  }
  w.text("\r\n");
}

std::optional<SshIdentification> SshIdentification::parse(
    std::string_view line) {
  // Strip one trailing CRLF or LF.
  if (line.ends_with("\r\n")) {
    line.remove_suffix(2);
  } else if (line.ends_with('\n')) {
    line.remove_suffix(1);
  }
  if (!line.starts_with("SSH-")) return std::nullopt;
  line.remove_prefix(4);
  const auto dash = line.find('-');
  if (dash == std::string_view::npos) return std::nullopt;

  SshIdentification id;
  id.protocol_version = line.substr(0, dash);
  if (id.protocol_version != "2.0" && id.protocol_version != "1.99") {
    return std::nullopt;
  }
  auto rest = line.substr(dash + 1);
  const auto space = rest.find(' ');
  if (space == std::string_view::npos) {
    id.software_version = rest;
  } else {
    id.software_version = rest.substr(0, space);
    id.comment = rest.substr(space + 1);
  }
  if (id.software_version.empty()) return std::nullopt;
  return id;
}

double MaxStartups::refusal_probability(int unauthenticated) const {
  if (unauthenticated < start) return 0.0;
  if (unauthenticated >= full) return 1.0;
  // OpenSSH ramps linearly from rate% at `start` to 100% at `full`.
  const double span = static_cast<double>(full - start);
  const double progress = static_cast<double>(unauthenticated - start);
  const double base = static_cast<double>(rate) / 100.0;
  return base + (1.0 - base) * (span > 0.0 ? progress / span : 1.0);
}

std::optional<MaxStartups> MaxStartups::parse(std::string_view text) {
  MaxStartups ms;
  int* fields[3] = {&ms.start, &ms.rate, &ms.full};
  for (int i = 0; i < 3; ++i) {
    if (i > 0) {
      if (text.empty() || text.front() != ':') return std::nullopt;
      text.remove_prefix(1);
    }
    auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), *fields[i]);
    if (ec != std::errc{} || ptr == text.data() || *fields[i] < 0) {
      return std::nullopt;
    }
    text.remove_prefix(static_cast<std::size_t>(ptr - text.data()));
  }
  if (!text.empty()) return std::nullopt;
  if (ms.rate > 100 || ms.full < ms.start) return std::nullopt;
  return ms;
}

std::string MaxStartups::to_string() const {
  return std::to_string(start) + ":" + std::to_string(rate) + ":" +
         std::to_string(full);
}

std::size_t begin_ssh_packet(std::vector<std::uint8_t>& out) {
  const std::size_t start = out.size();
  ByteWriter w(out);
  w.u32(0);  // packet_length
  w.u8(0);   // padding_length
  return start;
}

void end_ssh_packet(std::vector<std::uint8_t>& out, std::size_t start,
                    std::uint64_t padding_seed) {
  // packet_length(4) + padding_length(1) + payload + padding; total must
  // be a multiple of 8 and padding >= 4.
  const std::size_t payload = out.size() - start - 5;
  std::size_t padding = 8 - ((payload + 5) % 8);
  if (padding < 4) padding += 8;
  ByteWriter w(out);
  std::uint64_t state = padding_seed;
  for (std::size_t i = 0; i < padding; ++i) {
    w.u8(static_cast<std::uint8_t>(net::splitmix64(state)));
  }
  w.patch_u32(start, static_cast<std::uint32_t>(1 + payload + padding));
  out[start + 4] = static_cast<std::uint8_t>(padding);
}

std::optional<SshPacket> SshPacket::parse(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  const std::uint32_t packet_length = r.u32();
  const std::uint8_t padding_length = r.u8();
  if (!r.ok() || packet_length < 1u + padding_length) return std::nullopt;
  const std::uint32_t payload_length = packet_length - 1 - padding_length;
  auto payload = r.bytes(payload_length);
  r.skip(padding_length);
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  if ((4 + packet_length) % 8 != 0) return std::nullopt;
  return SshPacket{payload};
}

namespace {

void write_name_list(ByteWriter& w, std::string_view names) {
  w.u32(static_cast<std::uint32_t>(names.size()));
  w.text(names);
}

std::optional<std::string_view> read_name_list(ByteReader& r) {
  const std::uint32_t length = r.u32();
  auto raw = r.bytes(length);
  if (!r.ok()) return std::nullopt;
  return net::as_text(raw);
}

}  // namespace

void SshKexInit::write(std::vector<std::uint8_t>& out) const {
  ByteWriter w(out);
  w.u8(kMessageNumber);
  w.bytes(cookie);
  write_name_list(w, kex_algorithms);
  write_name_list(w, host_key_algorithms);
  // The six remaining name-lists (ciphers/MACs/compression/languages both
  // directions) are irrelevant to a banner grab; write them empty.
  for (int i = 0; i < 6; ++i) w.u32(0);
  w.u8(0);   // first_kex_packet_follows
  w.u32(0);  // reserved
}

std::optional<SshKexInit> SshKexInit::parse(
    std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  if (r.u8() != kMessageNumber) return std::nullopt;
  SshKexInit kex;
  auto cookie = r.bytes(16);
  if (!r.ok()) return std::nullopt;
  std::copy(cookie.begin(), cookie.end(), kex.cookie.begin());
  auto kex_algorithms = read_name_list(r);
  auto host_keys = read_name_list(r);
  if (!kex_algorithms || !host_keys) return std::nullopt;
  kex.kex_algorithms = *kex_algorithms;
  kex.host_key_algorithms = *host_keys;
  for (int i = 0; i < 6; ++i) {
    if (!read_name_list(r)) return std::nullopt;
  }
  r.skip(1);
  r.skip(4);
  if (!r.ok()) return std::nullopt;
  return kex;
}

}  // namespace originscan::proto
