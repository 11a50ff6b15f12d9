// The three protocols the study scans, with their well-known ports.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

namespace originscan::proto {

enum class Protocol : std::uint8_t { kHttp = 0, kHttps = 1, kSsh = 2 };

inline constexpr std::array<Protocol, 3> kAllProtocols = {
    Protocol::kHttp, Protocol::kHttps, Protocol::kSsh};

constexpr std::uint16_t port_of(Protocol p) {
  switch (p) {
    case Protocol::kHttp:
      return 80;
    case Protocol::kHttps:
      return 443;
    case Protocol::kSsh:
      return 22;
  }
  return 0;
}

// Inverse of port_of: the protocol scanned on `port`, or nullopt for a
// port outside the study. Used on the probe hot path, so it must stay a
// branch table, not a loop over kAllProtocols.
constexpr std::optional<Protocol> protocol_for_port(std::uint16_t port) {
  switch (port) {
    case 80:
      return Protocol::kHttp;
    case 443:
      return Protocol::kHttps;
    case 22:
      return Protocol::kSsh;
    default:
      return std::nullopt;
  }
}

constexpr std::string_view name_of(Protocol p) {
  switch (p) {
    case Protocol::kHttp:
      return "HTTP";
    case Protocol::kHttps:
      return "HTTPS";
    case Protocol::kSsh:
      return "SSH";
  }
  return "?";
}

// Inverse of name_of, ignoring ASCII case: the command line's "ssh" and
// the journal's "SSH" name the same protocol. nullopt for anything else.
constexpr std::optional<Protocol> protocol_from_name(std::string_view name) {
  const auto same = [](char typed, char canonical) {
    return (typed >= 'a' && typed <= 'z' ? typed - 'a' + 'A' : typed) ==
           canonical;
  };
  for (Protocol p : kAllProtocols) {
    const std::string_view canonical = name_of(p);
    if (std::equal(name.begin(), name.end(), canonical.begin(),
                   canonical.end(), same)) {
      return p;
    }
  }
  return std::nullopt;
}

constexpr std::size_t index_of(Protocol p) {
  return static_cast<std::size_t>(p);
}

}  // namespace originscan::proto
