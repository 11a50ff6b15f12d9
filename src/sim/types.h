// Shared identifiers and outcome enums for the simulation and scanner.
#pragma once

#include <cstdint>
#include <string_view>

#include "proto/protocol.h"

namespace originscan::sim {

using AsId = std::uint32_t;
inline constexpr AsId kNoAs = ~AsId{0};

// Index into the experiment's origin list.
using OriginId = std::uint32_t;

// What came back (or didn't) for one SYN probe.
enum class SynOutcome : std::uint8_t {
  kNoResponse = 0,  // dropped en route, host absent, or host firewalled
  kSynAck = 1,
  kRst = 2,
};

// The fate of one application-layer handshake attempt.
enum class L7Outcome : std::uint8_t {
  kNotAttempted = 0,
  kCompleted,          // full application handshake (the study's success)
  kConnectTimeout,     // TCP connect never completed
  kResetAfterAccept,   // RST immediately after the TCP handshake
  kClosedBeforeData,   // FIN before the server said anything (MaxStartups)
  kClosedMidHandshake, // connection closed partway through L7
  kProtocolError,      // response did not parse as the protocol
  kReadTimeout,        // connected, then silence
};

constexpr std::string_view to_string(L7Outcome outcome) {
  switch (outcome) {
    case L7Outcome::kNotAttempted:
      return "not-attempted";
    case L7Outcome::kCompleted:
      return "completed";
    case L7Outcome::kConnectTimeout:
      return "connect-timeout";
    case L7Outcome::kResetAfterAccept:
      return "reset-after-accept";
    case L7Outcome::kClosedBeforeData:
      return "closed-before-data";
    case L7Outcome::kClosedMidHandshake:
      return "closed-mid-handshake";
    case L7Outcome::kProtocolError:
      return "protocol-error";
    case L7Outcome::kReadTimeout:
      return "read-timeout";
  }
  return "?";
}

// True when the outcome is an *explicit* close (RST/FIN) rather than a
// silent drop — the distinction Section 6 draws between SSH and HTTP(S).
constexpr bool is_explicit_close(L7Outcome outcome) {
  return outcome == L7Outcome::kResetAfterAccept ||
         outcome == L7Outcome::kClosedBeforeData ||
         outcome == L7Outcome::kClosedMidHandshake;
}

}  // namespace originscan::sim
