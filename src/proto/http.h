// Minimal HTTP/1.1 request/response codec — exactly what a ZGrab
// `http` module sends (GET / with Host and User-Agent) and what the
// simulated servers answer with. Parsing is strict about the pieces the
// scanner relies on (status line, Content-Length framing) and tolerant
// about everything else, mirroring real scanner behaviour.
//
// Writers append to a caller-owned buffer; parsers return views into the
// text they were given, so a parsed message is valid only as long as
// that text is.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace originscan::proto {

// Header lines go into a flat table of views with room for this many; a
// message with more header lines is rejected. Names match ASCII
// case-insensitively, and a repeated header's last value wins.
inline constexpr std::size_t kMaxHttpHeaders = 16;

struct HttpRequest {
  std::string_view method = "GET";
  std::string_view target = "/";
  std::string_view host;  // Host header; written as "-" when empty
  std::string_view user_agent = "Mozilla/5.0 zgrab/0.x (originscan)";

  void write(std::vector<std::uint8_t>& out) const;
  static std::optional<HttpRequest> parse(std::string_view text);
};

struct HttpResponse {
  int status_code = 200;
  std::string_view reason = "OK";
  std::string_view server;    // Server header, may be empty
  std::string_view location;  // Location header (redirects), may be empty
  std::string_view title;     // body is "<html><head><title>{title}</title>..."

  void write(std::vector<std::uint8_t>& out) const;
  static std::optional<HttpResponse> parse(std::string_view text);

  // True when the status line parsed and the handshake counts as an
  // L7 success for the study (any syntactically valid response does —
  // the paper counts completed GETs, not 200s).
  [[nodiscard]] bool valid() const { return status_code >= 100; }
};

// Extracts the <title> from an HTML body (used by the geographic-bias
// analysis to recognize "Blocked Site" pages, Section 4.4).
std::string_view extract_title(std::string_view html);

}  // namespace originscan::proto
