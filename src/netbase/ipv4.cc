#include "netbase/ipv4.h"

#include <charconv>

namespace originscan::net {
namespace {

// Parses one decimal octet from the front of `text`, advancing it.
std::optional<std::uint8_t> parse_octet(std::string_view& text) {
  unsigned value = 0;
  const char* begin = text.data();
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr == begin || value > 255) return std::nullopt;
  // Reject leading zeros like "01" which some parsers treat as octal.
  if (ptr - begin > 1 && *begin == '0') return std::nullopt;
  text.remove_prefix(static_cast<std::size_t>(ptr - begin));
  return static_cast<std::uint8_t>(value);
}

}  // namespace

std::optional<Ipv4Addr> Ipv4Addr::parse(std::string_view text) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    if (i > 0) {
      if (text.empty() || text.front() != '.') return std::nullopt;
      text.remove_prefix(1);
    }
    auto octet = parse_octet(text);
    if (!octet) return std::nullopt;
    value = (value << 8) | *octet;
  }
  if (!text.empty()) return std::nullopt;
  return Ipv4Addr(value);
}

char* Ipv4Addr::write_to(char* out) const {
  for (int shift = 24; shift >= 0; shift -= 8) {
    if (shift != 24) *out++ = '.';
    out = std::to_chars(out, out + 3, (value_ >> shift) & 0xFF).ptr;
  }
  return out;
}

std::string Ipv4Addr::to_string() const {
  char text[kMaxTextLength];
  return {text, write_to(text)};
}

std::optional<Prefix> Prefix::parse(std::string_view text) {
  auto slash = text.find('/');
  int length = 32;
  std::string_view addr_part = text;
  if (slash != std::string_view::npos) {
    addr_part = text.substr(0, slash);
    std::string_view len_part = text.substr(slash + 1);
    unsigned value = 0;
    auto [ptr, ec] =
        std::from_chars(len_part.data(), len_part.data() + len_part.size(), value);
    if (ec != std::errc{} || ptr != len_part.data() + len_part.size() ||
        value > 32) {
      return std::nullopt;
    }
    length = static_cast<int>(value);
  }
  auto addr = Ipv4Addr::parse(addr_part);
  if (!addr) return std::nullopt;
  return Prefix(*addr, length);
}

std::string Prefix::to_string() const {
  return base_.to_string() + "/" + std::to_string(length_);
}

}  // namespace originscan::net
