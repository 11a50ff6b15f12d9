// IPv4 address and CIDR prefix value types.
//
// These are the fundamental vocabulary types of the library: every module
// above netbase speaks in Ipv4Addr / Prefix. Both are small, trivially
// copyable value types with total ordering so they can be used as keys.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace originscan::net {

// An IPv4 address stored in host byte order.
class Ipv4Addr {
 public:
  constexpr Ipv4Addr() = default;
  constexpr explicit Ipv4Addr(std::uint32_t value) : value_(value) {}
  constexpr Ipv4Addr(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                     std::uint8_t d)
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
               (std::uint32_t{c} << 8) | std::uint32_t{d}) {}

  [[nodiscard]] constexpr std::uint32_t value() const { return value_; }

  // Dotted-quad parsing; returns nullopt on any syntactic error
  // (missing octets, out-of-range octet, trailing garbage).
  static std::optional<Ipv4Addr> parse(std::string_view text);

  // Dotted quad, at most kMaxTextLength characters.
  static constexpr std::size_t kMaxTextLength = 15;
  [[nodiscard]] std::string to_string() const;
  // Writes the dotted quad at `out` (room for kMaxTextLength chars, no
  // terminator) and returns the end: to_string without the heap.
  char* write_to(char* out) const;

  // The /24 network containing this address (its "network unit" in the
  // paper's aggregation methodology).
  [[nodiscard]] constexpr Ipv4Addr slash24() const {
    return Ipv4Addr(value_ & 0xFFFFFF00u);
  }

  friend constexpr bool operator==(Ipv4Addr, Ipv4Addr) = default;
  friend constexpr auto operator<=>(Ipv4Addr, Ipv4Addr) = default;

 private:
  std::uint32_t value_ = 0;
};

// A CIDR prefix: base address plus length in [0, 32]. The base is
// canonicalized (host bits zeroed) on construction.
class Prefix {
 public:
  constexpr Prefix() = default;
  constexpr Prefix(Ipv4Addr base, int length)
      : base_(Ipv4Addr(base.value() & mask(length))), length_(length) {}

  static std::optional<Prefix> parse(std::string_view text);

  [[nodiscard]] constexpr Ipv4Addr base() const { return base_; }
  [[nodiscard]] constexpr int length() const { return length_; }

  // Number of addresses covered; a /0 covers 2^32 which does not fit in
  // uint32, so size is 64-bit.
  [[nodiscard]] constexpr std::uint64_t size() const {
    return std::uint64_t{1} << (32 - length_);
  }

  [[nodiscard]] constexpr Ipv4Addr first() const { return base_; }
  [[nodiscard]] constexpr Ipv4Addr last() const {
    return Ipv4Addr(base_.value() | ~mask(length_));
  }

  [[nodiscard]] constexpr bool contains(Ipv4Addr addr) const {
    return (addr.value() & mask(length_)) == base_.value();
  }
  [[nodiscard]] constexpr bool contains(const Prefix& other) const {
    return other.length_ >= length_ && contains(other.base_);
  }

  [[nodiscard]] std::string to_string() const;

  friend constexpr bool operator==(const Prefix&, const Prefix&) = default;
  friend constexpr auto operator<=>(const Prefix&, const Prefix&) = default;

 private:
  static constexpr std::uint32_t mask(int length) {
    return length == 0 ? 0u : ~std::uint32_t{0} << (32 - length);
  }

  Ipv4Addr base_;
  int length_ = 32;
};

}  // namespace originscan::net
