// Bounds-checked big-endian (network byte order) buffer readers/writers.
// All header serialization in the library goes through these so that
// endianness handling lives in exactly one place.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

namespace originscan::net {

// The same bytes seen as text, and back: the text protocols (HTTP, the
// SSH identification line) parse what arrives as bytes.
inline std::string_view as_text(std::span<const std::uint8_t> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}
inline std::span<const std::uint8_t> as_bytes(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

// Appends network-byte-order fields to a growable byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void bytes(std::span<const std::uint8_t> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }
  void text(std::string_view data) { bytes(as_bytes(data)); }

  [[nodiscard]] std::size_t size() const { return out_.size(); }

  // Patches a previously written 16-bit field (e.g. a length or checksum
  // that is only known once the rest of the message is serialized).
  void patch_u16(std::size_t offset, std::uint16_t v) {
    out_[offset] = static_cast<std::uint8_t>(v >> 8);
    out_[offset + 1] = static_cast<std::uint8_t>(v);
  }
  void patch_u24(std::size_t offset, std::uint32_t v) {
    out_[offset] = static_cast<std::uint8_t>(v >> 16);
    patch_u16(offset + 1, static_cast<std::uint16_t>(v));
  }
  void patch_u32(std::size_t offset, std::uint32_t v) {
    patch_u16(offset, static_cast<std::uint16_t>(v >> 16));
    patch_u16(offset + 2, static_cast<std::uint16_t>(v));
  }

 private:
  std::vector<std::uint8_t>& out_;
};

// Reads network-byte-order fields from a fixed span. Instead of throwing,
// the reader latches an error flag on overrun; callers check ok() once at
// the end, which keeps per-field parsing branch-light.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    if (pos_ + 1 > data_.size()) return fail();
    return data_[pos_++];
  }
  std::uint16_t u16() {
    const std::uint16_t hi = u8();
    return static_cast<std::uint16_t>((hi << 8) | u8());
  }
  std::uint32_t u32() {
    const std::uint32_t hi = u16();
    return (hi << 16) | u16();
  }
  std::uint64_t u64() {
    const std::uint64_t hi = u32();
    return (hi << 32) | u32();
  }
  std::span<const std::uint8_t> bytes(std::size_t n) {
    if (pos_ + n > data_.size()) {
      fail();
      return {};
    }
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  void skip(std::size_t n) { (void)bytes(n); }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const {
    return ok_ ? data_.size() - pos_ : 0;
  }
  [[nodiscard]] std::size_t position() const { return pos_; }

 private:
  std::uint8_t fail() {
    ok_ = false;
    return 0;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace originscan::net
