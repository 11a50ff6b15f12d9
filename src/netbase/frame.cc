#include "netbase/frame.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "netbase/byteio.h"
#include "netbase/crc32.h"

namespace originscan::net {
namespace {

constexpr std::size_t kHeaderBytes = 4;  // u32 length
constexpr std::size_t kFooterBytes = 4;  // u32 crc32(payload)

}  // namespace

std::string_view frame_error_name(FrameError error) {
  switch (error) {
    case FrameError::kNone:
      return "none";
    case FrameError::kTruncated:
      return "truncated";
    case FrameError::kOversized:
      return "oversized_length";
    case FrameError::kBadCrc:
      return "bad_crc";
  }
  return "?";
}

void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload) {
  ByteWriter writer(out);
  writer.u32(static_cast<std::uint32_t>(payload.size()));
  writer.bytes(payload);
  writer.u32(crc32(payload));
}

std::vector<std::uint8_t> encode_frame(std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload.size() + kFooterBytes);
  append_frame(out, payload);
  return out;
}

FrameError parse_frame(std::span<const std::uint8_t> data, FrameView& out,
                       std::size_t max_payload) {
  if (data.size() < kHeaderBytes) return FrameError::kTruncated;
  ByteReader reader(data);
  const std::uint32_t length = reader.u32();
  // The length cap is checked before the remaining-bytes check so that a
  // corrupt prefix classifies as oversized even in a stream, where a
  // short buffer would otherwise read as "wait for more bytes" and stall
  // the connection until an allocation-bomb-sized buffer filled up.
  if (length > max_payload) return FrameError::kOversized;
  if (data.size() - kHeaderBytes < length + kFooterBytes) {
    return FrameError::kTruncated;
  }
  const std::span<const std::uint8_t> payload = reader.bytes(length);
  const std::uint32_t want_crc = reader.u32();
  if (!reader.ok()) return FrameError::kTruncated;
  if (crc32(payload) != want_crc) return FrameError::kBadCrc;
  out.payload = payload;
  out.consumed = kHeaderBytes + length + kFooterBytes;
  return FrameError::kNone;
}

FrameError parse_single_frame(std::span<const std::uint8_t> data,
                              std::span<const std::uint8_t>& payload,
                              std::size_t max_payload) {
  FrameView view;
  // File mode: the declared length is bounded by what the file actually
  // holds — parse_frame's remaining-bytes check is exactly the "never
  // over-read a lying prefix" rule, reported as kTruncated.
  const FrameError error = parse_frame(data, view, max_payload);
  if (error != FrameError::kNone) return error;
  if (view.consumed != data.size()) {
    // Trailing bytes (a duplicated or concatenated frame) mean the file
    // is not the single segment its writer produced.
    return FrameError::kBadCrc;
  }
  payload = view.payload;
  return FrameError::kNone;
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  if (error_ != FrameError::kNone) return;
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<std::vector<std::uint8_t>> FrameDecoder::next() {
  if (error_ != FrameError::kNone) return std::nullopt;
  FrameView view;
  const FrameError error = parse_frame(buffer_, view, max_payload_);
  if (error == FrameError::kTruncated) return std::nullopt;  // need bytes
  if (error != FrameError::kNone) {
    error_ = error;
    return std::nullopt;
  }
  std::vector<std::uint8_t> payload(view.payload.begin(), view.payload.end());
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(view.consumed));
  return payload;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

FrameStream::FrameStream(FrameStream&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      decoder_(std::move(other.decoder_)),
      outbound_(std::move(other.outbound_)),
      outbound_off_(std::exchange(other.outbound_off_, 0)) {}

FrameStream& FrameStream::operator=(FrameStream&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    decoder_ = std::move(other.decoder_);
    outbound_ = std::move(other.outbound_);
    outbound_off_ = std::exchange(other.outbound_off_, 0);
  }
  return *this;
}

int FrameStream::release() { return std::exchange(fd_, -1); }

void FrameStream::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void FrameStream::queue(std::span<const std::uint8_t> bytes) {
  outbound_.insert(outbound_.end(), bytes.begin(), bytes.end());
}

void FrameStream::discard_outbound() {
  outbound_.clear();
  outbound_off_ = 0;
}

FrameStream::Io FrameStream::flush() {
  while (flush_pending()) {
    const ssize_t n =
        ::send(fd_, outbound_.data() + outbound_off_,
               outbound_.size() - outbound_off_, MSG_NOSIGNAL);
    if (n > 0) {
      outbound_off_ += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return Io::kPending;
    } else {
      discard_outbound();
      return Io::kClosed;
    }
  }
  discard_outbound();
  return Io::kDone;
}

bool FrameStream::send_all(std::span<const std::uint8_t> bytes,
                           int stall_ms) {
  queue(bytes);
  for (;;) {
    switch (flush()) {
      case Io::kDone:
        return true;
      case Io::kClosed:
        return false;
      case Io::kPending:
        break;
    }
    pollfd pfd{fd_, POLLOUT, 0};
    const int rc = ::poll(&pfd, 1, stall_ms);
    if (rc == 0 || (rc < 0 && errno != EINTR)) return false;
  }
}

ssize_t FrameStream::recv_some() {
  std::uint8_t buffer[65536];
  ssize_t n;
  do {
    n = ::recv(fd_, buffer, sizeof buffer, 0);
  } while (n < 0 && errno == EINTR);
  if (n > 0) decoder_.feed(std::span(buffer, static_cast<std::size_t>(n)));
  return n;
}

bool FrameStream::fill() {
  for (;;) {
    const ssize_t n = recv_some();
    if (n > 0) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

std::optional<std::vector<std::uint8_t>> FrameStream::read() {
  for (;;) {
    if (auto payload = decoder_.next()) return payload;
    if (decoder_.error() != FrameError::kNone) return std::nullopt;
    const ssize_t n = recv_some();
    if (n > 0) continue;
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      return std::nullopt;
    }
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, -1) < 0 && errno != EINTR) return std::nullopt;
  }
}

}  // namespace originscan::net
