// Length-prefixed, CRC32-framed byte containers — the one framing
// implementation shared by the journal's sidecar segments (core/journal),
// the dist master/worker protocol (core/dist) and the daemon protocol
// (service/wire), plus FrameStream, the one socket transport that every
// peer of the two wire protocols (dist master and worker, the daemon,
// its client, the loadgen) sends and receives through.
//
// Wire form of one frame:
//
//   u32 length     payload byte count (big-endian, like all of byteio)
//   ...payload...  `length` bytes
//   u32 crc32      CRC-32 over the payload bytes only
//
// Two consumption modes share the parser:
//
//   * Files (journal segments): the frame must account for the whole
//     buffer. A declared length that exceeds the remaining bytes is
//     rejected as kTruncated — the reader never trusts the prefix and
//     over-reads past the end of the file.
//   * Streams (sockets): FrameDecoder accumulates bytes and yields
//     complete frames. A short buffer just means "feed more", but a
//     declared length above the decoder's payload cap is a fatal
//     kOversized — a hostile or corrupt peer must not make the decoder
//     buffer gigabytes before the CRC can catch it.
//
// Every failure is classified (FrameError), never a crash: the fuzz
// suite (tests/fuzz_test.cc) drives truncated, bit-flipped, oversized-
// length, and duplicated frames through both modes.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace originscan::net {

// One {doc-name, wire-value} row of a framed protocol's symbol table,
// in definition order. core/dist and service/wire expose their message,
// segment, error and state tables as these rows, and
// tools/protocol_doc_check checks docs/PROTOCOL.md against them.
struct ProtocolSymbol {
  std::string_view name;
  unsigned value;
};

enum class FrameError {
  kNone = 0,
  kTruncated,   // buffer ends before the declared payload + CRC
  kOversized,   // declared length exceeds the caller's payload cap
  kBadCrc,      // payload present but its CRC footer does not match
};

[[nodiscard]] std::string_view frame_error_name(FrameError error);

// Default payload cap. Generous for every real segment (a full cell's
// store segment is a few MiB at paper scale) while keeping a corrupt
// length field from turning into a multi-gigabyte allocation.
inline constexpr std::size_t kMaxFramePayload = 64u << 20;

// Appends one frame wrapping `payload` to `out`.
void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload);

// Convenience: a fresh buffer holding exactly one frame.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    std::span<const std::uint8_t> payload);

struct FrameView {
  std::span<const std::uint8_t> payload;
  std::size_t consumed = 0;  // total bytes the frame occupied in `data`
};

// Parses the frame at the start of `data`. On kNone, `out` views the
// payload inside `data` (no copy) and `consumed` covers header + payload
// + CRC. kTruncated means `data` ends before the declared frame does —
// for a file that is corruption, for a stream it means "need more
// bytes". kOversized and kBadCrc are fatal in both modes.
[[nodiscard]] FrameError parse_frame(std::span<const std::uint8_t> data,
                                     FrameView& out,
                                     std::size_t max_payload =
                                         kMaxFramePayload);

// Parses a file-shaped buffer that must hold exactly one frame: trailing
// bytes after the frame (e.g. a duplicated frame appended to a segment)
// are rejected as kBadCrc-class corruption via the returned error.
[[nodiscard]] FrameError parse_single_frame(
    std::span<const std::uint8_t> data,
    std::span<const std::uint8_t>& payload,
    std::size_t max_payload = kMaxFramePayload);

// Incremental decoder for stream transports. Feed bytes as they arrive;
// next() yields complete frame payloads in order. Once a fatal error is
// observed (kOversized, kBadCrc) the stream is poisoned: next() returns
// nullopt forever and error() reports the classification — the caller
// must drop the connection, there is no resynchronization.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  void feed(std::span<const std::uint8_t> bytes);

  // One complete frame payload, or nullopt when more bytes are needed
  // (error() == kNone) or the stream is poisoned (error() != kNone).
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> next();

  [[nodiscard]] FrameError error() const { return error_; }
  // Bytes buffered but not yet consumed by a complete frame. A nonzero
  // value at EOF means the peer died mid-frame (a torn write).
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

 private:
  std::size_t max_payload_;
  std::vector<std::uint8_t> buffer_;
  FrameError error_ = FrameError::kNone;
};

// Sets O_NONBLOCK on `fd`; false when fcntl fails.
bool set_nonblocking(int fd);

// A connected stream socket carrying frames: the fd (owned, closed on
// destruction), a FrameDecoder for what arrives and a queue for what is
// still to be sent. Sends use MSG_NOSIGNAL, so a dead peer surfaces as
// kClosed or false, never as a process-wide SIGPIPE. Both the
// nonblocking calls (an event loop's queue/flush and fill/next) and the
// blocking ones (send_all, read) work on one stream.
class FrameStream {
 public:
  enum class Io {
    kDone,     // flush: every queued byte is on the wire
    kPending,  // flush: the socket is full; poll for POLLOUT and retry
    kClosed,   // flush: the peer is gone and the queue was dropped
  };

  FrameStream() = default;
  explicit FrameStream(int fd) : fd_(fd) {}
  ~FrameStream() { close(); }
  FrameStream(FrameStream&& other) noexcept;
  FrameStream& operator=(FrameStream&& other) noexcept;
  FrameStream(const FrameStream&) = delete;
  FrameStream& operator=(const FrameStream&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  // Gives up the fd without closing it; the stream is empty after.
  int release();
  void close();

  // ---- outbound
  // Appends bytes (whole frames) to the send queue; nothing is sent.
  void queue(std::span<const std::uint8_t> bytes);
  // Sends queued bytes until the queue is empty or the socket would block.
  Io flush();
  // Queues `bytes` and sends the whole queue, parking in poll() whenever
  // the socket is full, so it works on a blocking or nonblocking fd.
  // false once the peer is gone, or when `stall_ms` (>= 0) passes with
  // no byte accepted.
  bool send_all(std::span<const std::uint8_t> bytes, int stall_ms = -1);
  [[nodiscard]] bool flush_pending() const {
    return outbound_off_ < outbound_.size();
  }
  // Drops every unsent byte (the peer will never read them).
  void discard_outbound();

  // ---- inbound
  // Receives until the socket would block (needs a nonblocking fd) and
  // feeds the decoder. false once the peer has hung up or the read
  // failed; the frames that arrived before still wait in next().
  bool fill();
  // Blocks for the next frame payload, parking in poll() when a
  // nonblocking socket has nothing yet. nullopt on EOF, a read error or
  // a poisoned decoder (then error() != kNone).
  std::optional<std::vector<std::uint8_t>> read();
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> next() {
    return decoder_.next();
  }
  [[nodiscard]] FrameError error() const { return decoder_.error(); }
  [[nodiscard]] std::size_t buffered() const { return decoder_.buffered(); }

 private:
  // One recv into the decoder: >0 bytes read, 0 EOF, <0 errno set.
  ssize_t recv_some();

  int fd_ = -1;
  FrameDecoder decoder_;
  std::vector<std::uint8_t> outbound_;
  std::size_t outbound_off_ = 0;
};

}  // namespace originscan::net
