// The traced run's span recorder. Spans are opened and closed by the
// benchmark's own code around calls into the library's public
// functions — nothing inside src/ is instrumented.
//
// Two kinds of span:
//   * structural spans (passes, cells, layer calls) are kept in memory
//     as (name, start, end, parent) and written out as a Chrome trace;
//   * leaf spans (one ZGrab grab, one 256-target batch) are too many to
//     keep, so only their count and time are added to the layer totals
//     and to the enclosing span's child time.
// A layer's self time is its spans' time minus the time of the spans
// nested directly inside them. Single-threaded: open and close spans
// from one thread only.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util.h"

namespace perfbench {

class Tracer {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  Tracer();

  // Opens a structural span under the innermost open one.
  void begin(std::string_view name);
  // Closes the innermost open span; returns its duration in ns.
  std::int64_t end();

  // Adds one leaf span [start, end) under the innermost open span. Hot
  // loops look the name up once with id() and pass the id.
  [[nodiscard]] std::uint32_t id(std::string_view name) { return intern(name); }
  void leaf(std::uint32_t name, Clock::time_point start,
            Clock::time_point end);
  void leaf(std::string_view name, Clock::time_point start,
            Clock::time_point end) {
    leaf(id(name), start, end);
  }
  // What timing one leaf costs the enclosing span (two clock reads and
  // the bookkeeping), measured when the tracer is created. Callers that
  // time many leaves inside a span subtract count * leaf_cost_ns() from
  // that span's self time.
  [[nodiscard]] double leaf_cost_ns() const { return leaf_cost_ns_; }

  // Records a finished span with explicit times at the root, on its own
  // `lane` track: concurrent work (experiment cells on the lanes, daemon
  // requests on the connections) that no open span's self time excludes.
  void record(std::string_view name, Clock::time_point start,
              Clock::time_point end, int lane);

  [[nodiscard]] Totals totals_of(std::string_view name) const;
  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }

  // Chrome trace_event JSON ("X" events on one track, microseconds from
  // the tracer's creation); each event carries its self time and parent.
  [[nodiscard]] std::string chrome_trace_json() const;

 private:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = 0;  // index + 1 into spans_; 0 = root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_ns = 0;
    int lane = 0;  // Chrome trace tid - 1
  };

  std::uint32_t intern(std::string_view name);
  std::int64_t ns_of(Clock::time_point t) const;
  void close(Span& span);

  Clock::time_point origin_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> name_ids_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  // indices into spans_
  std::vector<Totals> totals_;       // by name id
  double leaf_cost_ns_ = 0;
};

// RAII span on a possibly-null tracer: a null tracer records nothing,
// which is how the untraced run shares the traced run's code.
class Scope {
 public:
  Scope(Tracer* tracer, std::string_view name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(name);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
