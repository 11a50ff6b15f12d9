#include "trace.h"

#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

Tracer::Tracer() : origin_(Clock::now()) {
  // Calibrate: the cost of timing one leaf, as a hot loop pays it.
  constexpr int kRounds = 20000;
  const std::uint32_t probe = id("tracer.calibration");
  begin("tracer.calibrate");
  const auto t0 = Clock::now();
  for (int i = 0; i < kRounds; ++i) {
    const auto start = Clock::now();
    leaf(probe, start, Clock::now());
  }
  const auto t1 = Clock::now();
  end();
  leaf_cost_ns_ = static_cast<double>(ns_of(t1) - ns_of(t0)) / kRounds;
}

std::uint32_t Tracer::intern(std::string_view name) {
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(std::string(name), id);
  totals_.emplace_back();
  return id;
}

std::int64_t Tracer::ns_of(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

void Tracer::begin(std::string_view name) {
  Span span;
  span.name = intern(name);
  span.parent = open_.empty() ? 0 : open_.back() + 1;
  span.start_ns = ns_of(Clock::now());
  open_.push_back(static_cast<std::uint32_t>(spans_.size()));
  spans_.push_back(span);
}

void Tracer::close(Span& span) {
  const std::int64_t duration = span.end_ns - span.start_ns;
  Totals& totals = totals_[span.name];
  ++totals.calls;
  totals.total_ns += duration;
  totals.self_ns += duration - span.child_ns;
  if (span.parent != 0) spans_[span.parent - 1].child_ns += duration;
}

std::int64_t Tracer::end() {
  if (open_.empty()) throw std::logic_error("Tracer::end without begin");
  Span& span = spans_[open_.back()];
  open_.pop_back();
  span.end_ns = ns_of(Clock::now());
  close(span);
  return span.end_ns - span.start_ns;
}

void Tracer::leaf(std::uint32_t name, Clock::time_point start,
                  Clock::time_point end) {
  const std::int64_t duration = ns_of(end) - ns_of(start);
  Totals& totals = totals_[name];
  ++totals.calls;
  totals.total_ns += duration;
  totals.self_ns += duration;
  if (!open_.empty()) spans_[open_.back()].child_ns += duration;
}

void Tracer::record(std::string_view name, Clock::time_point start,
                    Clock::time_point end, int lane) {
  Span span;
  span.name = intern(name);
  span.lane = lane + 1;
  span.start_ns = ns_of(start);
  span.end_ns = ns_of(end);
  spans_.push_back(span);
  close(spans_.back());
}

Tracer::Totals Tracer::totals_of(std::string_view name) const {
  const auto it = name_ids_.find(name);
  return it == name_ids_.end() ? Totals{} : totals_[it->second];
}

std::string Tracer::chrome_trace_json() const {
  std::string out = "{\"traceEvents\": [\n";
  char buffer[160];
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < span.start_ns) continue;  // still open
    std::snprintf(buffer, sizeof buffer,
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                  "\"dur\": %.3f, ",
                  span.lane + 1, static_cast<double>(span.start_ns) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    out += first ? "{" : ",\n{";
    first = false;
    out += "\"name\": \"" + json_escape(names_[span.name]) + "\", ";
    out += buffer;
    std::snprintf(buffer, sizeof buffer,
                  "\"args\": {\"id\": %zu, \"parent\": %u, \"self_us\": %.3f}}",
                  i + 1, span.parent,
                  static_cast<double>(span.end_ns - span.start_ns -
                                      span.child_ns) /
                      1e3);
    out += buffer;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
