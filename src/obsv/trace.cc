#include "obsv/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "obsv/metrics.h"

namespace originscan::obsv {
namespace {

void append_args_json(std::string& out, const TraceArgs& args) {
  out += "{";
  bool first = true;
  for (const auto& [key, value] : args) {
    if (!first) out += ", ";
    first = false;
    out += "\"";
    append_json_escaped(out, key);
    out += "\": \"";
    append_json_escaped(out, value);
    out += "\"";
  }
  out += "}";
}

}  // namespace

void TraceRecorder::span(std::string_view track, std::string_view name,
                         net::VirtualTime start, net::VirtualTime end,
                         TraceArgs args) {
  std::scoped_lock lock(mutex_);
  events_.push_back(Event{std::string(track), std::string(name),
                          start.micros(), end.micros() - start.micros(),
                          /*is_instant=*/false, std::move(args)});
}

void TraceRecorder::instant(std::string_view track, std::string_view name,
                            net::VirtualTime at, TraceArgs args) {
  std::scoped_lock lock(mutex_);
  events_.push_back(Event{std::string(track), std::string(name), at.micros(),
                          0, /*is_instant=*/true, std::move(args)});
}

std::size_t TraceRecorder::event_count() const {
  std::scoped_lock lock(mutex_);
  return events_.size();
}

std::string TraceRecorder::chrome_trace_json() const {
  std::vector<Event> events;
  {
    std::scoped_lock lock(mutex_);
    events = events_;
  }
  // Deterministic order: events may have been recorded from any lane in
  // any interleaving; the export canonicalizes by sorting on stable keys
  // (args included, so identically named instants still order stably).
  auto sort_key = [](const Event& e) {
    std::string args_key;
    append_args_json(args_key, e.args);
    return std::tuple(e.track, e.start_us, e.name, e.dur_us, args_key);
  };
  std::stable_sort(events.begin(), events.end(),
                   [&](const Event& a, const Event& b) {
                     return sort_key(a) < sort_key(b);
                   });

  // Tracks become synthetic threads, tids assigned in sorted-name order.
  std::map<std::string, int> tids;
  for (const Event& e : events) tids.emplace(e.track, 0);
  int next_tid = 1;
  for (auto& [name, tid] : tids) tid = next_tid++;

  std::string out;
  out += "{\"traceEvents\": [\n";
  bool first = true;
  for (const auto& [track, tid] : tids) {
    if (!first) out += ",\n";
    first = false;
    out += "  {\"ph\": \"M\", \"pid\": 1, \"tid\": " + std::to_string(tid) +
           ", \"name\": \"thread_name\", \"args\": {\"name\": \"";
    append_json_escaped(out, track);
    out += "\"}}";
  }
  for (const Event& e : events) {
    if (!first) out += ",\n";
    first = false;
    out += "  {\"ph\": \"";
    out += e.is_instant ? "i" : "X";
    out += "\", \"pid\": 1, \"tid\": " + std::to_string(tids[e.track]);
    out += ", \"ts\": " + std::to_string(e.start_us);
    if (!e.is_instant) out += ", \"dur\": " + std::to_string(e.dur_us);
    out += ", \"name\": \"";
    append_json_escaped(out, e.name);
    if (e.is_instant) out += "\", \"s\": \"t";
    out += "\", \"args\": ";
    append_args_json(out, e.args);
    out += "}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

}  // namespace originscan::obsv
