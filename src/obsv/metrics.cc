#include "obsv/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "netbase/byteio.h"
#include "netbase/crc32.h"

namespace originscan::obsv {
namespace {

constexpr MetricInfo kMetricTable[] = {
#define OSN_X(symbol, name, unit, site) \
  {name, MetricKind::kCounter, unit, site},
    OSN_COUNTER_METRICS(OSN_X)
#undef OSN_X
#define OSN_X(symbol, name, unit, site) {name, MetricKind::kGauge, unit, site},
        OSN_GAUGE_METRICS(OSN_X)
#undef OSN_X
#define OSN_X(symbol, name, unit, site, ...) \
  {name, MetricKind::kHistogram, unit, site},
            OSN_HISTOGRAM_METRICS(OSN_X)
#undef OSN_X
};

struct HistogramDef {
  std::string_view name;
  std::vector<std::uint64_t> bounds;
};

const std::vector<HistogramDef>& histogram_defs() {
  static const std::vector<HistogramDef> defs = [] {
    std::vector<HistogramDef> out;
#define OSN_X(symbol, name, unit, site, ...) \
  out.push_back({name, std::vector<std::uint64_t>{__VA_ARGS__}});
    OSN_HISTOGRAM_METRICS(OSN_X)
#undef OSN_X
    return out;
  }();
  return defs;
}

// Slot offsets of each histogram within a MetricBlock, computed once.
// Histogram i occupies [offset, offset + bounds + 1 buckets + 1 sum).
const std::vector<int>& histogram_offsets() {
  static const std::vector<int> offsets = [] {
    std::vector<int> out;
    int next = kCounterCount + kGaugeCount;
    for (const auto& def : histogram_defs()) {
      out.push_back(next);
      next += static_cast<int>(def.bounds.size()) + 2;
    }
    out.push_back(next);  // sentinel: total slot count
    return out;
  }();
  return offsets;
}

// Wire form of a serialized block: magic, version, slot count, slots,
// CRC32 footer over everything before it.
constexpr std::uint32_t kBlockMagic = 0x4f534d42;  // "OSMB"
constexpr std::uint16_t kBlockVersion = 1;

}  // namespace

void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
}

std::span<const MetricInfo> all_metrics() { return kMetricTable; }

std::string_view counter_name(Counter c) {
  return kMetricTable[static_cast<int>(c)].name;
}

std::string_view gauge_name(Gauge g) {
  return kMetricTable[kCounterCount + static_cast<int>(g)].name;
}

std::string_view histogram_name(Histogram h) {
  return kMetricTable[kCounterCount + kGaugeCount + static_cast<int>(h)].name;
}

std::span<const std::uint64_t> histogram_bounds(Histogram h) {
  return histogram_defs()[static_cast<int>(h)].bounds;
}

namespace detail {

int histogram_slot_offset(int histogram_index) {
  return histogram_offsets()[histogram_index];
}

int total_slot_count() { return histogram_offsets()[kHistogramCount]; }

}  // namespace detail

MetricBlock::MetricBlock() : slots_(detail::total_slot_count(), 0) {}

void MetricBlock::gauge_max(Gauge g, std::uint64_t value) {
  auto& slot = slots_[kCounterCount + static_cast<int>(g)];
  slot = std::max(slot, value);
}

void MetricBlock::observe(Histogram h, std::uint64_t value) {
  const int index = static_cast<int>(h);
  const auto& bounds = histogram_defs()[index].bounds;
  const int offset = detail::histogram_slot_offset(index);
  std::size_t bucket = 0;
  while (bucket < bounds.size() && value > bounds[bucket]) ++bucket;
  slots_[offset + static_cast<int>(bucket)] += 1;
  slots_[offset + static_cast<int>(bounds.size()) + 1] += value;  // sum
}

std::span<const std::uint64_t> MetricBlock::histogram_buckets(
    Histogram h) const {
  const int index = static_cast<int>(h);
  const auto& bounds = histogram_defs()[index].bounds;
  return {slots_.data() + detail::histogram_slot_offset(index),
          bounds.size() + 1};
}

std::uint64_t MetricBlock::histogram_count(Histogram h) const {
  std::uint64_t total = 0;
  for (std::uint64_t bucket : histogram_buckets(h)) total += bucket;
  return total;
}

std::uint64_t MetricBlock::histogram_sum(Histogram h) const {
  const int index = static_cast<int>(h);
  const auto& bounds = histogram_defs()[index].bounds;
  return slots_[detail::histogram_slot_offset(index) +
                static_cast<int>(bounds.size()) + 1];
}

void MetricBlock::merge_from(const MetricBlock& other) {
  // Counters and every histogram slot (bucket counts + sums) add; gauges
  // take the max. Both operations are commutative and associative, which
  // is what makes merged totals independent of lane count and join order.
  for (int i = 0; i < kCounterCount; ++i) slots_[i] += other.slots_[i];
  for (int i = kCounterCount; i < kCounterCount + kGaugeCount; ++i) {
    slots_[i] = std::max(slots_[i], other.slots_[i]);
  }
  for (std::size_t i = kCounterCount + kGaugeCount; i < slots_.size(); ++i) {
    slots_[i] += other.slots_[i];
  }
}

bool MetricBlock::empty() const {
  return std::all_of(slots_.begin(), slots_.end(),
                     [](std::uint64_t v) { return v == 0; });
}

std::vector<std::uint8_t> MetricBlock::serialize() const {
  std::vector<std::uint8_t> bytes;
  net::ByteWriter writer(bytes);
  writer.u32(kBlockMagic);
  writer.u16(kBlockVersion);
  writer.u32(static_cast<std::uint32_t>(slots_.size()));
  for (std::uint64_t slot : slots_) writer.u64(slot);
  writer.u32(net::crc32(bytes));  // footer CRC over everything above
  return bytes;
}

std::optional<MetricBlock> MetricBlock::parse(
    std::span<const std::uint8_t> data) {
  constexpr std::size_t kHeader = 4 + 2 + 4;
  if (data.size() < kHeader + 4) return std::nullopt;
  const std::size_t body = data.size() - 4;
  net::ByteReader footer(data.subspan(body));
  const std::uint32_t want_crc = footer.u32();
  if (net::crc32(data.first(body)) != want_crc) return std::nullopt;
  net::ByteReader reader(data.first(body));
  if (reader.u32() != kBlockMagic) return std::nullopt;
  if (reader.u16() != kBlockVersion) return std::nullopt;
  const std::uint32_t slot_count = reader.u32();
  // A block written by a build with a different metric table cannot be
  // attributed to today's slots; reject instead of guessing.
  if (slot_count != static_cast<std::uint32_t>(detail::total_slot_count())) {
    return std::nullopt;
  }
  if (body != kHeader + slot_count * 8ull) return std::nullopt;
  MetricBlock block;
  for (std::uint32_t i = 0; i < slot_count; ++i) block.slots_[i] = reader.u64();
  if (!reader.ok()) return std::nullopt;
  return block;
}

std::string snapshot_json(const MetricBlock& block) {
  std::string out;
  out += "{\n  \"schema\": \"originscan.metrics.v1\",\n  \"metrics\": {\n";
  bool first = true;
  auto emit_key = [&](std::string_view name) {
    if (!first) out += ",\n";
    first = false;
    out += "    \"";
    append_json_escaped(out, name);
    out += "\": ";
  };
#define OSN_X(symbol, name, unit, site)                \
  emit_key(name);                                      \
  out += std::to_string(block.counter(Counter::symbol));
  OSN_COUNTER_METRICS(OSN_X)
#undef OSN_X
#define OSN_X(symbol, name, unit, site)              \
  emit_key(name);                                    \
  out += std::to_string(block.gauge(Gauge::symbol));
  OSN_GAUGE_METRICS(OSN_X)
#undef OSN_X
  for (int i = 0; i < kHistogramCount; ++i) {
    const auto h = static_cast<Histogram>(i);
    emit_key(histogram_name(h));
    out += "{\"bounds\": [";
    bool inner_first = true;
    for (std::uint64_t bound : histogram_bounds(h)) {
      if (!inner_first) out += ", ";
      inner_first = false;
      out += std::to_string(bound);
    }
    out += "], \"counts\": [";
    inner_first = true;
    for (std::uint64_t count : block.histogram_buckets(h)) {
      if (!inner_first) out += ", ";
      inner_first = false;
      out += std::to_string(count);
    }
    out += "], \"sum\": " + std::to_string(block.histogram_sum(h));
    out += ", \"count\": " + std::to_string(block.histogram_count(h)) + "}";
  }
  out += "\n  }\n}\n";
  return out;
}

}  // namespace originscan::obsv
