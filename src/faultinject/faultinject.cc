#include "faultinject/faultinject.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <charconv>
#include <iterator>

#include "netbase/rng.h"

namespace originscan::fault {
namespace {

struct PointRow {
  Point point;
  std::string_view name;
  std::string_view keyword;
  std::uint32_t keys;
  std::uint32_t required;
  bool recoverable;
  std::uint64_t salt;
  Consumer consumer;
  bool kill_class;
};

constexpr PointRow kRows[] = {
#define OSN_X(symbol, name, keyword, keys, required, recoverable, salt, \
              consumer, kill_class)                                    \
  {Point::symbol, name, keyword, keys, required, recoverable, salt,     \
   Consumer::consumer, kill_class},
    OSN_FAULT_POINTS(OSN_X)
#undef OSN_X
};

constexpr Point kAllPoints[] = {
#define OSN_X(symbol, ...) Point::symbol,
    OSN_FAULT_POINTS(OSN_X)
#undef OSN_X
};

constexpr const PointRow& row_of(Point point) {
  return kRows[static_cast<int>(point)];
}

// Each key's name and the form of its value, in the order to_string()
// writes them. The window keys and cell_hang's stall share "sec"; no
// row takes both.
struct KeyInfo {
  std::uint32_t key;
  std::string_view name;
  std::string_view form;
};

constexpr KeyInfo kKeys[] = {
    {key::kSlot, "slot", "A..B"},
    {key::kSec, "sec", "A..B"},
    {key::kHost, "host", "M==K with K < M"},
    {key::kCell, "cell", "N"},
    {key::kHangSec, "sec", "S > 0"},
    {key::kWorker, "worker", "N in 0..255"},
    {key::kPhase, "phase", "hello|claim|segment|done"},
    {key::kFile, "file", "N"},
    {key::kFrame, "frame", "N"},
    {key::kBytes, "bytes", "N"},
    {key::kAttempts, "attempts", "N in 1..16"},
    {key::kCount, "count", "C in 1..64"},
    {key::kP, "p", "P in [0, 1]"},
    {key::kOrigin, "origin", "K in 0..255"},
};

// host%M==K is the one key written without '='.
constexpr char separator(std::uint32_t key) {
  return key == key::kHost ? '%' : '=';
}

constexpr bool registry_is_consistent() {
  std::uint32_t all_keys = 0;
  for (const KeyInfo& info : kKeys) all_keys |= info.key;
  for (int i = 0; i < kPointCount; ++i) {
    const PointRow& row = kRows[i];
    if ((row.keys & ~all_keys) != 0 || (row.required & ~row.keys) != 0) {
      return false;
    }
    if ((row.keys & key::kSec) != 0 && (row.keys & key::kHangSec) != 0) {
      return false;
    }
    for (int j = 0; j < i; ++j) {
      if (kRows[j].name == row.name || kRows[j].keyword == row.keyword ||
          kRows[j].salt == row.salt) {
        return false;
      }
    }
  }
  return true;
}
static_assert(registry_is_consistent(),
              "OSN_FAULT_POINTS: a key missing from kKeys, a required key "
              "the row does not take, both sec keys in one row, or a "
              "repeated name, keyword or salt");

double hash01(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

constexpr std::string_view kPhaseNames[] = {"hello", "claim", "segment",
                                            "done"};

std::optional<WorkerPhase> worker_phase_from(std::string_view name) {
  const auto* found =
      std::find(std::begin(kPhaseNames), std::end(kPhaseNames), name);
  if (found == std::end(kPhaseNames)) return std::nullopt;
  return static_cast<WorkerPhase>(found - std::begin(kPhaseNames));
}

bool set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

// Parses a u64 of at most 20 digits, rejecting empty fields, junk, and
// overflow ("overflow slots must error, never crash").
bool parse_u64(std::string_view text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || text.size() > 20) return false;
  out = value;
  return true;
}

// A u64 in [lo, hi], stored into an int field.
bool parse_int(std::string_view text, std::uint64_t lo, std::uint64_t hi,
               int& out) {
  std::uint64_t value = 0;
  if (!parse_u64(text, value) || value < lo || value > hi) return false;
  out = static_cast<int>(value);
  return true;
}

// A probability in [0, 1], in std::from_chars' grammar: no leading
// space or sign, no hex, the same as every integer key.
bool parse_double01(std::string_view text, double& out) {
  if (text.size() > 24) return false;
  const char* end = text.data() + text.size();
  double value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  if (!(value >= 0.0 && value <= 1.0)) return false;
  out = value;
  return true;
}

// "A..B" (inclusive); single value "A" means A..A.
bool parse_range(std::string_view text, std::uint64_t& lo,
                 std::uint64_t& hi) {
  const std::size_t dots = text.find("..");
  if (dots == std::string_view::npos) {
    if (!parse_u64(text, lo)) return false;
    hi = lo;
    return true;
  }
  if (!parse_u64(text.substr(0, dots), lo)) return false;
  if (!parse_u64(text.substr(dots + 2), hi)) return false;
  return lo <= hi;
}

// "M==K" (the text after host%).
bool parse_host_selector(std::string_view text, FaultClause& clause) {
  const std::size_t eq = text.find("==");
  if (eq == std::string_view::npos) return false;
  std::uint64_t mod = 0;
  std::uint64_t rem = 0;
  if (!parse_u64(text.substr(0, eq), mod)) return false;
  if (!parse_u64(text.substr(eq + 2), rem)) return false;
  if (mod == 0 || mod > 0xFFFFFFFFULL) return false;
  if (rem >= mod) return false;
  clause.mod = static_cast<std::uint32_t>(mod);
  clause.rem = static_cast<std::uint32_t>(rem);
  return true;
}

// The one validator per key: parses `value` into the clause field `key`
// sets, false when it is malformed or out of range.
bool parse_value(std::uint32_t key, std::string_view value,
                 FaultClause& clause) {
  switch (key) {
    case key::kSlot:
    case key::kSec:
      clause.unit = key == key::kSlot ? FaultClause::Unit::kSlot
                                      : FaultClause::Unit::kSeconds;
      return parse_range(value, clause.lo, clause.hi);
    case key::kHost:
      return parse_host_selector(value, clause);
    case key::kCell:
      return parse_u64(value, clause.cell);
    case key::kHangSec:
      return parse_u64(value, clause.hang_seconds) && clause.hang_seconds > 0;
    case key::kWorker:
      return parse_int(value, 0, 255, clause.worker);
    case key::kPhase: {
      const auto phase = worker_phase_from(value);
      if (phase.has_value()) clause.phase = static_cast<int>(*phase);
      return phase.has_value();
    }
    case key::kFile:
    case key::kFrame:
      return parse_u64(value, clause.write_index);
    case key::kBytes:
      return parse_u64(value, clause.bytes);
    case key::kAttempts:
      return parse_int(value, 1, 16, clause.attempts);
    case key::kCount:
      return parse_u64(value, clause.count) && clause.count >= 1 &&
             clause.count <= 64;
    case key::kP:
      return parse_double01(value, clause.p);
    case key::kOrigin:
      return parse_int(value, 0, 255, clause.origin);
  }
  return false;
}

// The value text to_string() writes for `key`. p takes its shortest
// form that parses back to the same double.
std::string value_text(std::uint32_t key, const FaultClause& clause) {
  switch (key) {
    case key::kSlot:
    case key::kSec:
      return std::to_string(clause.lo) + ".." + std::to_string(clause.hi);
    case key::kHost:
      return std::to_string(clause.mod) + "==" + std::to_string(clause.rem);
    case key::kCell:
      return std::to_string(clause.cell);
    case key::kHangSec:
      return std::to_string(clause.hang_seconds);
    case key::kWorker:
      return std::to_string(clause.worker);
    case key::kPhase:
      return std::string(
          worker_phase_name(static_cast<WorkerPhase>(clause.phase)));
    case key::kFile:
    case key::kFrame:
      return std::to_string(clause.write_index);
    case key::kBytes:
      return std::to_string(clause.bytes);
    case key::kAttempts:
      return std::to_string(clause.attempts);
    case key::kCount:
      return std::to_string(clause.count);
    case key::kP: {
      char buffer[32];
      const auto end = std::to_chars(buffer, buffer + sizeof(buffer), clause.p,
                                     std::chars_format::general)
                           .ptr;
      return std::string(buffer, end);
    }
    case key::kOrigin:
      return std::to_string(clause.origin);
  }
  return "";
}

// Whether to_string() writes `key`: the window unit picks slot= or sec=,
// origin= shows only when set, and a worker= clause hides the keys of
// the cell= form (and the other way round).
bool rendered(std::uint32_t key, const FaultClause& clause) {
  switch (key) {
    case key::kSlot:
      return clause.unit == FaultClause::Unit::kSlot;
    case key::kSec:
      return clause.unit == FaultClause::Unit::kSeconds;
    case key::kOrigin:
      return clause.origin >= 0;
    case key::kWorker:
      return clause.worker >= 0;
    case key::kCell:
    case key::kPhase:
    case key::kAttempts:
      return clause.worker < 0;
    default:
      return true;
  }
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  while (true) {
    const std::size_t pos = text.find(sep);
    if (pos == std::string_view::npos) {
      out.push_back(text);
      return out;
    }
    out.push_back(text.substr(0, pos));
    text.remove_prefix(pos + 1);
  }
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(
                              text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

// The key among `keys` called `name`, or 0.
std::uint32_t key_named(std::uint32_t keys, std::string_view name) {
  for (const KeyInfo& info : kKeys) {
    if ((keys & info.key) != 0 && info.name == name) return info.key;
  }
  return 0;
}

// The keys in `keys` as a spec writes them, e.g. "slot=A..B, sec=A..B".
std::string key_forms(std::uint32_t keys) {
  std::string out;
  for (const KeyInfo& info : kKeys) {
    if ((keys & info.key) == 0) continue;
    if (!out.empty()) out += ", ";
    out += std::string(info.name) + separator(info.key) +
           std::string(info.form);
  }
  return out;
}

// Parses one trimmed clause: "keyword[:key=value,...]".
bool parse_clause(std::string_view text, FaultClause& clause,
                  std::string* error) {
  if (text.empty()) return set_error(error, "empty clause in fault spec");
  const std::size_t colon = text.find(':');
  const std::string keyword(trim(text.substr(0, colon)));
  const PointRow* row =
      std::find_if(std::begin(kRows), std::end(kRows),
                   [&](const PointRow& r) { return r.keyword == keyword; });
  if (row == std::end(kRows)) {
    return set_error(error, "unknown fault clause: " + keyword);
  }
  clause.point = row->point;

  std::uint32_t seen = 0;
  if (colon != std::string_view::npos) {
    for (std::string_view raw : split(text.substr(colon + 1), ',')) {
      const std::string_view arg = trim(raw);
      const std::size_t cut = arg.starts_with("host%") ? 4 : arg.find('=');
      const std::uint32_t key = cut == std::string_view::npos
                                    ? 0
                                    : key_named(row->keys, arg.substr(0, cut));
      if (key == 0) {
        return set_error(error, keyword + " takes no argument " +
                                    std::string(arg));
      }
      if ((seen & key) != 0) {
        return set_error(error, keyword + " repeats " + std::string(arg));
      }
      const std::string_view value = arg.substr(cut + 1);
      if (!parse_value(key, value, clause)) {
        // Only the window keys take a range.
        const bool range = (key & (key::kSlot | key::kSec)) == 0 &&
                           value.find("..") != std::string_view::npos;
        return set_error(error, "bad " + std::string(arg) +
                                    (range ? ", one value wanted" : "") +
                                    " (want " + key_forms(key) + ")");
      }
      seen |= key;
    }
  }
  if (const std::uint32_t missing = row->required & ~seen; missing != 0) {
    return set_error(error, keyword + " needs " + key_forms(missing));
  }
  // The two alternative pairs: a row that takes both keys of a pair
  // needs exactly one of them.
  for (const std::uint32_t pair :
       {key::kSlot | key::kSec, key::kWorker | key::kCell}) {
    if ((row->keys & pair) == pair && std::popcount(seen & pair) != 1) {
      return set_error(error,
                       keyword + " needs exactly one of " + key_forms(pair));
    }
  }
  // A worker= clause fires before HELLO; a cell= clause at a later phase.
  if ((row->keys & key::kPhase) != 0) {
    const bool hello = clause.phase == static_cast<int>(WorkerPhase::kHello);
    if (clause.worker >= 0 && !hello) {
      return set_error(error, "worker= clauses fire pre-HELLO only");
    }
    if (clause.worker >= 0 && (seen & key::kAttempts) != 0) {
      return set_error(error, "worker= clauses fire once; attempts= counts "
                              "the grants of a cell= clause");
    }
    if (clause.worker < 0 && ((seen & key::kPhase) == 0 || hello)) {
      return set_error(error, "cell= clauses need phase=claim|segment|done");
    }
  }
  return true;
}

}  // namespace

std::string_view point_name(Point point) { return row_of(point).name; }

std::string_view worker_phase_name(WorkerPhase phase) {
  const auto index = static_cast<std::size_t>(phase);
  return index < std::size(kPhaseNames) ? kPhaseNames[index] : "?";
}

std::span<const Point> all_points() { return kAllPoints; }

Consumer consumer(Point point) { return row_of(point).consumer; }

bool kill_class(Point point) { return row_of(point).kill_class; }

bool FaultClause::recoverable() const { return row_of(point).recoverable; }

std::string FaultClause::to_string() const {
  const PointRow& row = row_of(point);
  std::string out(row.keyword);
  char sep = ':';
  for (const KeyInfo& info : kKeys) {
    if ((row.keys & info.key) == 0 || !rendered(info.key, *this)) continue;
    out += sep;
    out += info.name;
    out += separator(info.key);
    out += value_text(info.key, *this);
    sep = ',';
  }
  return out;
}

std::optional<FaultPlan> FaultPlan::parse(std::string_view spec,
                                          std::string* error) {
  FaultPlan plan;
  if (trim(spec).empty()) {
    set_error(error, "empty fault spec");
    return std::nullopt;
  }
  for (std::string_view raw_clause : split(spec, ';')) {
    FaultClause clause;
    if (!parse_clause(trim(raw_clause), clause, error)) return std::nullopt;
    plan.clauses_.push_back(clause);
  }
  return plan;
}

bool FaultPlan::recoverable() const {
  return std::all_of(clauses_.begin(), clauses_.end(),
                     [](const FaultClause& c) { return c.recoverable(); });
}

int FaultPlan::min_l7_retries() const {
  int retries = 0;
  for (const FaultClause& clause : clauses_) {
    if ((row_of(clause.point).keys & key::kHost) != 0) {
      retries = std::max(retries, clause.attempts);
    }
  }
  return retries;
}

bool FaultPlan::needs_banner_retry() const {
  return std::any_of(clauses_.begin(), clauses_.end(),
                     [](const FaultClause& c) {
                       return c.point == Point::kBannerTruncate ||
                              c.point == Point::kBannerStall;
                     });
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const FaultClause& clause : clauses_) {
    if (!out.empty()) out += ';';
    out += clause.to_string();
  }
  return out;
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)), seed_(seed) {}

template <typename Match>
const FaultClause* FaultInjector::first_hit(Point point, Match match) const {
  for (const FaultClause& clause : plan_.clauses()) {
    if (clause.point == point && match(clause)) {
      record(point);
      return &clause;
    }
  }
  return nullptr;
}

bool FaultInjector::window_fires(Point point, FaultClause::Unit unit,
                                 std::uint64_t value,
                                 std::uint64_t stream) const {
  return first_hit(point, [&](const FaultClause& clause) {
           return clause.unit == unit && value >= clause.lo &&
                  value <= clause.hi &&
                  (clause.p >= 1.0 ||
                   hash01(net::mix_u64(seed_, stream, value,
                                       row_of(point).salt)) < clause.p);
         }) != nullptr;
}

bool FaultInjector::drop_at_slot(std::uint64_t slot,
                                 net::Ipv4Addr dst) const {
  return window_fires(Point::kProbeDrop, FaultClause::Unit::kSlot, slot,
                      dst.value());
}

int FaultInjector::send_failures(std::uint64_t slot,
                                 net::Ipv4Addr dst) const {
  if (!window_fires(Point::kSendFail, FaultClause::Unit::kSlot, slot,
                    dst.value())) {
    return 0;
  }
  // 1 or 2 consecutive EAGAINs, deterministic per (seed, slot) — always
  // below the scanner's retry cap, so the send recovers.
  return 1 + static_cast<int>(net::mix_u64(seed_, slot, dst.value(), 0x5E4Du) %
                              2);
}

bool FaultInjector::corrupt_response(std::uint64_t slot,
                                     net::Ipv4Addr dst) const {
  return window_fires(Point::kMacCorrupt, FaultClause::Unit::kSlot, slot,
                      dst.value());
}

bool FaultInjector::drop_at_time(net::VirtualTime t, net::Ipv4Addr dst,
                                 int probe_index) const {
  const auto second = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, t.micros() / 1'000'000));
  return window_fires(
      Point::kProbeDrop, FaultClause::Unit::kSeconds, second,
      net::mix_u64(dst.value(), static_cast<std::uint64_t>(probe_index)));
}

bool FaultInjector::outage_at(net::VirtualTime t, int origin) const {
  const auto second = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, t.micros() / 1'000'000));
  return first_hit(Point::kOutage, [&](const FaultClause& clause) {
           return (clause.origin < 0 || clause.origin == origin) &&
                  second >= clause.lo && second <= clause.hi;
         }) != nullptr;
}

FaultInjector::L7Fault FaultInjector::l7_fault(net::Ipv4Addr dst,
                                               int attempt) const {
  for (const FaultClause& clause : plan_.clauses()) {
    L7Fault kind = L7Fault::kNone;
    switch (clause.point) {
      case Point::kConnectRst:
        kind = L7Fault::kRst;
        break;
      case Point::kBannerTruncate:
        kind = L7Fault::kTruncate;
        break;
      case Point::kBannerStall:
        kind = L7Fault::kStall;
        break;
      default:
        continue;
    }
    if (clause.mod == 0 || dst.value() % clause.mod != clause.rem) continue;
    if (attempt >= clause.attempts) continue;
    if (clause.p < 1.0 &&
        hash01(net::mix_u64(seed_, dst.value(),
                            static_cast<std::uint64_t>(attempt),
                            row_of(clause.point).salt)) >= clause.p) {
      continue;
    }
    record(clause.point);
    return kind;
  }
  return L7Fault::kNone;
}

bool FaultInjector::cell_crash(std::uint64_t cell_index) const {
  return first_hit(Point::kCellCrash, [&](const FaultClause& clause) {
           return clause.cell == cell_index;
         }) != nullptr;
}

std::uint64_t FaultInjector::cell_hang_seconds(std::uint64_t cell_index,
                                               int attempt) const {
  const FaultClause* hang =
      first_hit(Point::kCellHang, [&](const FaultClause& clause) {
        return clause.cell == cell_index && attempt < clause.attempts;
      });
  return hang == nullptr ? 0 : hang->hang_seconds;
}

bool FaultInjector::worker_fault(Point point, int worker, WorkerPhase phase,
                                 std::uint64_t cell, int grant) const {
  return first_hit(point, [&](const FaultClause& clause) {
           if (clause.phase != static_cast<int>(phase)) return false;
           // Pre-HELLO clauses are keyed by worker index: the process has
           // not claimed anything yet, so a cell key would be meaningless.
           if (phase == WorkerPhase::kHello) return clause.worker == worker;
           // Cell-keyed clauses fire on the first `attempts` grants of the
           // cell's chain, regardless of which worker drew the grant —
           // that keeps kill matrices deterministic under any chain
           // assignment.
           return clause.worker < 0 && clause.cell == cell &&
                  grant < clause.attempts;
         }) != nullptr;
}

bool FaultInjector::worker_kill(int worker, WorkerPhase phase,
                                std::uint64_t cell, int grant) const {
  return worker_fault(Point::kWorkerKill, worker, phase, cell, grant);
}

bool FaultInjector::worker_stall(int worker, WorkerPhase phase,
                                 std::uint64_t cell, int grant) const {
  return worker_fault(Point::kWorkerStall, worker, phase, cell, grant);
}

bool FaultInjector::enospc(std::uint64_t bytes_written) const {
  return first_hit(Point::kEnospc, [&](const FaultClause& clause) {
           return bytes_written >= clause.bytes;
         }) != nullptr;
}

bool FaultInjector::segment_corrupt(std::uint64_t file_index) const {
  return first_hit(Point::kSegmentCorrupt, [&](const FaultClause& clause) {
           return file_index >= clause.write_index &&
                  file_index < clause.write_index + clause.count;
         }) != nullptr;
}

std::uint64_t FaultInjector::corrupt_offset(std::uint64_t file_index,
                                            std::uint64_t file_size) const {
  if (file_size == 0) return 0;
  return net::mix_u64(seed_, file_index, file_size,
                      row_of(Point::kSegmentCorrupt).salt) %
         file_size;
}

bool FaultInjector::frame_garble(int worker,
                                 std::uint64_t frame_index) const {
  return first_hit(Point::kFrameGarble, [&](const FaultClause& clause) {
           return clause.worker == worker &&
                  frame_index >= clause.write_index &&
                  frame_index < clause.write_index + clause.count;
         }) != nullptr;
}

std::uint64_t FaultInjector::garble_offset(int worker,
                                           std::uint64_t frame_index,
                                           std::uint64_t frame_size) const {
  if (frame_size == 0) return 0;
  return net::mix_u64(seed_, static_cast<std::uint64_t>(worker), frame_index,
                      row_of(Point::kFrameGarble).salt) %
         frame_size;
}

std::uint64_t FaultInjector::total_hits() const {
  std::uint64_t total = 0;
  for (const auto& counter : hits_) {
    total += counter.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace originscan::fault
