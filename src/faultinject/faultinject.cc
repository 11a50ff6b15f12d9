#include "faultinject/faultinject.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

#include "netbase/rng.h"

namespace originscan::fault {
namespace {

constexpr Point kAllPoints[kPointCount] = {
    Point::kProbeDrop,      Point::kOutage,      Point::kSendFail,
    Point::kMacCorrupt,     Point::kConnectRst,  Point::kBannerTruncate,
    Point::kBannerStall,    Point::kCellCrash,   Point::kCellHang,
    Point::kWorkerKill,     Point::kWorkerStall, Point::kEnospc,
    Point::kSegmentCorrupt, Point::kFrameGarble,
};

double hash01(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Per-point salts for the fault decision hashes, so clauses at different
// points never share a random stream. Salt 7 belongs to a retired point:
// the points from cell_crash on sit one above their enumerator, which
// keeps their fault schedules (and every run recorded under them) as
// they were.
constexpr std::uint64_t salt_of(Point point) {
  const auto index = static_cast<std::uint64_t>(point);
  return 0xFA017000ULL + index + (point >= Point::kCellCrash ? 1 : 0);
}

// The clause keyword as written in spec strings. Distinct from
// point_name(), the registry's diagnostic name — to_string() must emit
// these so every rendered plan reparses.
constexpr std::string_view spec_keyword(Point point) {
  switch (point) {
    case Point::kProbeDrop:
      return "drop";
    case Point::kOutage:
      return "outage";
    case Point::kSendFail:
      return "send_fail";
    case Point::kMacCorrupt:
      return "mac_corrupt";
    case Point::kConnectRst:
      return "rst";
    case Point::kBannerTruncate:
      return "banner_trunc";
    case Point::kBannerStall:
      return "banner_stall";
    case Point::kCellCrash:
      return "cell_crash";
    case Point::kCellHang:
      return "cell_hang";
    case Point::kWorkerKill:
      return "worker_kill";
    case Point::kWorkerStall:
      return "worker_stall";
    case Point::kEnospc:
      return "enospc";
    case Point::kSegmentCorrupt:
      return "segment_corrupt";
    case Point::kFrameGarble:
      return "frame_garble";
  }
  return "?";
}

std::optional<WorkerPhase> worker_phase_from(std::string_view name) {
  if (name == "hello") return WorkerPhase::kHello;
  if (name == "claim") return WorkerPhase::kClaim;
  if (name == "segment") return WorkerPhase::kSegment;
  if (name == "done") return WorkerPhase::kDone;
  return std::nullopt;
}

bool set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

// Parses a u64, rejecting empty fields, junk, and overflow ("overflow
// slots must error, never crash").
bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty() || text.size() > 20) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (~std::uint64_t{0} - digit) / 10) return false;  // overflow
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

bool parse_double01(std::string_view text, double& out) {
  if (text.empty() || text.size() > 24) return false;
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.*s",
                static_cast<int>(text.size()), text.data());
  char* end = nullptr;
  const double value = std::strtod(buffer, &end);
  if (end != buffer + text.size()) return false;
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

// "host%M==K"
bool parse_host_selector(std::string_view text, FaultClause& clause) {
  if (text.rfind("host%", 0) != 0) return false;
  text.remove_prefix(5);
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

// Windowed clauses: drop, outage, send_fail, mac_corrupt.
bool parse_window_args(std::span<const std::string_view> args, Point point,
                       FaultClause& clause, std::string* error) {
  bool saw_range = false;
  for (std::string_view arg : args) {
    if (arg.rfind("slot=", 0) == 0) {
      clause.unit = FaultClause::Unit::kSlot;
      if (!parse_range(arg.substr(5), clause.lo, clause.hi)) {
        return set_error(error, "bad slot range: " + std::string(arg));
      }
      saw_range = true;
    } else if (arg.rfind("sec=", 0) == 0) {
      clause.unit = FaultClause::Unit::kSeconds;
      if (!parse_range(arg.substr(4), clause.lo, clause.hi)) {
        return set_error(error, "bad sec range: " + std::string(arg));
      }
      saw_range = true;
    } else if (arg.rfind("p=", 0) == 0) {
      if (!parse_double01(arg.substr(2), clause.p)) {
        return set_error(error,
                         "probability must be in [0,1]: " + std::string(arg));
      }
    } else if (arg.rfind("origin=", 0) == 0) {
      std::uint64_t origin = 0;
      if (point != Point::kOutage) {
        return set_error(error, "origin= is outage-only: " + std::string(arg));
      }
      if (!parse_u64(arg.substr(7), origin) || origin > 255) {
        return set_error(error, "origin must be 0..255: " + std::string(arg));
      }
      clause.origin = static_cast<int>(origin);
    } else {
      return set_error(error, "unknown argument: " + std::string(arg));
    }
  }
  if (!saw_range) {
    return set_error(error, std::string("missing slot=/sec= range for ") +
                                std::string(point_name(point)));
  }
  if (point == Point::kOutage && clause.unit != FaultClause::Unit::kSeconds) {
    return set_error(error, "outage windows are sec= only");
  }
  if ((point == Point::kSendFail || point == Point::kMacCorrupt) &&
      clause.unit != FaultClause::Unit::kSlot) {
    return set_error(error, std::string(point_name(point)) +
                                " windows are slot= only");
  }
  return true;
}

// Host clauses: rst, banner_trunc, banner_stall.
bool parse_host_args(std::span<const std::string_view> args,
                     FaultClause& clause, std::string* error) {
  bool saw_selector = false;
  for (std::string_view arg : args) {
    if (arg.rfind("host%", 0) == 0) {
      if (!parse_host_selector(arg, clause)) {
        return set_error(error, "bad host selector: " + std::string(arg));
      }
      saw_selector = true;
    } else if (arg.rfind("attempts=", 0) == 0) {
      std::uint64_t attempts = 0;
      if (!parse_u64(arg.substr(9), attempts) || attempts == 0 ||
          attempts > 16) {
        return set_error(error, "attempts must be 1..16: " + std::string(arg));
      }
      clause.attempts = static_cast<int>(attempts);
    } else if (arg.rfind("p=", 0) == 0) {
      if (!parse_double01(arg.substr(2), clause.p)) {
        return set_error(error,
                         "probability must be in [0,1]: " + std::string(arg));
      }
    } else {
      return set_error(error, "unknown argument: " + std::string(arg));
    }
  }
  if (!saw_selector) {
    return set_error(error, "missing host%M==K selector");
  }
  return true;
}

// Cell clauses: cell_crash (cell= only), cell_hang (cell= + sec=,
// optional attempts=).
bool parse_cell_args(std::span<const std::string_view> args, Point point,
                     FaultClause& clause, std::string* error) {
  bool saw_cell = false;
  bool saw_sec = false;
  for (std::string_view arg : args) {
    if (arg.rfind("cell=", 0) == 0) {
      if (!parse_u64(arg.substr(5), clause.cell)) {
        return set_error(error, "bad cell index: " + std::string(arg));
      }
      saw_cell = true;
    } else if (arg.rfind("sec=", 0) == 0) {
      if (point != Point::kCellHang) {
        return set_error(error, "sec= is cell_hang-only: " + std::string(arg));
      }
      if (!parse_u64(arg.substr(4), clause.hang_seconds) ||
          clause.hang_seconds == 0) {
        return set_error(error, "bad hang seconds: " + std::string(arg));
      }
      saw_sec = true;
    } else if (arg.rfind("attempts=", 0) == 0) {
      std::uint64_t attempts = 0;
      if (point != Point::kCellHang) {
        return set_error(error,
                         "attempts= is cell_hang-only: " + std::string(arg));
      }
      if (!parse_u64(arg.substr(9), attempts) || attempts == 0 ||
          attempts > 16) {
        return set_error(error, "attempts must be 1..16: " + std::string(arg));
      }
      clause.attempts = static_cast<int>(attempts);
    } else {
      return set_error(error, "unknown argument: " + std::string(arg));
    }
  }
  if (!saw_cell) return set_error(error, "missing cell= index");
  if (point == Point::kCellHang && !saw_sec) {
    return set_error(error, "cell_hang needs sec=S");
  }
  return true;
}

// Worker clauses: worker_kill / worker_stall. Two mutually exclusive
// forms — `worker=W` (pre-HELLO; the process has no cell yet) and
// `cell=K,phase=claim|segment|done[,attempts=N]`.
bool parse_worker_args(std::span<const std::string_view> args, Point point,
                       FaultClause& clause, std::string* error) {
  bool saw_worker = false;
  bool saw_cell = false;
  bool saw_phase = false;
  for (std::string_view arg : args) {
    if (arg.rfind("worker=", 0) == 0) {
      std::uint64_t worker = 0;
      if (!parse_u64(arg.substr(7), worker) || worker > 255) {
        return set_error(error, "worker must be 0..255: " + std::string(arg));
      }
      clause.worker = static_cast<int>(worker);
      saw_worker = true;
    } else if (arg.rfind("cell=", 0) == 0) {
      if (!parse_u64(arg.substr(5), clause.cell)) {
        return set_error(error, "bad cell index: " + std::string(arg));
      }
      saw_cell = true;
    } else if (arg.rfind("phase=", 0) == 0) {
      const auto phase = worker_phase_from(arg.substr(6));
      if (!phase.has_value()) {
        return set_error(error,
                         "phase must be hello|claim|segment|done: " +
                             std::string(arg));
      }
      clause.phase = static_cast<int>(*phase);
      saw_phase = true;
    } else if (arg.rfind("attempts=", 0) == 0) {
      std::uint64_t attempts = 0;
      if (!parse_u64(arg.substr(9), attempts) || attempts == 0 ||
          attempts > 16) {
        return set_error(error, "attempts must be 1..16: " + std::string(arg));
      }
      clause.attempts = static_cast<int>(attempts);
    } else {
      return set_error(error, "unknown argument: " + std::string(arg));
    }
  }
  if (saw_worker == saw_cell) {
    return set_error(error, std::string(point_name(point)) +
                                " needs exactly one of worker=W / cell=K");
  }
  if (saw_worker) {
    if (saw_phase && clause.phase != static_cast<int>(WorkerPhase::kHello)) {
      return set_error(error, "worker= clauses fire pre-HELLO only");
    }
    clause.phase = static_cast<int>(WorkerPhase::kHello);
  } else {
    if (!saw_phase || clause.phase == static_cast<int>(WorkerPhase::kHello)) {
      return set_error(error,
                       "cell= clauses need phase=claim|segment|done");
    }
  }
  return true;
}

// enospc:bytes=N — storage dies once the journal has written N bytes.
bool parse_enospc_args(std::span<const std::string_view> args,
                       FaultClause& clause, std::string* error) {
  bool saw_bytes = false;
  for (std::string_view arg : args) {
    if (arg.rfind("bytes=", 0) == 0) {
      if (!parse_u64(arg.substr(6), clause.bytes)) {
        return set_error(error, "bad byte threshold: " + std::string(arg));
      }
      saw_bytes = true;
    } else {
      return set_error(error, "unknown argument: " + std::string(arg));
    }
  }
  if (!saw_bytes) return set_error(error, "enospc needs bytes=N");
  return true;
}

// segment_corrupt:file=N[,count=C] — durable files [N, N+C) each get
// one flipped byte after the write lands.
bool parse_corrupt_args(std::span<const std::string_view> args,
                        FaultClause& clause, std::string* error) {
  bool saw_file = false;
  for (std::string_view arg : args) {
    if (arg.rfind("file=", 0) == 0) {
      if (!parse_u64(arg.substr(5), clause.write_index)) {
        return set_error(error, "bad file index: " + std::string(arg));
      }
      saw_file = true;
    } else if (arg.rfind("count=", 0) == 0) {
      if (!parse_u64(arg.substr(6), clause.count) || clause.count == 0 ||
          clause.count > 64) {
        return set_error(error, "count must be 1..64: " + std::string(arg));
      }
    } else {
      return set_error(error, "unknown argument: " + std::string(arg));
    }
  }
  if (!saw_file) return set_error(error, "segment_corrupt needs file=N");
  return true;
}

// frame_garble:worker=W,frame=N[,count=C] — frames [N, N+C) sent by
// worker W each get one flipped bit on the wire.
bool parse_garble_args(std::span<const std::string_view> args,
                       FaultClause& clause, std::string* error) {
  bool saw_worker = false;
  bool saw_frame = false;
  for (std::string_view arg : args) {
    if (arg.rfind("worker=", 0) == 0) {
      std::uint64_t worker = 0;
      if (!parse_u64(arg.substr(7), worker) || worker > 255) {
        return set_error(error, "worker must be 0..255: " + std::string(arg));
      }
      clause.worker = static_cast<int>(worker);
      saw_worker = true;
    } else if (arg.rfind("frame=", 0) == 0) {
      if (!parse_u64(arg.substr(6), clause.write_index)) {
        return set_error(error, "bad frame index: " + std::string(arg));
      }
      saw_frame = true;
    } else if (arg.rfind("count=", 0) == 0) {
      if (!parse_u64(arg.substr(6), clause.count) || clause.count == 0 ||
          clause.count > 64) {
        return set_error(error, "count must be 1..64: " + std::string(arg));
      }
    } else {
      return set_error(error, "unknown argument: " + std::string(arg));
    }
  }
  if (!saw_worker) return set_error(error, "frame_garble needs worker=W");
  if (!saw_frame) return set_error(error, "frame_garble needs frame=N");
  return true;
}

}  // namespace

std::string_view point_name(Point point) {
  switch (point) {
    case Point::kProbeDrop:
      return "probe_drop";
    case Point::kOutage:
      return "outage";
    case Point::kSendFail:
      return "send_fail";
    case Point::kMacCorrupt:
      return "mac_corrupt";
    case Point::kConnectRst:
      return "connect_rst";
    case Point::kBannerTruncate:
      return "banner_trunc";
    case Point::kBannerStall:
      return "banner_stall";
    case Point::kCellCrash:
      return "cell_crash";
    case Point::kCellHang:
      return "cell_hang";
    case Point::kWorkerKill:
      return "worker_kill";
    case Point::kWorkerStall:
      return "worker_stall";
    case Point::kEnospc:
      return "enospc";
    case Point::kSegmentCorrupt:
      return "segment_corrupt";
    case Point::kFrameGarble:
      return "frame_garble";
  }
  return "?";
}

std::string_view worker_phase_name(WorkerPhase phase) {
  switch (phase) {
    case WorkerPhase::kHello:
      return "hello";
    case WorkerPhase::kClaim:
      return "claim";
    case WorkerPhase::kSegment:
      return "segment";
    case WorkerPhase::kDone:
      return "done";
  }
  return "?";
}

std::span<const Point> all_points() { return kAllPoints; }

bool FaultClause::recoverable() const {
  switch (point) {
    case Point::kSendFail:
    case Point::kConnectRst:
    case Point::kBannerTruncate:
    case Point::kBannerStall:
      return true;
    case Point::kProbeDrop:
    case Point::kOutage:
    case Point::kMacCorrupt:
      return false;
    // Cell faults interrupt the run itself; recovery happens across runs
    // (journal resume) or via supervisor retries — never inside one
    // uninterrupted run, which is what this predicate promises. Worker
    // faults likewise kill or wedge a process; the master's grant-retry
    // machinery recovers, not the faulted run.
    case Point::kCellCrash:
    case Point::kCellHang:
    case Point::kWorkerKill:
    case Point::kWorkerStall:
      return false;
    // Storage/transport decay: recovery crosses runs (quarantine +
    // re-execution, journal repair) or processes (the master's frame
    // error handling), never the faulted run itself.
    case Point::kEnospc:
    case Point::kSegmentCorrupt:
    case Point::kFrameGarble:
      return false;
  }
  return false;
}

std::string FaultClause::to_string() const {
  std::string out(spec_keyword(point));
  char buffer[96];
  switch (point) {
    case Point::kProbeDrop:
    case Point::kOutage:
    case Point::kSendFail:
    case Point::kMacCorrupt:
      std::snprintf(buffer, sizeof(buffer), ":%s=%llu..%llu,p=%g",
                    unit == Unit::kSlot ? "slot" : "sec",
                    static_cast<unsigned long long>(lo),
                    static_cast<unsigned long long>(hi), p);
      if (origin >= 0) {
        const std::size_t used = std::char_traits<char>::length(buffer);
        std::snprintf(buffer + used, sizeof(buffer) - used, ",origin=%d",
                      origin);
      }
      break;
    case Point::kConnectRst:
    case Point::kBannerTruncate:
    case Point::kBannerStall:
      std::snprintf(buffer, sizeof(buffer),
                    ":host%%%u==%u,attempts=%d,p=%g", mod, rem, attempts, p);
      break;
    case Point::kCellCrash:
      std::snprintf(buffer, sizeof(buffer), ":cell=%llu",
                    static_cast<unsigned long long>(cell));
      break;
    case Point::kCellHang:
      std::snprintf(buffer, sizeof(buffer), ":cell=%llu,sec=%llu,attempts=%d",
                    static_cast<unsigned long long>(cell),
                    static_cast<unsigned long long>(hang_seconds), attempts);
      break;
    case Point::kWorkerKill:
    case Point::kWorkerStall:
      if (worker >= 0) {
        std::snprintf(buffer, sizeof(buffer), ":worker=%d", worker);
      } else {
        std::snprintf(
            buffer, sizeof(buffer), ":cell=%llu,phase=%s,attempts=%d",
            static_cast<unsigned long long>(cell),
            std::string(worker_phase_name(static_cast<WorkerPhase>(phase)))
                .c_str(),
            attempts);
      }
      break;
    case Point::kEnospc:
      std::snprintf(buffer, sizeof(buffer), ":bytes=%llu",
                    static_cast<unsigned long long>(bytes));
      break;
    case Point::kSegmentCorrupt:
      std::snprintf(buffer, sizeof(buffer), ":file=%llu,count=%llu",
                    static_cast<unsigned long long>(write_index),
                    static_cast<unsigned long long>(count));
      break;
    case Point::kFrameGarble:
      std::snprintf(buffer, sizeof(buffer), ":worker=%d,frame=%llu,count=%llu",
                    worker, static_cast<unsigned long long>(write_index),
                    static_cast<unsigned long long>(count));
      break;
  }
  out += buffer;
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
    const std::string_view clause_text = trim(raw_clause);
    if (clause_text.empty()) {
      set_error(error, "empty clause in fault spec");
      return std::nullopt;
    }
    const std::size_t colon = clause_text.find(':');
    const std::string_view name = trim(clause_text.substr(0, colon));
    std::vector<std::string_view> args;
    if (colon != std::string_view::npos) {
      for (std::string_view arg : split(clause_text.substr(colon + 1), ',')) {
        args.push_back(trim(arg));
      }
    }

    FaultClause clause;
    bool ok = false;
    if (name == "drop") {
      clause.point = Point::kProbeDrop;
      ok = parse_window_args(args, clause.point, clause, error);
    } else if (name == "outage") {
      clause.point = Point::kOutage;
      ok = parse_window_args(args, clause.point, clause, error);
    } else if (name == "send_fail") {
      clause.point = Point::kSendFail;
      ok = parse_window_args(args, clause.point, clause, error);
    } else if (name == "mac_corrupt") {
      clause.point = Point::kMacCorrupt;
      ok = parse_window_args(args, clause.point, clause, error);
    } else if (name == "rst") {
      clause.point = Point::kConnectRst;
      ok = parse_host_args(args, clause, error);
    } else if (name == "banner_trunc") {
      clause.point = Point::kBannerTruncate;
      ok = parse_host_args(args, clause, error);
    } else if (name == "banner_stall") {
      clause.point = Point::kBannerStall;
      ok = parse_host_args(args, clause, error);
    } else if (name == "cell_crash") {
      clause.point = Point::kCellCrash;
      ok = parse_cell_args(args, clause.point, clause, error);
    } else if (name == "cell_hang") {
      clause.point = Point::kCellHang;
      ok = parse_cell_args(args, clause.point, clause, error);
    } else if (name == "worker_kill") {
      clause.point = Point::kWorkerKill;
      ok = parse_worker_args(args, clause.point, clause, error);
    } else if (name == "worker_stall") {
      clause.point = Point::kWorkerStall;
      ok = parse_worker_args(args, clause.point, clause, error);
    } else if (name == "enospc") {
      clause.point = Point::kEnospc;
      ok = parse_enospc_args(args, clause, error);
    } else if (name == "segment_corrupt") {
      clause.point = Point::kSegmentCorrupt;
      ok = parse_corrupt_args(args, clause, error);
    } else if (name == "frame_garble") {
      clause.point = Point::kFrameGarble;
      ok = parse_garble_args(args, clause, error);
    } else {
      set_error(error, "unknown fault clause: " + std::string(name));
      return std::nullopt;
    }
    if (!ok) return std::nullopt;
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
    if (clause.point == Point::kConnectRst ||
        clause.point == Point::kBannerTruncate ||
        clause.point == Point::kBannerStall) {
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

bool FaultInjector::window_hit(const FaultClause& clause,
                               FaultClause::Unit unit, std::uint64_t value,
                               std::uint64_t stream) const {
  if (clause.unit != unit) return false;
  if (value < clause.lo || value > clause.hi) return false;
  if (clause.p >= 1.0) return true;
  return hash01(net::mix_u64(seed_, stream, value, salt_of(clause.point))) <
         clause.p;
}

bool FaultInjector::drop_at_slot(std::uint64_t slot,
                                 net::Ipv4Addr dst) const {
  for (const FaultClause& clause : plan_.clauses()) {
    if (clause.point != Point::kProbeDrop) continue;
    if (window_hit(clause, FaultClause::Unit::kSlot, slot, dst.value())) {
      record(Point::kProbeDrop);
      return true;
    }
  }
  return false;
}

int FaultInjector::send_failures(std::uint64_t slot,
                                 net::Ipv4Addr dst) const {
  for (const FaultClause& clause : plan_.clauses()) {
    if (clause.point != Point::kSendFail) continue;
    if (window_hit(clause, FaultClause::Unit::kSlot, slot, dst.value())) {
      record(Point::kSendFail);
      // 1 or 2 consecutive EAGAINs, deterministic per (seed, slot) —
      // always below the scanner's retry cap, so the send recovers.
      return 1 + static_cast<int>(
                     net::mix_u64(seed_, slot, dst.value(), 0x5E4Du) % 2);
    }
  }
  return 0;
}

bool FaultInjector::corrupt_response(std::uint64_t slot,
                                     net::Ipv4Addr dst) const {
  for (const FaultClause& clause : plan_.clauses()) {
    if (clause.point != Point::kMacCorrupt) continue;
    if (window_hit(clause, FaultClause::Unit::kSlot, slot, dst.value())) {
      record(Point::kMacCorrupt);
      return true;
    }
  }
  return false;
}

bool FaultInjector::drop_at_time(net::VirtualTime t, net::Ipv4Addr dst,
                                 int probe_index) const {
  const auto second = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, t.micros() / 1'000'000));
  for (const FaultClause& clause : plan_.clauses()) {
    if (clause.point != Point::kProbeDrop) continue;
    const std::uint64_t stream =
        net::mix_u64(dst.value(), static_cast<std::uint64_t>(probe_index));
    if (window_hit(clause, FaultClause::Unit::kSeconds, second, stream)) {
      record(Point::kProbeDrop);
      return true;
    }
  }
  return false;
}

bool FaultInjector::outage_at(net::VirtualTime t, int origin) const {
  const auto second = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, t.micros() / 1'000'000));
  for (const FaultClause& clause : plan_.clauses()) {
    if (clause.point != Point::kOutage) continue;
    if (clause.unit != FaultClause::Unit::kSeconds) continue;
    if (clause.origin >= 0 && clause.origin != origin) continue;
    if (second >= clause.lo && second <= clause.hi) {
      record(Point::kOutage);
      return true;
    }
  }
  return false;
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
                            salt_of(clause.point))) >= clause.p) {
      continue;
    }
    record(clause.point);
    return kind;
  }
  return L7Fault::kNone;
}

bool FaultInjector::cell_crash(std::uint64_t cell_index) const {
  for (const FaultClause& clause : plan_.clauses()) {
    if (clause.point != Point::kCellCrash) continue;
    if (clause.cell == cell_index) {
      record(Point::kCellCrash);
      return true;
    }
  }
  return false;
}

std::uint64_t FaultInjector::cell_hang_seconds(std::uint64_t cell_index,
                                               int attempt) const {
  for (const FaultClause& clause : plan_.clauses()) {
    if (clause.point != Point::kCellHang) continue;
    if (clause.cell != cell_index) continue;
    if (attempt >= clause.attempts) continue;
    record(Point::kCellHang);
    return clause.hang_seconds;
  }
  return 0;
}

bool FaultInjector::worker_fault(Point point, int worker, WorkerPhase phase,
                                 std::uint64_t cell, int grant) const {
  for (const FaultClause& clause : plan_.clauses()) {
    if (clause.point != point) continue;
    if (clause.phase != static_cast<int>(phase)) continue;
    if (phase == WorkerPhase::kHello) {
      // Pre-HELLO clauses are keyed by worker index: the process has not
      // claimed anything yet, so a cell key would be meaningless.
      if (clause.worker != worker) continue;
    } else {
      // Cell-keyed clauses fire on the first `attempts` grants of the
      // cell's chain, regardless of which worker drew the grant — that
      // keeps kill matrices deterministic under any chain assignment.
      if (clause.worker >= 0) continue;
      if (clause.cell != cell) continue;
      if (grant >= clause.attempts) continue;
    }
    record(point);
    return true;
  }
  return false;
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
  for (const FaultClause& clause : plan_.clauses()) {
    if (clause.point != Point::kEnospc) continue;
    if (bytes_written >= clause.bytes) {
      record(Point::kEnospc);
      return true;
    }
  }
  return false;
}

bool FaultInjector::segment_corrupt(std::uint64_t file_index) const {
  for (const FaultClause& clause : plan_.clauses()) {
    if (clause.point != Point::kSegmentCorrupt) continue;
    if (file_index >= clause.write_index &&
        file_index < clause.write_index + clause.count) {
      record(Point::kSegmentCorrupt);
      return true;
    }
  }
  return false;
}

std::uint64_t FaultInjector::corrupt_offset(std::uint64_t file_index,
                                            std::uint64_t file_size) const {
  if (file_size == 0) return 0;
  return net::mix_u64(seed_, file_index, file_size,
                      salt_of(Point::kSegmentCorrupt)) %
         file_size;
}

bool FaultInjector::frame_garble(int worker,
                                 std::uint64_t frame_index) const {
  for (const FaultClause& clause : plan_.clauses()) {
    if (clause.point != Point::kFrameGarble) continue;
    if (clause.worker != worker) continue;
    if (frame_index >= clause.write_index &&
        frame_index < clause.write_index + clause.count) {
      record(Point::kFrameGarble);
      return true;
    }
  }
  return false;
}

std::uint64_t FaultInjector::garble_offset(int worker,
                                           std::uint64_t frame_index,
                                           std::uint64_t frame_size) const {
  if (frame_size == 0) return 0;
  return net::mix_u64(seed_, static_cast<std::uint64_t>(worker), frame_index,
                      salt_of(Point::kFrameGarble)) %
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
