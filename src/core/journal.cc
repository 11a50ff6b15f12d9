#include "core/journal.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>

#include "core/store.h"
#include "netbase/byteio.h"
#include "netbase/crc32.h"
#include "netbase/frame.h"

namespace originscan::core {
namespace {

constexpr std::uint32_t kIdsMagic = 0x4F534944;  // "OSID"
constexpr std::uint32_t kIdsVersion = 1;
constexpr std::uint32_t kSidecarMagic = 0x4F534353;  // "OSCS"
constexpr std::uint32_t kSidecarVersion = 1;

bool set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

// The failing syscall's errno, rendered for error text. Write and fsync
// failures must name their cause — "short write" alone cannot tell a
// full disk from a yanked one.
std::string errno_text() {
  const int err = errno;
  if (err == 0) return "unknown error";
  return std::string(std::strerror(err)) + " (errno " + std::to_string(err) +
         ")";
}

// Writes `data` to `path` durably: the file contents and its metadata
// are on stable storage before this returns true. The manifest line that
// references the file is appended only afterwards.
bool write_file_durable(const std::string& path,
                        std::span<const std::uint8_t> data,
                        std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return set_error(error, "cannot create " + path + ": " + errno_text());
  }
  errno = 0;
  const bool written = std::fwrite(data.data(), 1, data.size(), file) ==
                       data.size();
  const bool flushed = written && std::fflush(file) == 0 &&
                       ::fsync(::fileno(file)) == 0;
  const bool closed = std::fclose(file) == 0;
  if (!(written && flushed && closed)) {
    return set_error(error, "short write to " + path + ": " + errno_text());
  }
  return true;
}

// Flips one byte of an already-written file in place (the
// segment_corrupt fault point: bit-rot landing between a successful
// fsync and the next read).
void flip_byte_in_file(const std::string& path, std::uint64_t offset) {
  std::FILE* file = std::fopen(path.c_str(), "rb+");
  if (file == nullptr) return;
  if (std::fseek(file, static_cast<long>(offset), SEEK_SET) == 0) {
    const int byte = std::fgetc(file);
    if (byte != EOF &&
        std::fseek(file, static_cast<long>(offset), SEEK_SET) == 0) {
      std::fputc(byte ^ 0x40, file);
    }
  }
  std::fclose(file);
}

std::string lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

std::vector<std::string_view> split_ws(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) out.push_back(line.substr(start, i - start));
  }
  return out;
}

std::set<std::uint32_t> ip_set(std::span<const net::Ipv4Addr> source_ips) {
  std::set<std::uint32_t> out;
  for (net::Ipv4Addr ip : source_ips) out.insert(ip.value());
  return out;
}

// Parses one manifest body line ("done ..." / "lost ...") into an
// entry. Returns nullopt on any malformation — open() treats that as a
// hard error, repair() as a droppable line.
std::optional<JournalEntry> parse_manifest_line(std::string_view line) {
  const std::vector<std::string_view> tokens = split_ws(line);
  if (tokens.size() < 5 || (tokens[0] != "done" && tokens[0] != "lost")) {
    return std::nullopt;
  }
  JournalEntry entry;
  entry.status = tokens[0] == "done" ? JournalEntry::Status::kDone
                                     : JournalEntry::Status::kLost;
  entry.key.origin_code = std::string(tokens[1]);
  const auto protocol = proto::protocol_from_name(tokens[2]);
  if (!protocol.has_value()) return std::nullopt;
  entry.key.protocol = *protocol;
  entry.key.trial = std::atoi(std::string(tokens[3]).c_str());
  for (std::size_t t = 4; t < tokens.size(); ++t) {
    const std::string_view token = tokens[t];
    if (token.rfind("attempts=", 0) == 0) {
      entry.attempts = std::atoi(std::string(token.substr(9)).c_str());
    } else if (token.rfind("sha256=", 0) == 0) {
      entry.record_sha256 = std::string(token.substr(7));
    } else if (token.rfind("segment=", 0) == 0) {
      entry.segment = std::string(token.substr(8));
    } else if (token.rfind("reason=", 0) == 0) {
      // The reason is the rest of the line (it may contain spaces).
      const std::size_t pos = line.find("reason=");
      entry.reason = std::string(line.substr(pos + 7));
      break;
    } else {
      return std::nullopt;
    }
  }
  const bool complete = entry.status == JournalEntry::Status::kDone
                            ? !entry.record_sha256.empty() &&
                                  !entry.segment.empty()
                            : !entry.reason.empty();
  if (!complete) return std::nullopt;
  return entry;
}

// Reads a sidecar file written as one shared-codec frame
// (netbase/frame.h), returning the framed payload; nullopt when the file
// is not exactly one intact frame, which load_cell reports as corruption.
// The frame is what enforces "never over-read a lying length prefix" for
// sidecars.
std::optional<std::span<const std::uint8_t>> unframe_sidecar(
    std::span<const std::uint8_t> data) {
  std::span<const std::uint8_t> payload;
  if (net::parse_single_frame(data, payload) != net::FrameError::kNone) {
    return std::nullopt;
  }
  return payload;
}

}  // namespace

std::vector<std::uint8_t> serialize_cell_sidecar(
    const IdsSnapshot& ids, const scan::ZMapScanner::Stats& stats,
    const std::vector<std::uint64_t>& histogram) {
  std::vector<std::uint8_t> out;
  net::ByteWriter w(out);
  w.u32(kSidecarMagic);
  w.u32(kSidecarVersion);
  const auto ids_bytes = ids.serialize();
  w.u32(static_cast<std::uint32_t>(ids_bytes.size()));
  w.bytes(ids_bytes);
  w.u64(stats.targets_probed);
  w.u64(stats.packets_sent);
  w.u64(stats.blocklisted_skipped);
  w.u64(stats.synacks);
  w.u64(stats.rsts);
  w.u64(stats.validation_failures);
  w.u32(static_cast<std::uint32_t>(histogram.size()));
  for (std::uint64_t bucket : histogram) w.u64(bucket);
  w.u32(net::crc32(std::span(out.data(), out.size())));
  return out;
}

bool parse_cell_sidecar(std::span<const std::uint8_t> data, IdsSnapshot& ids,
                        scan::ZMapScanner::Stats& stats,
                        std::vector<std::uint64_t>& histogram) {
  if (data.size() < 16) return false;
  const std::uint32_t want = net::crc32(data.subspan(0, data.size() - 4));
  net::ByteReader footer(data.subspan(data.size() - 4));
  if (footer.u32() != want) return false;

  net::ByteReader r(data.subspan(0, data.size() - 4));
  if (r.u32() != kSidecarMagic) return false;
  if (r.u32() != kSidecarVersion) return false;
  const std::uint32_t ids_len = r.u32();
  if (!r.ok() || ids_len > r.remaining()) return false;
  auto parsed_ids = IdsSnapshot::parse(r.bytes(ids_len));
  if (!parsed_ids.has_value()) return false;
  ids = std::move(*parsed_ids);
  stats.targets_probed = r.u64();
  stats.packets_sent = r.u64();
  stats.blocklisted_skipped = r.u64();
  stats.synacks = r.u64();
  stats.rsts = r.u64();
  stats.validation_failures = r.u64();
  const std::uint32_t histogram_len = r.u32();
  if (!r.ok() || histogram_len > r.remaining() / 8) return false;
  histogram.clear();
  histogram.reserve(histogram_len);
  for (std::uint32_t i = 0; i < histogram_len; ++i) {
    histogram.push_back(r.u64());
  }
  return r.ok() && r.remaining() == 0;
}

// ---- IdsSnapshot ----------------------------------------------------

std::vector<std::uint8_t> IdsSnapshot::serialize() const {
  std::vector<std::uint8_t> out;
  net::ByteWriter w(out);
  w.u32(kIdsMagic);
  w.u32(kIdsVersion);
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const AsEntry& entry : entries) {
    w.u32(static_cast<std::uint32_t>(entry.as));
    w.u32(static_cast<std::uint32_t>(entry.probe_counts.size()));
    for (const auto& [ip, count] : entry.probe_counts) {
      w.u32(ip);
      w.u32(count);
    }
    w.u32(static_cast<std::uint32_t>(entry.blocked_ips.size()));
    for (const auto& [ip, trial] : entry.blocked_ips) {
      w.u32(ip);
      w.u32(static_cast<std::uint32_t>(trial));
    }
  }
  w.u32(net::crc32(std::span(out.data(), out.size())));
  return out;
}

std::optional<IdsSnapshot> IdsSnapshot::parse(
    std::span<const std::uint8_t> data) {
  if (data.size() < 16) return std::nullopt;
  const std::uint32_t want =
      net::crc32(data.subspan(0, data.size() - 4));
  net::ByteReader footer(data.subspan(data.size() - 4));
  if (footer.u32() != want) return std::nullopt;

  net::ByteReader r(data.subspan(0, data.size() - 4));
  if (r.u32() != kIdsMagic) return std::nullopt;
  if (r.u32() != kIdsVersion) return std::nullopt;
  const std::uint32_t entry_count = r.u32();
  if (!r.ok() || entry_count > r.remaining() / 12) return std::nullopt;

  IdsSnapshot snapshot;
  snapshot.entries.reserve(entry_count);
  for (std::uint32_t i = 0; i < entry_count; ++i) {
    AsEntry entry;
    entry.as = static_cast<sim::AsId>(r.u32());
    const std::uint32_t probe_count = r.u32();
    if (!r.ok() || probe_count > r.remaining() / 8) return std::nullopt;
    entry.probe_counts.reserve(probe_count);
    for (std::uint32_t j = 0; j < probe_count; ++j) {
      const std::uint32_t ip = r.u32();
      const std::uint32_t count = r.u32();
      entry.probe_counts.emplace_back(ip, count);
    }
    const std::uint32_t blocked_count = r.u32();
    if (!r.ok() || blocked_count > r.remaining() / 8) return std::nullopt;
    entry.blocked_ips.reserve(blocked_count);
    for (std::uint32_t j = 0; j < blocked_count; ++j) {
      const std::uint32_t ip = r.u32();
      const int trial = static_cast<int>(r.u32());
      entry.blocked_ips.emplace_back(ip, trial);
    }
    if (!r.ok()) return std::nullopt;
    snapshot.entries.push_back(std::move(entry));
  }
  if (r.remaining() != 0) return std::nullopt;
  return snapshot;
}

IdsSnapshot capture_ids(sim::PersistentState& state,
                        std::span<const net::Ipv4Addr> source_ips) {
  const std::set<std::uint32_t> ips = ip_set(source_ips);
  IdsSnapshot snapshot;
  // The outer map is structurally immutable once the PolicyEngines are
  // built, so iterating it without a lock is safe; only the inner
  // counters need the per-AS shard lock.
  for (auto& [as, counters] : state.ids) {
    IdsSnapshot::AsEntry entry;
    entry.as = as;
    {
      std::scoped_lock lock(state.ids_lock(as));
      for (const auto& [ip, count] : counters.probe_counts) {
        if (ips.count(ip) != 0) entry.probe_counts.emplace_back(ip, count);
      }
      for (const auto& [ip, trial] : counters.blocked_ips) {
        if (ips.count(ip) != 0) entry.blocked_ips.emplace_back(ip, trial);
      }
    }
    if (!entry.probe_counts.empty() || !entry.blocked_ips.empty()) {
      snapshot.entries.push_back(std::move(entry));
    }
  }
  return snapshot;
}

void restore_ids(sim::PersistentState& state,
                 std::span<const net::Ipv4Addr> source_ips,
                 const IdsSnapshot& snapshot) {
  const std::set<std::uint32_t> ips = ip_set(source_ips);
  for (auto& [as, counters] : state.ids) {
    std::scoped_lock lock(state.ids_lock(as));
    for (std::uint32_t ip : ips) {
      counters.probe_counts.erase(ip);
      counters.blocked_ips.erase(ip);
    }
  }
  for (const IdsSnapshot::AsEntry& entry : snapshot.entries) {
    auto it = state.ids.find(entry.as);
    // An AS absent from the live state means the snapshot came from a
    // different policy configuration; the fingerprint check should have
    // caught that, so dropping the entry here is only defense in depth.
    if (it == state.ids.end()) continue;
    std::scoped_lock lock(state.ids_lock(entry.as));
    for (const auto& [ip, count] : entry.probe_counts) {
      it->second.probe_counts[ip] = count;
    }
    for (const auto& [ip, trial] : entry.blocked_ips) {
      it->second.blocked_ips[ip] = trial;
    }
  }
}

// ---- ExperimentJournal ----------------------------------------------

std::optional<ExperimentJournal> ExperimentJournal::open(
    const std::string& dir, const std::string& fingerprint,
    std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    set_error(error, "cannot create journal dir " + dir);
    return std::nullopt;
  }

  ExperimentJournal journal;
  journal.dir_ = dir;
  journal.fingerprint_ = fingerprint;

  const std::string manifest_path = dir + "/MANIFEST";
  const auto data = read_file_bytes(manifest_path);
  if (!data.has_value()) {
    if (fingerprint.empty()) {
      // Inspect mode (empty fingerprint = adopt whatever the manifest
      // says) only makes sense for a journal that already exists.
      set_error(error, "no journal manifest in " + dir);
      return std::nullopt;
    }
    // Fresh journal: write the header before any cell can be recorded.
    if (!journal.append_manifest_line(
            "osnr-journal v1 fingerprint=" + fingerprint, error)) {
      return std::nullopt;
    }
    return journal;
  }

  // Replay an existing manifest. A crash mid-append leaves a torn final
  // line with no newline; it references sidecars that were fully synced
  // before the append started, so dropping the line merely re-runs an
  // already-complete cell — safe, if wasteful.
  const std::string text(data->begin(), data->end());
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      journal.dropped_torn_line_ = true;  // torn trailing line: dropped
      break;
    }
    lines.push_back(std::string_view(text).substr(start, nl - start));
    start = nl + 1;
  }
  if (lines.empty()) {
    set_error(error, "journal manifest has no complete header line");
    return std::nullopt;
  }
  constexpr std::string_view kHeaderPrefix = "osnr-journal v1 fingerprint=";
  if (fingerprint.empty()) {
    // Inspect mode: adopt the manifest's own fingerprint.
    if (!lines.front().starts_with(kHeaderPrefix)) {
      set_error(error,
                "unrecognized journal header: " + std::string(lines.front()));
      return std::nullopt;
    }
    journal.fingerprint_ =
        std::string(lines.front().substr(kHeaderPrefix.size()));
  } else {
    const std::string expected_header =
        std::string(kHeaderPrefix) + fingerprint;
    if (lines.front() != expected_header) {
      set_error(error, "journal fingerprint mismatch: manifest says \"" +
                           std::string(lines.front()) + "\", experiment is \"" +
                           expected_header + "\"");
      return std::nullopt;
    }
  }
  for (std::size_t i = 1; i < lines.size(); ++i) {
    auto entry = parse_manifest_line(lines[i]);
    if (!entry.has_value()) {
      set_error(error, "malformed journal line: " + std::string(lines[i]));
      return std::nullopt;
    }
    journal.push_entry(std::move(*entry));
  }
  return journal;
}

// Last-wins: a re-recorded cell (quarantine + re-execution appends a
// fresh `done` line for a key that already has one) supersedes the
// earlier entry and takes its chain position at the end — which is the
// order the re-execution actually ran in.
void ExperimentJournal::push_entry(JournalEntry entry) {
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [&](const JournalEntry& existing) {
                                  return existing.key == entry.key;
                                }),
                 entries_.end());
  entries_.push_back(std::move(entry));
}

std::optional<RepairReport> ExperimentJournal::repair(const std::string& dir,
                                                      std::string* error) {
  const std::string manifest_path = dir + "/MANIFEST";
  const auto data = read_file_bytes(manifest_path);
  if (!data.has_value()) {
    set_error(error, "no journal manifest in " + dir);
    return std::nullopt;
  }
  RepairReport report;

  const std::string text(data->begin(), data->end());
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      ++report.lines_dropped_malformed;  // torn trailing line
      break;
    }
    lines.push_back(std::string_view(text).substr(start, nl - start));
    start = nl + 1;
  }
  constexpr std::string_view kHeaderPrefix = "osnr-journal v1 fingerprint=";
  if (lines.empty() || !lines.front().starts_with(kHeaderPrefix)) {
    // Without the header there is no fingerprint to bind a resume to —
    // nothing below it can be trusted to belong to any experiment.
    set_error(error, "journal header unreadable; nothing salvageable in " +
                         manifest_path);
    return std::nullopt;
  }
  report.fingerprint = std::string(lines.front().substr(kHeaderPrefix.size()));

  // Replay tolerantly: malformed lines are dropped (counted), later
  // lines for a key supersede earlier ones exactly as open() does.
  ExperimentJournal scanner;
  scanner.dir_ = dir;
  scanner.fingerprint_ = report.fingerprint;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    auto entry = parse_manifest_line(lines[i]);
    if (!entry.has_value()) {
      ++report.lines_dropped_malformed;
      continue;
    }
    scanner.push_entry(std::move(*entry));
  }

  // Verify every done entry's artifacts and enforce the chain-prefix
  // invariant per origin: once one of an origin's cells is dropped, every
  // later entry of that origin rode on state that will now be re-derived,
  // so it is demoted too (resume re-runs the whole suffix).
  std::set<std::string> broken_origins;
  std::vector<const JournalEntry*> kept;
  for (const JournalEntry& entry : scanner.entries_) {
    if (broken_origins.count(entry.key.origin_code) != 0) {
      ++report.entries_dropped_followers;
      continue;
    }
    if (entry.status == JournalEntry::Status::kDone) {
      std::string load_error;
      if (!scanner.load_cell(entry, nullptr, &load_error).has_value()) {
        ++report.entries_dropped_corrupt;
        broken_origins.insert(entry.key.origin_code);
        continue;
      }
    }
    kept.push_back(&entry);
  }
  report.entries_kept = kept.size();

  // Rebuild the MANIFEST durably: tmp write + atomic rename, so a crash
  // mid-repair leaves either the old manifest or the repaired one.
  std::string rebuilt = std::string(kHeaderPrefix) + report.fingerprint + "\n";
  for (const JournalEntry* entry : kept) {
    const std::string prefix =
        entry->key.origin_code + " " +
        std::string(proto::name_of(entry->key.protocol)) + " " +
        std::to_string(entry->key.trial) +
        " attempts=" + std::to_string(entry->attempts);
    if (entry->status == JournalEntry::Status::kDone) {
      rebuilt += "done " + prefix + " sha256=" + entry->record_sha256 +
                 " segment=" + entry->segment + "\n";
    } else {
      rebuilt += "lost " + prefix + " reason=" + entry->reason + "\n";
    }
  }
  const std::string tmp_path = manifest_path + ".repair";
  if (!write_file_durable(
          tmp_path,
          std::span(reinterpret_cast<const std::uint8_t*>(rebuilt.data()),
                    rebuilt.size()),
          error)) {
    return std::nullopt;
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, manifest_path, ec);
  if (ec) {
    set_error(error, "cannot replace " + manifest_path + ": " + ec.message());
    return std::nullopt;
  }
  return report;
}

const JournalEntry* ExperimentJournal::find(const CellKey& key) const {
  for (const JournalEntry& entry : entries_) {
    if (entry.key == key) return &entry;
  }
  return nullptr;
}

void ExperimentJournal::quarantine(const CellKey& key) {
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [&](const JournalEntry& entry) {
                                  return entry.key == key;
                                }),
                 entries_.end());
}

std::optional<scan::ScanResult> ExperimentJournal::load_cell(
    const JournalEntry& entry, IdsSnapshot* snapshot, std::string* error,
    obsv::MetricBlock* metrics) const {
  if (entry.status != JournalEntry::Status::kDone) {
    set_error(error, "cell was journaled as lost");
    return std::nullopt;
  }
  const std::string segment_path = dir_ + "/" + entry.segment + ".osnr";
  const auto segment_bytes = read_file_bytes(segment_path);
  if (!segment_bytes.has_value()) {
    set_error(error, "missing segment " + segment_path);
    return std::nullopt;
  }
  auto results = parse_results(*segment_bytes);
  if (!results.has_value() || results->size() != 1) {
    set_error(error, "corrupt segment " + segment_path);
    return std::nullopt;
  }
  // The store CRCs catch bit-rot inside the segment; the manifest digest
  // additionally pins the segment to the manifest line, catching a
  // segment swapped in from another run.
  const std::string digest = record_sha256(*segment_bytes);
  if (digest != entry.record_sha256) {
    set_error(error, "segment digest mismatch for " + segment_path +
                         ": manifest " + entry.record_sha256 + ", file " +
                         digest);
    return std::nullopt;
  }
  scan::ScanResult result = std::move(results->front());

  const std::string ids_path = dir_ + "/" + entry.segment + ".ids";
  const auto ids_bytes = read_file_bytes(ids_path);
  if (!ids_bytes.has_value()) {
    set_error(error, "missing sidecar " + ids_path);
    return std::nullopt;
  }
  IdsSnapshot sidecar_ids;
  const auto ids_payload = unframe_sidecar(*ids_bytes);
  if (!ids_payload.has_value() ||
      !parse_cell_sidecar(*ids_payload, sidecar_ids, result.l4_stats,
                          result.attempt_histogram)) {
    set_error(error, "corrupt sidecar " + ids_path);
    return std::nullopt;
  }
  if (snapshot != nullptr) *snapshot = std::move(sidecar_ids);

  if (metrics != nullptr) {
    const std::string metrics_path = dir_ + "/" + entry.segment + ".metrics";
    const auto metrics_bytes = read_file_bytes(metrics_path);
    if (!metrics_bytes.has_value()) {
      // Pre-metrics journal: the cell simply carries a zero delta.
      *metrics = obsv::MetricBlock{};
    } else {
      const auto payload = unframe_sidecar(*metrics_bytes);
      auto parsed = payload.has_value() ? obsv::MetricBlock::parse(*payload)
                                        : std::nullopt;
      if (!parsed.has_value()) {
        set_error(error, "corrupt metrics sidecar " + metrics_path);
        return std::nullopt;
      }
      *metrics = std::move(*parsed);
    }
  }
  return result;
}

bool ExperimentJournal::record_done(const CellKey& key,
                                    const scan::ScanResult& result,
                                    const IdsSnapshot& snapshot, int attempts,
                                    std::string* error) {
  return record_done(key, result, /*segment=*/nullptr, snapshot, attempts,
                     /*metrics=*/nullptr, error);
}

// A durable file write as seen by the fault layer: enospc can refuse it
// (storage latches dead), segment_corrupt can flip a byte after the
// write lands. Real failures also latch storage_dead_ — a journal whose
// disk errored once must not be trusted with further cells.
bool ExperimentJournal::durable_write(const std::string& path,
                                      std::span<const std::uint8_t> data,
                                      std::string* error) {
  if (faults_ != nullptr && faults_->enospc(bytes_written_)) {
    if (fault_metrics_ != nullptr) {
      fault_metrics_->add(obsv::Counter::kFaultEnospc);
    }
    storage_dead_ = true;
    return set_error(error, "no space left on device writing " + path +
                                " (injected ENOSPC after " +
                                std::to_string(bytes_written_) + " bytes)");
  }
  if (!write_file_durable(path, data, error)) {
    storage_dead_ = true;
    return false;
  }
  bytes_written_ += data.size();
  const std::uint64_t file_index = files_written_++;
  if (faults_ != nullptr && faults_->segment_corrupt(file_index)) {
    if (fault_metrics_ != nullptr) {
      fault_metrics_->add(obsv::Counter::kFaultSegmentCorrupt);
    }
    flip_byte_in_file(path, faults_->corrupt_offset(file_index, data.size()));
  }
  return true;
}

bool ExperimentJournal::record_done(const CellKey& key,
                                    const scan::ScanResult& result,
                                    const CellSegment* segment,
                                    const IdsSnapshot& snapshot, int attempts,
                                    obsv::MetricBlock* metrics,
                                    std::string* error) {
  const std::string stem = "cell_" + key.origin_code + "_" +
                           lower(proto::name_of(key.protocol)) + "_t" +
                           std::to_string(key.trial);
  std::vector<std::uint8_t> own_bytes;
  std::string own_sha256;
  if (segment == nullptr) {
    own_bytes = serialize_results(result);
    own_sha256 = record_sha256(own_bytes);
  }
  const CellSegment cell =
      segment != nullptr ? *segment : CellSegment{own_bytes, own_sha256};
  if (!durable_write(dir_ + "/" + stem + ".osnr", cell.bytes, error)) {
    return false;
  }
  const auto sidecar_bytes =
      serialize_cell_sidecar(snapshot, result.l4_stats,
                             result.attempt_histogram);
  if (!durable_write(dir_ + "/" + stem + ".ids",
                     net::encode_frame(sidecar_bytes), error)) {
    return false;
  }
  if (metrics != nullptr) {
    // The journal's own counters go into the cell's block *before* it is
    // serialized, so an adopted cell replays them too and a resumed run's
    // totals match an uninterrupted run's exactly. Three fsync'd files per
    // cell: .osnr, .ids, .metrics. The segment-size histogram observes the
    // two data files; the metrics sidecar itself is fixed-size bookkeeping.
    metrics->add(obsv::Counter::kJournalCellsRecorded);
    metrics->add(obsv::Counter::kJournalSegmentsFsynced, 3);
    metrics->observe(obsv::Histogram::kJournalSegmentBytes,
                     cell.bytes.size());
    metrics->observe(obsv::Histogram::kJournalSegmentBytes,
                     sidecar_bytes.size());
    if (!durable_write(dir_ + "/" + stem + ".metrics",
                       net::encode_frame(metrics->serialize()), error)) {
      return false;
    }
  }

  JournalEntry entry;
  entry.status = JournalEntry::Status::kDone;
  entry.key = key;
  entry.attempts = attempts;
  entry.record_sha256 = cell.record_sha256;
  entry.segment = stem;
  const std::string line =
      "done " + key.origin_code + " " +
      std::string(proto::name_of(key.protocol)) + " " +
      std::to_string(key.trial) + " attempts=" + std::to_string(attempts) +
      " sha256=" + entry.record_sha256 + " segment=" + stem;
  if (!append_manifest_line(line, error)) return false;
  push_entry(std::move(entry));
  return true;
}

bool ExperimentJournal::record_lost(const CellKey& key, int attempts,
                                    const std::string& reason,
                                    std::string* error) {
  JournalEntry entry;
  entry.status = JournalEntry::Status::kLost;
  entry.key = key;
  entry.attempts = attempts;
  entry.reason = reason.empty() ? "unspecified" : reason;
  const std::string line =
      "lost " + key.origin_code + " " +
      std::string(proto::name_of(key.protocol)) + " " +
      std::to_string(key.trial) + " attempts=" + std::to_string(attempts) +
      " reason=" + entry.reason;
  if (!append_manifest_line(line, error)) return false;
  push_entry(std::move(entry));
  return true;
}

bool ExperimentJournal::append_manifest_line(const std::string& line,
                                             std::string* error) {
  const std::string path = dir_ + "/MANIFEST";
  if (faults_ != nullptr && faults_->enospc(bytes_written_)) {
    if (fault_metrics_ != nullptr) {
      fault_metrics_->add(obsv::Counter::kFaultEnospc);
    }
    storage_dead_ = true;
    return set_error(error, "no space left on device appending to " + path +
                                " (injected ENOSPC after " +
                                std::to_string(bytes_written_) + " bytes)");
  }
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    storage_dead_ = true;
    return set_error(error, "cannot open " + path + ": " + errno_text());
  }
  errno = 0;
  const std::string with_newline = line + "\n";
  const bool written = std::fwrite(with_newline.data(), 1,
                                   with_newline.size(),
                                   file) == with_newline.size();
  const bool flushed = written && std::fflush(file) == 0 &&
                       ::fsync(::fileno(file)) == 0;
  const bool closed = std::fclose(file) == 0;
  if (!(written && flushed && closed)) {
    storage_dead_ = true;
    return set_error(error, "short append to " + path + ": " + errno_text());
  }
  bytes_written_ += with_newline.size();
  return true;
}

}  // namespace originscan::core
