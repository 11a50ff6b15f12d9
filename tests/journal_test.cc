// Unit tests for the crash-safe experiment journal: manifest replay,
// fingerprint binding, torn- and malformed-line handling, segment
// integrity, the salvage verdicts, the IDS snapshot round trip, and
// lost-cell records.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "core/journal.h"
#include "netbase/rng.h"
#include "tests/test_world.h"

namespace originscan::core {
namespace {

using originscan::testing::scratch_dir;

namespace fs = std::filesystem;

constexpr char kFingerprint[] = "deadbeefcafef00d";

scan::ScanResult sample_result() {
  scan::ScanResult result;
  result.origin_code = "ONE";
  result.protocol = proto::Protocol::kHttp;
  result.trial = 1;
  net::Rng rng(17);
  for (int i = 0; i < 40; ++i) {
    scan::ScanRecord record;
    record.addr = net::Ipv4Addr(static_cast<std::uint32_t>(i * 11));
    record.synack_mask = static_cast<std::uint8_t>(rng() & 3);
    record.l7 = static_cast<sim::L7Outcome>(rng() % 8);
    record.probe_second = static_cast<std::uint32_t>(rng() % 75600);
    result.records.push_back(record);
  }
  result.l4_stats.targets_probed = 40;
  result.l4_stats.packets_sent = 80;
  result.l4_stats.synacks = 33;
  result.attempt_histogram = {40, 7};
  return result;
}

IdsSnapshot sample_snapshot() {
  IdsSnapshot snapshot;
  IdsSnapshot::AsEntry entry;
  entry.as = 2;
  entry.probe_counts = {{100, 7}, {200, 9}};
  entry.blocked_ips = {{100, 1}};
  snapshot.entries.push_back(entry);
  return snapshot;
}

CellKey sample_key() {
  return CellKey{"ONE", proto::Protocol::kHttp, 1};
}

TEST(IdsSnapshot, SerializeParseRoundTrip) {
  const IdsSnapshot snapshot = sample_snapshot();
  const auto parsed = IdsSnapshot::parse(snapshot.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, snapshot);

  const IdsSnapshot empty;
  const auto parsed_empty = IdsSnapshot::parse(empty.serialize());
  ASSERT_TRUE(parsed_empty.has_value());
  EXPECT_EQ(*parsed_empty, empty);

  // Corruption is detected.
  auto bytes = snapshot.serialize();
  bytes[bytes.size() / 2] ^= 0x40;
  EXPECT_FALSE(IdsSnapshot::parse(bytes).has_value());
}

TEST(IdsSnapshot, CaptureRestoreIsAnOriginScopedSlice) {
  sim::PersistentState state;
  state.ids[1];  // AS with no counters
  state.ids[2].probe_counts = {{100, 7}, {200, 9}, {999, 4}};
  state.ids[2].blocked_ips = {{100, 1}, {999, 0}};

  // The origin owns IPs 100 and 200; IP 999 belongs to someone else.
  const std::vector<net::Ipv4Addr> ips = {net::Ipv4Addr(100),
                                          net::Ipv4Addr(200)};
  const IdsSnapshot snapshot = capture_ids(state, ips);
  EXPECT_EQ(snapshot, sample_snapshot());

  // Mutate the origin's slice and a foreign entry, then restore.
  state.ids[2].probe_counts[100] = 77;
  state.ids[2].probe_counts.erase(200);
  state.ids[2].blocked_ips[200] = 2;
  state.ids[2].probe_counts[999] = 5;
  restore_ids(state, ips, snapshot);

  EXPECT_EQ(state.ids[2].probe_counts.at(100), 7u);
  EXPECT_EQ(state.ids[2].probe_counts.at(200), 9u);
  EXPECT_EQ(state.ids[2].blocked_ips.count(200), 0u);
  // The foreign IP's (post-mutation) entry is untouched by restore.
  EXPECT_EQ(state.ids[2].probe_counts.at(999), 5u);
  EXPECT_EQ(state.ids[2].blocked_ips.at(999), 0);
}

TEST(ExperimentJournal, RecordDoneRoundTripsThroughReopen) {
  const std::string dir = scratch_dir("journal_roundtrip");
  const scan::ScanResult result = sample_result();
  const IdsSnapshot snapshot = sample_snapshot();
  {
    std::string error;
    auto journal = ExperimentJournal::open(dir, kFingerprint, &error);
    ASSERT_TRUE(journal.has_value()) << error;
    EXPECT_TRUE(journal->entries().empty());
    ASSERT_TRUE(journal->record_done(sample_key(), result, snapshot,
                                     /*attempts=*/2, &error))
        << error;
  }

  std::string error;
  auto journal = ExperimentJournal::open(dir, kFingerprint, &error);
  ASSERT_TRUE(journal.has_value()) << error;
  ASSERT_EQ(journal->entries().size(), 1u);
  const JournalEntry& entry = journal->entries().front();
  EXPECT_EQ(entry.status, JournalEntry::Status::kDone);
  EXPECT_EQ(entry.key, sample_key());
  EXPECT_EQ(entry.attempts, 2);
  EXPECT_EQ(journal->find(sample_key()), &entry);
  EXPECT_EQ(journal->find(CellKey{"TWO", proto::Protocol::kHttp, 1}), nullptr);

  IdsSnapshot loaded_snapshot;
  const auto loaded = journal->load_cell(entry, &loaded_snapshot, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->origin_code, result.origin_code);
  EXPECT_TRUE(loaded->records == result.records);
  EXPECT_TRUE(loaded->l4_stats == result.l4_stats);
  EXPECT_EQ(loaded->attempt_histogram, result.attempt_histogram);
  EXPECT_EQ(loaded_snapshot, snapshot);
}

TEST(ExperimentJournal, RejectsFingerprintMismatch) {
  const std::string dir = scratch_dir("journal_fingerprint");
  {
    auto journal = ExperimentJournal::open(dir, kFingerprint);
    ASSERT_TRUE(journal.has_value());
  }
  std::string error;
  EXPECT_FALSE(ExperimentJournal::open(dir, "0123456789", &error).has_value());
  EXPECT_NE(error.find("fingerprint mismatch"), std::string::npos) << error;
}

TEST(ExperimentJournal, InspectModeAdoptsManifestFingerprint) {
  const std::string dir = scratch_dir("journal_inspect");
  // Inspect mode on a journal that does not exist is an error, never a
  // silent create.
  std::string error;
  EXPECT_FALSE(ExperimentJournal::open(dir, "", &error).has_value());

  { ASSERT_TRUE(ExperimentJournal::open(dir, kFingerprint).has_value()); }
  const auto journal = ExperimentJournal::open(dir, "", &error);
  ASSERT_TRUE(journal.has_value()) << error;
  EXPECT_EQ(journal->fingerprint(), kFingerprint);
}

TEST(ExperimentJournal, DropsTornTrailingLine) {
  const std::string dir = scratch_dir("journal_torn");
  {
    std::string error;
    auto journal = ExperimentJournal::open(dir, kFingerprint, &error);
    ASSERT_TRUE(journal.has_value()) << error;
    ASSERT_TRUE(journal->record_done(sample_key(), sample_result(),
                                     sample_snapshot(), 1, &error))
        << error;
  }
  // Simulate a crash mid-append: a second line with no trailing newline.
  {
    std::ofstream manifest(dir + "/MANIFEST", std::ios::app);
    manifest << "done TWO HTTP 0 attempts=1 sha256=ab segment=trunc";
  }
  std::string error;
  {
    auto journal = ExperimentJournal::open(dir, kFingerprint, &error);
    ASSERT_TRUE(journal.has_value()) << error;
    EXPECT_EQ(journal->entries().size(), 1u);  // torn line dropped
    EXPECT_EQ(journal->dropped_lines(), 1u);
    // The handle cut the torn tail off: this append is a line of its own.
    const CellKey two{"TWO", proto::Protocol::kHttp, 1};
    scan::ScanResult result = sample_result();
    result.origin_code = two.origin_code;
    ASSERT_TRUE(
        journal->record_done(two, result, sample_snapshot(), 1, &error))
        << error;
  }
  auto journal = ExperimentJournal::open(dir, kFingerprint, &error);
  ASSERT_TRUE(journal.has_value()) << error;
  EXPECT_EQ(journal->entries().size(), 2u);
  EXPECT_EQ(journal->dropped_lines(), 0u);
}

TEST(ExperimentJournal, DropsMalformedManifestLines) {
  const std::string dir = scratch_dir("journal_malformed");
  {
    std::string error;
    auto journal = ExperimentJournal::open(dir, kFingerprint, &error);
    ASSERT_TRUE(journal.has_value()) << error;
    ASSERT_TRUE(journal->record_done(sample_key(), sample_result(),
                                     sample_snapshot(), 1, &error))
        << error;
  }
  {
    std::ofstream manifest(dir + "/MANIFEST", std::ios::app);
    manifest << "frobnicate ONE HTTP 0 attempts=1\n"
             << "done ONE HTTP x attempts=1 sha256=ab segment=s\n"
             << "lost ONE HTTP 2 attempts=1x reason=gone\n";
  }
  // The header still binds the journal; past it, a line that does not
  // parse is dropped like a torn one, and its cell is simply absent.
  std::string error;
  auto journal = ExperimentJournal::open(dir, kFingerprint, &error);
  ASSERT_TRUE(journal.has_value()) << error;
  EXPECT_EQ(journal->dropped_lines(), 3u);
  ASSERT_EQ(journal->entries().size(), 1u);
  EXPECT_EQ(journal->entries().front().key, sample_key());
}

TEST(ExperimentJournal, HeaderChecksStayStrict) {
  const std::string dir = scratch_dir("journal_bad_header");
  fs::create_directories(dir);
  for (const char* manifest :
       {"osnr-journal v9 fingerprint=deadbeefcafef00d\n",
        "osnr-journal v1 fingerprint=deadbeefcafef00d"}) {  // torn header
    std::ofstream(dir + "/MANIFEST", std::ios::trunc) << manifest;
    std::string error;
    EXPECT_FALSE(
        ExperimentJournal::open(dir, kFingerprint, &error).has_value());
    EXPECT_FALSE(ExperimentJournal::open(dir, "", &error).has_value())
        << manifest;
  }
}

TEST(ExperimentJournal, LoadCellDetectsSegmentCorruption) {
  const std::string dir = scratch_dir("journal_corrupt");
  std::string error;
  auto journal = ExperimentJournal::open(dir, kFingerprint, &error);
  ASSERT_TRUE(journal.has_value()) << error;
  ASSERT_TRUE(journal->record_done(sample_key(), sample_result(),
                                   sample_snapshot(), 1, &error))
      << error;
  const JournalEntry& entry = journal->entries().front();

  // Flip one byte in the middle of the .osnr segment.
  const std::string segment_path = dir + "/" + entry.segment + ".osnr";
  {
    std::fstream file(segment_path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(file.tellg());
    file.seekp(size / 2);
    char byte = 0;
    file.seekg(size / 2);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    file.seekp(size / 2);
    file.write(&byte, 1);
  }
  EXPECT_FALSE(journal->load_cell(entry, nullptr, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ExperimentJournal, LoadCellDetectsSidecarCorruption) {
  const std::string dir = scratch_dir("journal_sidecar");
  std::string error;
  auto journal = ExperimentJournal::open(dir, kFingerprint, &error);
  ASSERT_TRUE(journal.has_value()) << error;
  ASSERT_TRUE(journal->record_done(sample_key(), sample_result(),
                                   sample_snapshot(), 1, &error))
      << error;
  const JournalEntry& entry = journal->entries().front();
  {
    std::fstream file(dir + "/" + entry.segment + ".ids",
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekp(10);
    file.write("\x7f", 1);
  }
  EXPECT_FALSE(journal->load_cell(entry, nullptr, &error).has_value());
  EXPECT_FALSE(error.empty());
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(file),
          std::istreambuf_iterator<char>()};
}

TEST(CellSidecar, FramedSidecarRejectsTruncationAndFlips) {
  // The payload codec round-trips (the distributed runtime streams these
  // bytes unframed inside SEGMENT messages).
  const IdsSnapshot ids = sample_snapshot();
  const scan::ScanResult reference = sample_result();
  const auto payload = serialize_cell_sidecar(ids, reference.l4_stats,
                                              reference.attempt_histogram);
  IdsSnapshot out_ids;
  scan::ZMapScanner::Stats out_stats;
  std::vector<std::uint64_t> out_histogram;
  ASSERT_TRUE(parse_cell_sidecar(payload, out_ids, out_stats, out_histogram));
  EXPECT_EQ(out_ids, ids);
  EXPECT_TRUE(out_stats == reference.l4_stats);
  EXPECT_EQ(out_histogram, reference.attempt_histogram);

  // The journal's framed .ids file: truncation at any boundary and a
  // flipped byte anywhere fail the load, never over-read.
  const std::string dir = scratch_dir("journal_framed_sidecar");
  std::string error;
  auto journal = ExperimentJournal::open(dir, kFingerprint, &error);
  ASSERT_TRUE(journal.has_value()) << error;
  ASSERT_TRUE(journal->record_done(sample_key(), reference, ids, 1, &error))
      << error;
  const JournalEntry& entry = journal->entries().front();
  const std::string ids_path = dir + "/" + entry.segment + ".ids";
  const auto framed = read_bytes(ids_path);
  ASSERT_GT(framed.size(), payload.size());

  for (const std::size_t keep : {std::size_t{0}, std::size_t{4},
                                 std::size_t{15}, framed.size() - 1}) {
    auto torn = framed;
    torn.resize(keep);
    write_bytes(ids_path, torn);
    EXPECT_FALSE(journal->load_cell(entry, nullptr, &error).has_value())
        << "accepted a sidecar truncated to " << keep << " bytes";
  }
  for (const std::size_t at :
       {std::size_t{0}, framed.size() / 2, framed.size() - 1}) {
    auto flipped = framed;
    flipped[at] ^= 0x40;
    write_bytes(ids_path, flipped);
    EXPECT_FALSE(journal->load_cell(entry, nullptr, &error).has_value())
        << "accepted a sidecar with byte " << at << " flipped";
  }
  write_bytes(ids_path, framed);
  EXPECT_TRUE(journal->load_cell(entry, nullptr, &error).has_value())
      << error;
}

TEST(ExperimentJournal, LoadCellRejectsUnframedSidecar) {
  const std::string dir = scratch_dir("journal_unframed_sidecar");
  std::string error;
  auto journal = ExperimentJournal::open(dir, kFingerprint, &error);
  ASSERT_TRUE(journal.has_value()) << error;
  const scan::ScanResult result = sample_result();
  const IdsSnapshot snapshot = sample_snapshot();
  ASSERT_TRUE(journal->record_done(sample_key(), result, snapshot, 1, &error))
      << error;
  const JournalEntry& entry = journal->entries().front();

  // An intact payload without the frame envelope is corruption: the
  // journal reads framed sidecars only.
  write_bytes(dir + "/" + entry.segment + ".ids",
              serialize_cell_sidecar(snapshot, result.l4_stats,
                                     result.attempt_histogram));
  EXPECT_FALSE(journal->load_cell(entry, nullptr, &error).has_value());
  EXPECT_NE(error.find("corrupt sidecar"), std::string::npos) << error;
}

TEST(ExperimentJournal, LoadCellRejectsASegmentOfAnotherCell) {
  const std::string dir = scratch_dir("journal_other_cell");
  std::string error;
  auto journal = ExperimentJournal::open(dir, kFingerprint, &error);
  ASSERT_TRUE(journal.has_value()) << error;
  ASSERT_TRUE(journal->record_done(sample_key(), sample_result(),
                                   sample_snapshot(), 1, &error))
      << error;
  // A manifest line garbled into another key: segment and digest intact.
  JournalEntry garbled = journal->entries().front();
  garbled.key.trial = 2;
  EXPECT_FALSE(journal->load_cell(garbled, nullptr, &error).has_value());
  EXPECT_NE(error.find("holds a different cell"), std::string::npos)
      << error;
}

TEST(ExperimentJournal, SalvageBreaksAChainAtItsFirstCorruptCell) {
  const std::string dir = scratch_dir("journal_salvage");
  std::string error;
  auto journal = ExperimentJournal::open(dir, kFingerprint, &error);
  ASSERT_TRUE(journal.has_value()) << error;
  const auto record = [&](int trial) {
    scan::ScanResult result = sample_result();
    result.trial = trial;
    return journal->record_done(CellKey{"ONE", proto::Protocol::kHttp, trial},
                                result, sample_snapshot(), 1, &error);
  };
  ASSERT_TRUE(record(0)) << error;
  ASSERT_TRUE(journal->record_lost(
      CellKey{"ONE", proto::Protocol::kHttp, 1}, 3, "deadline", &error));
  ASSERT_TRUE(record(2)) << error;
  ASSERT_TRUE(record(3)) << error;
  ASSERT_TRUE(journal->record_lost(
      CellKey{"ONE", proto::Protocol::kHttp, 4}, 3, "deadline", &error));
  {
    std::fstream file(dir + "/" + journal->entries()[2].segment + ".osnr",
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekp(40);
    file.write("\x7f", 1);
  }

  // ok, lost, corrupt (the chain breaks), then followers, lost or done.
  const Verdict want[] = {Verdict::kOk, Verdict::kLost, Verdict::kCorrupt,
                          Verdict::kFollower, Verdict::kFollower};
  bool chain_broken = false;
  for (std::size_t i = 0; i < std::size(want); ++i) {
    std::optional<scan::ScanResult> result;
    IdsSnapshot snapshot;
    EXPECT_EQ(journal->salvage(journal->entries()[i], chain_broken, result,
                               &snapshot, &error),
              want[i])
        << "entry " << i;
    EXPECT_EQ(result.has_value(), want[i] == Verdict::kOk) << "entry " << i;
  }
  EXPECT_TRUE(chain_broken);
}

TEST(ExperimentJournal, QuarantineDemotesAndReRecordSupersedes) {
  const std::string dir = scratch_dir("journal_quarantine");
  std::string error;
  auto journal = ExperimentJournal::open(dir, kFingerprint, &error);
  ASSERT_TRUE(journal.has_value()) << error;
  ASSERT_TRUE(journal->record_done(sample_key(), sample_result(),
                                   sample_snapshot(), 1, &error))
      << error;
  ASSERT_TRUE(journal->settled(sample_key()));

  // Quarantine demotes the cell to absent in this handle's view only.
  journal->quarantine(sample_key());
  EXPECT_EQ(journal->find(sample_key()), nullptr);
  EXPECT_FALSE(journal->settled(sample_key()));

  // Re-recording appends a fresh manifest line; last-wins replay at the
  // next open resolves the pair to the fresh entry, not a duplicate.
  ASSERT_TRUE(journal->record_done(sample_key(), sample_result(),
                                   sample_snapshot(), 2, &error))
      << error;
  auto reopened = ExperimentJournal::open(dir, kFingerprint, &error);
  ASSERT_TRUE(reopened.has_value()) << error;
  ASSERT_EQ(reopened->entries().size(), 1u);
  EXPECT_EQ(reopened->entries().front().attempts, 2);
  EXPECT_TRUE(
      reopened->load_cell(reopened->entries().front(), nullptr, &error)
          .has_value())
      << error;
}

TEST(ExperimentJournal, InjectedEnospcFailsWritesAndLatchesStorageDead) {
  const std::string dir = scratch_dir("journal_enospc");
  std::string error;
  auto journal = ExperimentJournal::open(dir, kFingerprint, &error);
  ASSERT_TRUE(journal.has_value()) << error;

  const auto plan = fault::FaultPlan::parse("enospc:bytes=0");
  ASSERT_TRUE(plan.has_value());
  const fault::FaultInjector injector(*plan, 0xFA57u);
  obsv::MetricBlock fault_metrics;
  journal->set_fault_injector(&injector, &fault_metrics);

  EXPECT_FALSE(journal->record_done(sample_key(), sample_result(),
                                    sample_snapshot(), 1, &error));
  EXPECT_NE(error.find("no space"), std::string::npos) << error;
  EXPECT_TRUE(journal->storage_dead());
  EXPECT_FALSE(journal->settled(sample_key()));
  EXPECT_GT(fault_metrics.counter(obsv::Counter::kFaultEnospc), 0u);
}

TEST(ExperimentJournal, InjectedSegmentCorruptionIsCaughtAtLoad) {
  const std::string dir = scratch_dir("journal_injected_corrupt");
  std::string error;
  auto journal = ExperimentJournal::open(dir, kFingerprint, &error);
  ASSERT_TRUE(journal.has_value()) << error;

  // File index 0 is the cell's .osnr segment: the write lands, then one
  // seed-chosen byte flips — the decay a resume quarantines.
  const auto plan = fault::FaultPlan::parse("segment_corrupt:file=0");
  ASSERT_TRUE(plan.has_value());
  const fault::FaultInjector injector(*plan, 0xFA57u);
  obsv::MetricBlock fault_metrics;
  journal->set_fault_injector(&injector, &fault_metrics);

  ASSERT_TRUE(journal->record_done(sample_key(), sample_result(),
                                   sample_snapshot(), 1, &error))
      << error;
  EXPECT_FALSE(journal->storage_dead());  // corruption is not exhaustion
  EXPECT_GT(fault_metrics.counter(obsv::Counter::kFaultSegmentCorrupt), 0u);
  EXPECT_FALSE(
      journal->load_cell(journal->entries().front(), nullptr, &error)
          .has_value());
}

TEST(ExperimentJournal, RecordsAndReplaysLostCells) {
  const std::string dir = scratch_dir("journal_lost");
  std::string error;
  {
    auto journal = ExperimentJournal::open(dir, kFingerprint, &error);
    ASSERT_TRUE(journal.has_value()) << error;
    ASSERT_TRUE(journal->record_lost(sample_key(), /*attempts=*/3,
                                     "deadline exceeded in all 3 attempts",
                                     &error))
        << error;
  }
  auto journal = ExperimentJournal::open(dir, kFingerprint, &error);
  ASSERT_TRUE(journal.has_value()) << error;
  ASSERT_EQ(journal->entries().size(), 1u);
  const JournalEntry& entry = journal->entries().front();
  EXPECT_EQ(entry.status, JournalEntry::Status::kLost);
  EXPECT_EQ(entry.key, sample_key());
  EXPECT_EQ(entry.attempts, 3);
  EXPECT_EQ(entry.reason, "deadline exceeded in all 3 attempts");
}

}  // namespace
}  // namespace originscan::core
