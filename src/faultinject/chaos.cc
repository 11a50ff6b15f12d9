#include "faultinject/chaos.h"

#include <cinttypes>
#include <cstdio>

#include "netbase/rng.h"

namespace originscan::fault {
namespace {

// Per-(seed, round) decision stream. Each menu item draws from its own
// lane so adding a clause to the menu never perturbs the draws of the
// clauses after it within a round.
struct EpisodeRng {
  std::uint64_t seed;
  std::uint64_t round;

  [[nodiscard]] std::uint64_t word(std::uint64_t lane) const {
    return net::mix_u64(seed, round, lane, 0xC4A05EEDULL);
  }
  [[nodiscard]] double unit(std::uint64_t lane) const {
    return static_cast<double>(word(lane) >> 11) * 0x1.0p-53;
  }
  [[nodiscard]] std::uint64_t below(std::uint64_t lane,
                                    std::uint64_t bound) const {
    return bound == 0 ? 0 : word(lane) % bound;
  }
};

void append_clause(std::string& spec, const std::string& clause) {
  if (!spec.empty()) spec += ';';
  spec += clause;
}

std::string format_p(double p) {
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "%.2f", p);
  return buffer;
}

std::string window_clause(const char* keyword, const char* unit,
                          std::uint64_t lo, std::uint64_t width, double p) {
  char buffer[128];
  std::snprintf(buffer, sizeof buffer, "%s:%s=%" PRIu64 "..%" PRIu64 ",p=%s",
                keyword, unit, lo, lo + width, format_p(p).c_str());
  return buffer;
}

std::string host_clause(const char* keyword, std::uint64_t mod,
                        std::uint64_t rem, int attempts) {
  char buffer[128];
  std::snprintf(buffer, sizeof buffer,
                "%s:host%%%" PRIu64 "==%" PRIu64 ",attempts=%d", keyword, mod,
                rem, attempts);
  return buffer;
}

}  // namespace

ChaosEpisode make_chaos_episode(std::uint64_t seed, std::uint64_t round,
                                std::uint64_t cell_count,
                                std::uint32_t universe_size) {
  const EpisodeRng rng{seed, round};
  ChaosEpisode episode;

  episode.jobs = 1 + static_cast<int>(rng.below(1, 3));
  // Roughly two in five episodes run distributed; the rest exercise the
  // in-process chain scheduler at a randomized jobs count.
  episode.workers =
      rng.unit(2) < 0.4 ? 2 + static_cast<int>(rng.below(3, 2)) : 0;

  const std::uint64_t slots = static_cast<std::uint64_t>(universe_size) * 2;
  const std::uint64_t scan_seconds = 21 * 3600;

  std::string spec;

  // ---- Scan-layer damage (deterministic loss; mirrored into the soak
  // driver's reference run, so the oracle expects the same damage).
  if (rng.unit(10) < 0.5) {
    append_clause(spec, window_clause("drop", "slot", rng.below(11, slots),
                                      slots / 8, 0.05 + 0.35 * rng.unit(12)));
  }
  if (rng.unit(13) < 0.3) {
    std::string clause = window_clause(
        "outage", "sec", rng.below(14, scan_seconds - scan_seconds / 16),
        scan_seconds / 16, 1.0);
    if (rng.unit(15) < 0.5) {
      clause += ",origin=" + std::to_string(rng.below(16, 4));
    }
    append_clause(spec, clause);
  }
  if (rng.unit(17) < 0.3) {
    append_clause(spec,
                  window_clause("mac_corrupt", "slot", rng.below(18, slots),
                                slots / 10, 0.1 + 0.5 * rng.unit(19)));
  }

  // ---- Recoverable pipeline faults (absorbed by the send retry loop
  // and the L7 retry ladder).
  if (rng.unit(20) < 0.35) {
    append_clause(spec, window_clause("send_fail", "slot",
                                      rng.below(21, slots), slots / 6,
                                      0.2 + 0.6 * rng.unit(22)));
  }
  if (rng.unit(23) < 0.3) {
    append_clause(spec, host_clause("rst", 5 + rng.below(24, 7),
                                    rng.below(25, 5),
                                    1 + static_cast<int>(rng.below(26, 2))));
  }
  if (rng.unit(27) < 0.25) {
    append_clause(spec,
                  host_clause("banner_trunc", 6 + rng.below(28, 7),
                              rng.below(29, 6),
                              1 + static_cast<int>(rng.below(30, 2))));
  }
  if (rng.unit(31) < 0.25) {
    append_clause(spec,
                  host_clause("banner_stall", 7 + rng.below(32, 7),
                              rng.below(33, 7),
                              1 + static_cast<int>(rng.below(34, 2))));
  }

  // ---- Supervisor faults. cell_hang attempts stay strictly under the
  // default retry budget (3), so a hung cell always recovers — losses
  // from exhausted budgets would break the oracle's chain-prefix
  // invariant (a lost cell followed by live cells diverges from the
  // serial reference).
  if (rng.unit(40) < 0.35) {
    append_clause(
        spec, "cell_hang:cell=" + std::to_string(rng.below(41, cell_count)) +
                  ",sec=" + std::to_string(200000 + rng.below(42, 100000)) +
                  ",attempts=" +
                  std::to_string(1 + rng.below(43, 2)));
  }
  if (rng.unit(44) < 0.3) {
    append_clause(spec, "cell_crash:cell=" +
                            std::to_string(rng.below(45, cell_count)));
  }

  // ---- Storage decay. enospc ends the run as a labeled partial grid;
  // segment_corrupt plants damage the next resume must quarantine.
  if (rng.unit(50) < 0.18) {
    append_clause(spec, "enospc:bytes=" +
                            std::to_string(2000 + rng.below(51, 60000)));
  }
  if (rng.unit(52) < 0.3) {
    append_clause(spec,
                  "segment_corrupt:file=" +
                      std::to_string(rng.below(53, cell_count * 3)) +
                      ",count=1");
  }

  // ---- Distributed faults: at most ONE per episode, so the combined
  // grant-failure pressure on any single cell (one death or one garbled
  // frame) stays under the master's grant budget and no cell is lost to
  // it — same oracle argument as cell_hang above.
  if (episode.workers > 0 && rng.unit(60) < 0.5) {
    const std::uint64_t pick = rng.below(61, 5);
    const char* keyword = pick % 2 == 0 ? "worker_kill" : "worker_stall";
    if (pick < 2) {
      append_clause(
          spec, std::string(keyword) + ":worker=" +
                    std::to_string(rng.below(
                        62, static_cast<std::uint64_t>(episode.workers))));
    } else if (pick < 4) {
      static const char* kPhases[] = {"claim", "segment", "done"};
      append_clause(spec,
                    std::string(keyword) +
                        ":cell=" + std::to_string(rng.below(63, cell_count)) +
                        ",phase=" + kPhases[rng.below(64, 3)] +
                        ",attempts=1");
    } else {
      append_clause(
          spec,
          "frame_garble:worker=" +
              std::to_string(
                  rng.below(65, static_cast<std::uint64_t>(episode.workers))) +
              ",frame=" + std::to_string(rng.below(66, 12)) + ",count=1");
    }
  }

  episode.plan_spec = std::move(spec);
  return episode;
}

}  // namespace originscan::fault
