// Per-(origin, destination-AS) path behaviour: latency plus a
// Gilbert-Elliott two-state loss process. The paper's central observation
// — when one of two back-to-back probes is lost, the other is almost
// always lost too (>93%) — falls out of this model naturally: back-to-back
// probes land in the same Good/Bad period, and Bad periods drop nearly
// everything.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "netbase/rng.h"
#include "netbase/vtime.h"
#include "sim/types.h"

namespace originscan::sim {

struct PathProfile {
  double good_loss = 0.0005;        // drop probability in the Good state
  double bad_loss = 0.98;           // drop probability in the Bad state
  double bad_fraction = 0.004;      // stationary fraction of time in Bad
  double mean_bad_duration_s = 90;  // exponential mean of a Bad period
  double latency_ms = 80;

  // Long-run expected loss rate of the process.
  [[nodiscard]] double stationary_loss() const {
    return bad_fraction * bad_loss + (1.0 - bad_fraction) * good_loss;
  }
};

// The realized Good/Bad timeline of one path over one scan, generated
// deterministically from a stream seed. Bad intervals are materialized
// eagerly (a handful per scan) so state queries are a binary search.
class PathLossModel {
 public:
  PathLossModel(const PathProfile& profile, std::uint64_t stream_seed,
                net::VirtualTime horizon);

  [[nodiscard]] bool in_bad_state(net::VirtualTime t) const;

  // Deterministic per-packet drop decision; `packet_key` must be unique
  // per packet (mix of addr, probe index, direction).
  [[nodiscard]] bool drop(net::VirtualTime t, std::uint64_t packet_key) const;

  [[nodiscard]] double loss_probability(net::VirtualTime t) const;
  [[nodiscard]] const PathProfile& profile() const { return profile_; }

  // A maximal time window over which loss_probability is constant, for
  // batch consumers that probe many packets at nearby times: one lookup
  // amortizes over every packet whose time falls inside the window. The
  // window's p equals loss_probability(t) for every t it contains.
  struct LossWindow {
    double p = 0.0;
    std::int64_t start_us = 0;
    std::int64_t end_us = -1;  // exclusive; empty by default
    [[nodiscard]] bool contains(net::VirtualTime t) const {
      return t.micros() >= start_us && t.micros() < end_us;
    }
  };
  [[nodiscard]] LossWindow loss_window(net::VirtualTime t) const;

  // The raw stream seed, exposed so the batched drop kernel can compute
  // mix(seed, key, 0xD60B) for four packets at once. Must stay
  // bit-identical to what drop() uses.
  [[nodiscard]] std::uint64_t stream_seed() const { return seed_; }

  // Total Bad time over the horizon (for tests / calibration).
  [[nodiscard]] net::VirtualTime total_bad_time() const;

 private:
  struct BadInterval {
    std::int64_t start_us = 0;
    std::int64_t end_us = 0;
  };

  PathProfile profile_;
  std::uint64_t seed_;
  std::vector<BadInterval> bad_intervals_;  // sorted, disjoint
};

// Resolves the PathProfile for any (origin, AS) pair from layered
// configuration: per-pair override > per-AS profile > default, then the
// origin's loss multiplier scales the Bad fraction and Good loss.
class PathTable {
 public:
  void set_default_profile(const PathProfile& profile) { default_ = profile; }
  void set_as_profile(AsId as, const PathProfile& profile);
  void set_pair_override(OriginId origin, AsId as, const PathProfile& profile);
  void set_origin_multiplier(OriginId origin, double multiplier);

  [[nodiscard]] PathProfile profile(OriginId origin, AsId as) const;

 private:
  PathProfile default_;
  std::map<AsId, PathProfile> per_as_;
  std::map<std::pair<OriginId, AsId>, PathProfile> per_pair_;
  std::map<OriginId, double> multipliers_;
};

}  // namespace originscan::sim
