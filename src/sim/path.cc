#include "sim/path.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace originscan::sim {

PathLossModel::PathLossModel(const PathProfile& profile,
                             std::uint64_t stream_seed,
                             net::VirtualTime horizon)
    : profile_(profile), seed_(stream_seed) {
  if (profile_.bad_fraction <= 0.0 || profile_.mean_bad_duration_s <= 0.0) {
    return;  // path never enters Bad
  }
  net::Rng rng(stream_seed);
  const double mean_bad = profile_.mean_bad_duration_s;
  // Stationary fraction f = bad / (bad + good)  =>  good = bad * (1-f)/f.
  const double fraction = std::min(profile_.bad_fraction, 0.999);
  const double mean_good = mean_bad * (1.0 - fraction) / fraction;

  // Start the alternating renewal process in a random phase so trial
  // starts are not synchronized with Good-period starts.
  double t = -rng.exponential(1.0 / mean_good) * rng.uniform();
  const double horizon_s = horizon.seconds();
  while (t < horizon_s) {
    t += rng.exponential(1.0 / mean_good);
    if (t >= horizon_s) break;
    const double bad_end = t + rng.exponential(1.0 / mean_bad);
    bad_intervals_.push_back(
        {static_cast<std::int64_t>(t * 1e6),
         static_cast<std::int64_t>(std::min(bad_end, horizon_s) * 1e6)});
    t = bad_end;
  }
}

bool PathLossModel::in_bad_state(net::VirtualTime t) const {
  const std::int64_t us = t.micros();
  auto it = std::upper_bound(
      bad_intervals_.begin(), bad_intervals_.end(), us,
      [](std::int64_t v, const BadInterval& b) { return v < b.start_us; });
  if (it == bad_intervals_.begin()) return false;
  --it;
  return us >= it->start_us && us < it->end_us;
}

bool PathLossModel::drop(net::VirtualTime t, std::uint64_t packet_key) const {
  const double p = loss_probability(t);
  if (p <= 0.0) return false;
  const std::uint64_t h = net::mix_u64(seed_, packet_key, 0xD60Bu);
  return static_cast<double>(h >> 11) * 0x1.0p-53 < p;
}

double PathLossModel::loss_probability(net::VirtualTime t) const {
  return in_bad_state(t) ? profile_.bad_loss : profile_.good_loss;
}

PathLossModel::LossWindow PathLossModel::loss_window(net::VirtualTime t) const {
  const std::int64_t us = t.micros();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  auto it = std::upper_bound(
      bad_intervals_.begin(), bad_intervals_.end(), us,
      [](std::int64_t v, const BadInterval& b) { return v < b.start_us; });
  // `it` is the first Bad interval starting strictly after t; the one
  // before it (if any) either contains t or ended already.
  if (it != bad_intervals_.begin()) {
    const auto& prev = *std::prev(it);
    if (us >= prev.start_us && us < prev.end_us) {
      return {profile_.bad_loss, prev.start_us, prev.end_us};
    }
    // In the Good gap between prev and it.
    return {profile_.good_loss, prev.end_us,
            it != bad_intervals_.end() ? it->start_us : kMax};
  }
  // Before the first Bad interval (or no Bad intervals at all).
  return {profile_.good_loss, kMin,
          it != bad_intervals_.end() ? it->start_us : kMax};
}

net::VirtualTime PathLossModel::total_bad_time() const {
  std::int64_t total = 0;
  for (const auto& interval : bad_intervals_) {
    total += interval.end_us - interval.start_us;
  }
  return net::VirtualTime::from_micros(total);
}

void PathTable::set_as_profile(AsId as, const PathProfile& profile) {
  per_as_[as] = profile;
}

void PathTable::set_pair_override(OriginId origin, AsId as,
                                  const PathProfile& profile) {
  per_pair_[{origin, as}] = profile;
}

void PathTable::set_origin_multiplier(OriginId origin, double multiplier) {
  multipliers_[origin] = multiplier;
}

PathProfile PathTable::profile(OriginId origin, AsId as) const {
  PathProfile result = default_;
  if (auto it = per_as_.find(as); it != per_as_.end()) result = it->second;
  bool pair_override = false;
  if (auto it = per_pair_.find({origin, as}); it != per_pair_.end()) {
    result = it->second;
    pair_override = true;
  }
  // Per-pair overrides describe the pair exactly; the origin multiplier
  // only scales the generic profiles.
  if (!pair_override) {
    if (auto it = multipliers_.find(origin); it != multipliers_.end()) {
      result.bad_fraction = std::min(0.9, result.bad_fraction * it->second);
      result.good_loss = std::min(0.5, result.good_loss * it->second);
    }
  }
  return result;
}

}  // namespace originscan::sim
