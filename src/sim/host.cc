#include "sim/host.h"

#include "netbase/rng.h"

namespace originscan::sim {

bool live_in_trial(const Host& host, int trial,
                   std::uint64_t experiment_seed) {
  if (host.live_percent >= 100) return true;
  const std::uint64_t h = net::mix_u64(host.seed, experiment_seed,
                                       static_cast<std::uint64_t>(trial) + 1,
                                       0x1157ULL);
  return (h % 100) < host.live_percent;
}

}  // namespace originscan::sim
