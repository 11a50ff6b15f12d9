#include "sim/host.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "netbase/rng.h"

namespace originscan::sim {

void HostTable::freeze() {
  assert(!frozen_);
  std::sort(hosts_.begin(), hosts_.end(),
            [](const Host& a, const Host& b) { return a.addr < b.addr; });
  for (std::size_t i = 1; i < hosts_.size(); ++i) {
    if (hosts_[i].addr == hosts_[i - 1].addr) {
      std::fprintf(stderr, "HostTable::freeze: duplicate host %s\n",
                   hosts_[i].addr.to_string().c_str());
      std::abort();
    }
  }
  if (!hosts_.empty() && hosts_.back().addr.value() >= kDirectMapLimit) {
    std::fprintf(stderr,
                 "HostTable::freeze: host %s is beyond the 2^25-address "
                 "direct map; larger universes must be procedural\n",
                 hosts_.back().addr.to_string().c_str());
    std::abort();
  }
  direct_.assign(
      hosts_.empty() ? 0 : std::size_t{hosts_.back().addr.value()} + 1, 0);
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    direct_[hosts_[i].addr.value()] = static_cast<std::uint32_t>(i + 1);
  }
  frozen_ = true;
}

const Host* HostTable::find(net::Ipv4Addr addr) const {
  assert(frozen_);
  const std::uint32_t value = addr.value();
  if (value >= direct_.size()) return nullptr;
  const std::uint32_t slot = direct_[value];
  return slot == 0 ? nullptr : &hosts_[slot - 1];
}

bool HostTable::live_in_trial(const Host& host, int trial,
                              std::uint64_t experiment_seed) {
  if (host.live_percent >= 100) return true;
  const std::uint64_t h = net::mix_u64(host.seed, experiment_seed,
                                       static_cast<std::uint64_t>(trial) + 1,
                                       0x1157ULL);
  return (h % 100) < host.live_percent;
}

std::size_t HostTable::count_running(proto::Protocol p) const {
  std::size_t count = 0;
  for (const auto& host : hosts_) {
    if (host.runs(p)) ++count;
  }
  return count;
}

}  // namespace originscan::sim
