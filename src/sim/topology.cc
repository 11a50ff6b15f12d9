#include "sim/topology.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace originscan::sim {

AsId Topology::add_as(std::string name, CountryCode country) {
  assert(!frozen_);
  AsInfo info;
  info.id = static_cast<AsId>(ases_.size());
  info.name = std::move(name);
  info.country = country;
  ases_.push_back(std::move(info));
  return ases_.back().id;
}

void Topology::add_prefix(AsId as, net::Prefix prefix,
                          std::optional<CountryCode> geo) {
  assert(!frozen_);
  assert(as < ases_.size());
  ases_[as].prefixes.push_back(
      PrefixEntry{prefix, geo.value_or(ases_[as].country)});
}

void Topology::freeze() {
  assert(!frozen_);
  std::uint32_t lo = ~std::uint32_t{0};
  std::uint32_t hi = 0;
  for (const auto& as : ases_) {
    for (const auto& entry : as.prefixes) {
      if (entry.prefix.length() > 24) {
        std::fprintf(stderr,
                     "Topology::freeze: prefix %s of AS %u is longer than "
                     "/24\n",
                     entry.prefix.to_string().c_str(), as.id);
        std::abort();
      }
      lo = std::min(lo, entry.prefix.first().value() >> 8);
      hi = std::max(hi, entry.prefix.last().value() >> 8);
    }
  }
  if (lo <= hi) {
    first_block_ = lo;
    blocks_.resize(std::size_t{hi} - lo + 1);
  }
  for (const auto& as : ases_) {
    for (const auto& entry : as.prefixes) {
      const std::uint32_t last = entry.prefix.last().value() >> 8;
      for (std::uint32_t block = entry.prefix.first().value() >> 8;
           block <= last; ++block) {
        BlockFacts& facts = blocks_[block - first_block_];
        if (facts.as != kNoAs) {
          std::fprintf(stderr,
                       "Topology::freeze: overlapping prefixes between AS "
                       "%u and AS %u\n",
                       facts.as, as.id);
          std::abort();
        }
        facts.as = as.id;
        facts.country = entry.country;
      }
    }
  }
  frozen_ = true;
}

AsId Topology::find_as(std::string_view name) const {
  for (const auto& as : ases_) {
    if (as.name == name) return as.id;
  }
  return kNoAs;
}

}  // namespace originscan::sim
