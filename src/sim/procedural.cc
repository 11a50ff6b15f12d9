#include "sim/procedural.h"

#include <algorithm>
#include <cassert>

#include "netbase/rng.h"

namespace originscan::sim {

void ProceduralWorld::configure(std::uint64_t seed, std::uint32_t first_addr,
                                std::uint32_t universe_size) {
  assert(first_addr % 256 == 0);
  assert(universe_size % 256 == 0);
  assert(first_addr <= universe_size);
  seed_ = seed;
  first_addr_ = first_addr;
  universe_size_ = universe_size;
  enabled_ = true;
}

void ProceduralWorld::freeze() {
  assert(!entries_.empty());
  cumulative_.clear();
  cumulative_.reserve(entries_.size());
  std::uint64_t total = 0;
  for (const ProceduralEntry& entry : entries_) {
    total += entry.weight;
    cumulative_.push_back(total);
  }
  total_weight_ = total;
  frozen_ = true;
}

BlockFacts ProceduralWorld::block_facts(std::uint32_t block) const {
  assert(frozen_);
  BlockFacts facts;
  // Unrouted coin first: a miss costs one mix and nothing else, which is
  // what the hot path pays for ~a quarter of the full address space.
  if (net::mix_u64(seed_, block, 0xB10C5u) % 100 < unrouted_percent_) {
    return facts;  // as == kNoAs
  }
  const std::uint64_t draw =
      net::mix_u64(seed_, block, 0xCA7Au) % total_weight_;
  const auto it =
      std::upper_bound(cumulative_.begin(), cumulative_.end(), draw);
  const ProceduralEntry& entry = entries_[it - cumulative_.begin()];
  facts.as = entry.as;
  facts.country = entry.country;
  return facts;
}

}  // namespace originscan::sim
