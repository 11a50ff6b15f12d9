#include "sim/procedural.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>

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
  using Index = decltype(entry_of_draw_)::value_type;
  constexpr std::size_t kMaxEntries =
      std::size_t{std::numeric_limits<Index>::max()} + 1;
  if (entries_.size() > kMaxEntries) {
    std::fprintf(stderr,
                 "ProceduralWorld::freeze: %zu catalog entries, the draw "
                 "table indexes at most %zu\n",
                 entries_.size(), kMaxEntries);
    std::abort();
  }
  std::uint64_t total = 0;
  for (const ProceduralEntry& entry : entries_) total += entry.weight;
  if (total == 0) {
    std::fprintf(stderr, "ProceduralWorld::freeze: the catalog weighs "
                         "nothing\n");
    std::abort();
  }
  entry_of_draw_.clear();
  entry_of_draw_.reserve(total);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    entry_of_draw_.insert(entry_of_draw_.end(), entries_[i].weight,
                          static_cast<Index>(i));
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
  const ProceduralEntry& entry = entries_[entry_of_draw_[draw]];
  facts.as = entry.as;
  facts.country = entry.country;
  return facts;
}

}  // namespace originscan::sim
