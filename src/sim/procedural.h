// Lazy, seed-derived block facts for full-IPv4-scale scans.
//
// The Topology stores one facts entry per /24 it covers, which caps the
// universe it can describe. This layer removes the cap: above a
// hand-authored override region (where the paper's named networks —
// DXTL, Gateway Inc, Cloudflare anycast, and every other scenario AS —
// keep their exact prefixes), AS membership and geolocation are derived
// on demand from mix(seed, block). Hosts need nothing extra here: every
// world derives them per address from the block's AS (World::host_at),
// so nothing per-address is ever stored and a 4.3B-address sweep runs
// in O(catalog) memory.
//
// Determinism contract (DESIGN.md §10): every derivation is a pure
// function of (world seed, block). Two lookups of the same block — from
// any thread, any lane, any --jobs value — return identical facts, so
// procedural state commutes with parallel execution exactly like the
// topology's table does.
#pragma once

#include <cstdint>
#include <vector>

#include "netbase/ipv4.h"
#include "sim/country.h"
#include "sim/topology.h"
#include "sim/types.h"

namespace originscan::sim {

// One procedural AS archetype: a real AsId registered in the Topology
// (so policies, path profiles, outage schedules and its World::host_params
// entry attach normally), plus its share of the procedural address space.
struct ProceduralEntry {
  AsId as = kNoAs;
  CountryCode country{};
  std::uint32_t weight = 1;  // relative share of routed procedural blocks
};

class ProceduralWorld {
 public:
  // Activates procedural derivation for addresses in
  // [first_addr, universe_size); the override region [0, first_addr)
  // stays on the topology's table. `first_addr` must be /24-aligned.
  void configure(std::uint64_t seed, std::uint32_t first_addr,
                 std::uint32_t universe_size);

  void add_entry(ProceduralEntry entry) { entries_.push_back(entry); }

  // Builds the draw -> entry table; call once after the last add_entry.
  // Aborts if the catalog weighs nothing (no entries, or all of weight
  // 0) or has more entries than the table's index type can name.
  void freeze();

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::uint32_t first_addr() const { return first_addr_; }
  [[nodiscard]] const std::vector<ProceduralEntry>& entries() const {
    return entries_;
  }

  [[nodiscard]] bool covers(net::Ipv4Addr addr) const {
    return enabled_ && addr.value() >= first_addr_ &&
           addr.value() < universe_size_;
  }

  // Derives the facts of /24 block `block` (= addr >> 8). Pure in
  // (seed, block); O(1): one mix for the unrouted coin, one for the
  // weighted draw, and a table read.
  [[nodiscard]] BlockFacts block_facts(std::uint32_t block) const;

 private:
  bool enabled_ = false;
  bool frozen_ = false;
  std::uint64_t seed_ = 0;
  std::uint32_t first_addr_ = 0;
  std::uint32_t universe_size_ = 0;
  // Share of procedural /24s with no announcement at all (the unrouted
  // space every full-IPv4 sweep wastes probes on).
  std::uint32_t unrouted_percent_ = 24;
  std::vector<ProceduralEntry> entries_;
  // entry_of_draw_[d] is the index of the entry that weighted draw d in
  // [0, total_weight_) selects: one run of `weight` copies per entry, in
  // catalog order.
  std::vector<std::uint8_t> entry_of_draw_;
  std::uint64_t total_weight_ = 0;
};

}  // namespace originscan::sim
