// The routed topology: autonomous systems, their prefixes, and the
// per-/24 facts table that stands in for the routing-table snapshot and
// the MaxMind GeoIP database the paper uses.
//
// Country is tracked per prefix, not only per AS: several of the paper's
// key networks are registered in one country but announce space that
// geolocates elsewhere (DXTL's Bangladesh/South-Africa space, Gateway
// Inc.'s Japan-registered US-geolocating hosts, Cloudflare anycast).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "netbase/ipv4.h"
#include "sim/country.h"
#include "sim/types.h"

namespace originscan::sim {

// The facts of one /24 block: which AS announces it (kNoAs for unrouted
// space) and where it geolocates. Facts are per-/24 because real
// announcements are at least that coarse; the materialized table and the
// procedural derivation (procedural.h) both answer in this shape, and
// World::block_facts picks between them. The AS also keys the block's
// host population (World::host_params).
struct BlockFacts {
  AsId as = kNoAs;  // kNoAs: unrouted block (probes die before routing)
  CountryCode country{};
};

struct PrefixEntry {
  net::Prefix prefix;
  CountryCode country;  // geolocation of this prefix
};

struct AsInfo {
  AsId id = kNoAs;
  std::string name;
  CountryCode country;  // registration country of the AS
  std::vector<PrefixEntry> prefixes;

  [[nodiscard]] std::uint64_t address_count() const {
    std::uint64_t total = 0;
    for (const auto& entry : prefixes) total += entry.prefix.size();
    return total;
  }
};

class Topology {
 public:
  // Registers a new AS and returns its id. Attach prefixes with
  // add_prefix, then call freeze() once all prefixes are in.
  AsId add_as(std::string name, CountryCode country);

  // Adds a prefix; `geo` defaults to the AS registration country.
  void add_prefix(AsId as, net::Prefix prefix,
                  std::optional<CountryCode> geo = std::nullopt);

  // Fills the per-/24 facts table. Prefixes must be disjoint across
  // ASes and no longer than /24; freeze() aborts otherwise (a scenario
  // bug).
  void freeze();

  // The facts of /24 block `block` (= addr >> 8); blocks no prefix
  // covers read as unrouted. Whole-world lookups go through
  // World::block_facts, which also covers the procedural region.
  [[nodiscard]] BlockFacts block_facts(std::uint32_t block) const {
    const std::uint32_t slot = block - first_block_;  // wraps below it
    return slot < blocks_.size() ? blocks_[slot] : BlockFacts{};
  }

  [[nodiscard]] const AsInfo& as_info(AsId id) const { return ases_[id]; }
  [[nodiscard]] std::size_t as_count() const { return ases_.size(); }
  [[nodiscard]] const std::vector<AsInfo>& ases() const { return ases_; }
  [[nodiscard]] bool frozen() const { return frozen_; }

  // Finds an AS by (unique) name; kNoAs when absent.
  [[nodiscard]] AsId find_as(std::string_view name) const;

 private:
  std::vector<AsInfo> ases_;
  // One entry per /24 from first_block_ through the highest routed block.
  std::uint32_t first_block_ = 0;
  std::vector<BlockFacts> blocks_;
  bool frozen_ = false;
};

}  // namespace originscan::sim
