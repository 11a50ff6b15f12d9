// Construction of the "paper Internet": a scaled synthetic IPv4 universe
// whose AS archetypes, policies and path properties are wired to
// reproduce the mechanisms Wan et al. observed. The builder describes
// the host population as one HostGenParams entry per AS
// (World::host_params) and materializes no host: every lookup derives
// its host on demand. The analysis layer never sees any of this — it
// works purely from scan results.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "sim/world.h"

namespace originscan::sim {

struct ScenarioConfig {
  // Scanned addresses are [0, universe_size); must be a multiple of 256.
  std::uint32_t universe_size = 1u << 18;
  std::uint64_t seed = 0x05CA9;

  // Procedural mode: the named scenario's prefixes fill the override
  // region [0, 2^19) exactly as in a standalone world of the reference
  // scale (same AS ids, same hosts, same goldens), and the block facts
  // from the override boundary up to universe_size are derived lazily
  // from the seed through a generic AS catalog — no per-/24 table.
  // The host population shares are constants of the builder
  // (scenario.cc), the same for every world.
  bool procedural = false;

  static ScenarioConfig paper_default() { return {}; }

  // A small universe for unit/integration tests.
  static ScenarioConfig test_scale() {
    ScenarioConfig config;
    config.universe_size = 1u << 15;
    return config;
  }

  // A procedural universe of 2^bits addresses (bits in [20, 32]). At
  // bits == 32 the top /16 is reserved so the origin source blocks
  // still fit in 32 bits: the sweep covers 0xFFFF0000 addresses.
  static ScenarioConfig full_internet(int bits) {
    ScenarioConfig config;
    config.procedural = true;
    config.universe_size = bits >= 32 ? 0xFFFF0000u : (1u << bits);
    return config;
  }
};

// The seven main-study origins: AU, BR, DE, JP, US1, US64, CEN.
// Source IPs are placed just above the universe.
std::vector<OriginSpec> paper_origins(std::uint32_t universe_size);

// Main origins plus Carinet (scanned in one trial only, Section 2).
std::vector<OriginSpec> paper_origins_with_carinet(
    std::uint32_t universe_size);

// The September-2020 follow-up roster: AU, DE, JP, US1, CEN plus three
// Tier-1 providers (HE, NTT, TELIA) colocated in one Chicago data center.
std::vector<OriginSpec> colocated_origins(std::uint32_t universe_size);

// Builds the world for a given origin roster. Policies that name origins
// by code (e.g. "blocks Censys") resolve against this roster; codes not
// present are ignored, so the same scenario serves both rosters.
World build_world(const ScenarioConfig& config,
                  std::vector<OriginSpec> origins);

// Convenience: mask of the listed origin codes within a roster.
OriginMask mask_of(const std::vector<OriginSpec>& origins,
                   std::span<const std::string_view> codes);
OriginMask mask_of(const std::vector<OriginSpec>& origins,
                   std::initializer_list<std::string_view> codes);
OriginMask mask_all_except(const std::vector<OriginSpec>& origins,
                           std::initializer_list<std::string_view> codes);

}  // namespace originscan::sim
