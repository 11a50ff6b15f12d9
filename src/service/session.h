// The universe/session split (DESIGN.md §14) — the refactor that makes
// one simulated Internet serve many tenants at once:
//
//   * FrozenUniverse: everything shared and READ-ONLY after startup.
//     One sim::World (topology, hosts, paths, policies, outage/loss
//     parameters, origin roster), built once and then frozen: the
//     daemon hands out only const references, so no request can
//     perturb another's decisions.
//
//   * ScanSession: everything one request mutates, owned privately.
//     A fresh sim::PersistentState (the per-tenant copy-on-write IDS
//     counters — they start empty and grow only for the ASes this
//     tenant's scan actually trips), one sim::Internet view over the
//     shared world (per-trial liveness, temporal-RST policy state,
//     MaxStartups queues, lazily built loss/outage caches), and the
//     scan engines' lane state. Nothing in a session outlives it or is
//     visible outside it.
//
// Why per-tenant results stay byte-identical to solo runs: a solo
// `originscan scan` is one session over a universe of its own, every
// scan decision is a pure function of (world seed, origin, protocol,
// trial, slot/host) plus the session's own mutable state, and that state
// starts empty. Concurrent sessions share only the immutable world, so
// interleaving cannot leak state between them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/store.h"
#include "obsv/metrics.h"
#include "obsv/trace.h"
#include "scanner/cancel.h"
#include "scanner/orchestrator.h"
#include "sim/internet.h"
#include "sim/scenario.h"

namespace originscan::service {

// The one immutable universe an `originscand` instance serves (and that
// `originscan scan` builds for its one session). Built once at startup
// (materialized or procedural scenario); every accessor is const — the
// compiler enforces the freeze.
class FrozenUniverse {
 public:
  // Builds the world of the paper origin roster over `scenario`.
  // Procedural scenarios derive state lazily but purely, so they are
  // frozen in the same sense — a derivation returns the same facts no
  // matter which session asks.
  explicit FrozenUniverse(const sim::ScenarioConfig& scenario);

  [[nodiscard]] const sim::World& world() const { return world_; }
  [[nodiscard]] std::uint64_t seed() const { return world_.seed; }
  [[nodiscard]] std::uint32_t universe_size() const {
    return world_.universe_size;
  }
  // ~OriginId{0} when unknown — the sim::World sentinel.
  [[nodiscard]] sim::OriginId origin_id(std::string_view code) const {
    return world_.origin_id(code);
  }

 private:
  sim::World world_;
};

// One scan request's parameters, as carried by SUBMIT.
struct SessionSpec {
  std::string origin_code = "US1";
  proto::Protocol protocol = proto::Protocol::kHttp;
  int trial = 1;    // 1-based, [1, 3] — the CLI's --trial convention
  int probes = 2;   // SYN probes per target, [1, 8]
  int retries = 0;  // L7 retry budget

  [[nodiscard]] bool valid() const {
    return trial >= 1 && trial <= 3 && probes >= 1 && probes <= 8 &&
           retries >= 0 && retries <= 8;
  }
};

// Outcome of one executed session.
struct SessionOutcome {
  bool ok = false;
  bool aborted = false;      // cancelled mid-scan; records are invalid
  std::string error;         // unknown origin / invalid spec
  // core::serialize_results(result): the bytes `originscan scan` and
  // `originscan client` both turn into the scan CSV.
  std::vector<std::uint8_t> records;
  std::size_t record_count = 0;
  std::size_t completed_count = 0;
};

// Executes one session against the shared universe. `cancel` (optional)
// aborts cooperatively at batch granularity; `metrics` (optional)
// receives the scan's own counters (zmap.*, sim.*, zgrab.*) as a
// single-writer block owned by this call; `trace` (optional, shared,
// internally locked) receives the scan's virtual-clock phase spans under
// `trace_track`. `scan_jobs` is the intra-scan lane count — results are
// byte-identical for any value.
SessionOutcome run_session(const FrozenUniverse& universe,
                           const SessionSpec& spec, int scan_jobs = 1,
                           const scan::CancelToken* cancel = nullptr,
                           obsv::MetricBlock* metrics = nullptr,
                           obsv::TraceRecorder* trace = nullptr,
                           const std::string& trace_track = {});

}  // namespace originscan::service
