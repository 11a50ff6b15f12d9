#include "service/session.h"

#include "sim/scenario.h"

namespace originscan::service {

FrozenUniverse::FrozenUniverse(const sim::ScenarioConfig& scenario)
    : world_(sim::build_world(scenario,
                              sim::paper_origins(scenario.universe_size))) {}

SessionOutcome run_session(const FrozenUniverse& universe,
                           const SessionSpec& spec, int scan_jobs,
                           const scan::CancelToken* cancel,
                           obsv::MetricBlock* metrics,
                           obsv::TraceRecorder* trace,
                           const std::string& trace_track) {
  SessionOutcome outcome;
  if (!spec.valid()) {
    outcome.error = "invalid session spec";
    return outcome;
  }
  const sim::OriginId origin = universe.origin_id(spec.origin_code);
  if (origin == ~sim::OriginId{0}) {
    outcome.error = "unknown origin: " + spec.origin_code;
    return outcome;
  }

  // The session's mutable state, all stack-owned: a fresh persistent
  // IDS map (copy-on-write in the lazy sense — entries materialize only
  // for ASes this scan actually touches) and one Internet view whose
  // loss/outage caches, per-trial liveness draws, and policy engine are
  // private to this request. `originscan scan` runs this same function
  // over a universe of its own, so a solo scan and a daemon's answer
  // share one code path; tests/service_test.cc pins
  // Experiment::run_extra_scan (bench/reproduce's follow-up scans) to it.
  sim::TrialContext context;
  context.trial = spec.trial - 1;
  context.experiment_seed = universe.seed();
  context.simultaneous_origins = 1;  // one-origin request, no synced burst
  sim::PersistentState persistent;
  sim::Internet internet(&universe.world(), context, &persistent);

  scan::ScanOptions options;
  options.probes = spec.probes;
  options.l7_retries = spec.retries;
  options.jobs = scan_jobs;
  options.cancel = cancel;
  options.metrics = metrics;
  options.trace = trace;
  if (trace != nullptr) options.trace_track = trace_track;

  scan::ScanResult result =
      scan::run_scan(internet, origin, spec.protocol, options);
  if (result.aborted) {
    outcome.aborted = true;
    outcome.error = "cancelled";
    return outcome;
  }
  outcome.ok = true;
  outcome.record_count = result.records.size();
  outcome.completed_count = result.completed_count();
  outcome.records = core::serialize_results(result);
  return outcome;
}

}  // namespace originscan::service
