// The injection-point registry contract: every fault point the library
// registers must be named, parseable from a spec clause, and — the part
// that keeps the registry honest — actually fired through an injector by
// this test suite (hit counters prove it). The FaultpointMetrics tests
// extend the contract to observability: every fault point increments its
// fault.* counter, and because injection decisions are pure functions of
// (seed, slot/host), the counts are exact, not merely positive.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/supervisor.h"
#include "faultinject/faultinject.h"
#include "obsv/metrics.h"
#include "scanner/orchestrator.h"
#include "sim/internet.h"
#include "tests/test_world.h"

namespace originscan::fault {
namespace {

FaultPlan must_parse(std::string_view spec) {
  std::string error;
  auto plan = FaultPlan::parse(spec, &error);
  EXPECT_TRUE(plan.has_value()) << spec << ": " << error;
  return plan.value_or(FaultPlan{});
}

// ---------------------------------------------------------- registry ----

TEST(FaultpointRegistry, AllPointsNamedAndDistinct) {
  const auto points = all_points();
  ASSERT_EQ(points.size(), static_cast<std::size_t>(kPointCount));
  std::set<std::string_view> names;
  for (Point point : points) {
    const std::string_view name = point_name(point);
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
}

TEST(FaultpointRegistry, EveryPointIsExercised) {
  // One clause per registered point. Host selectors are disjoint mod-3
  // classes so the single-winner l7_fault lookup cannot shadow a clause.
  const FaultPlan plan = must_parse(
      "drop:slot=0..1023,p=1;"
      "drop:sec=0..59,p=1;"
      "outage:sec=0..59;"
      "send_fail:slot=0..1023,p=1;"
      "mac_corrupt:slot=0..1023,p=1;"
      "rst:host%3==0;"
      "banner_trunc:host%3==1;"
      "banner_stall:host%3==2;"
      "cell_crash:cell=5;"
      "cell_hang:cell=7,sec=600,attempts=2;"
      "worker_kill:worker=3;"
      "worker_stall:cell=9,phase=done,attempts=2;"
      "enospc:bytes=4096;"
      "segment_corrupt:file=2,count=2;"
      "frame_garble:worker=1,frame=3,count=2");
  const FaultInjector injector(plan, /*seed=*/0xFA57u);

  // ZMap layer.
  EXPECT_TRUE(injector.drop_at_slot(7, net::Ipv4Addr(42)));
  EXPECT_GT(injector.send_failures(7, net::Ipv4Addr(42)), 0);
  EXPECT_TRUE(injector.corrupt_response(7, net::Ipv4Addr(42)));
  // sim layer.
  EXPECT_TRUE(injector.drop_at_time(net::VirtualTime::from_seconds(30.0),
                                    net::Ipv4Addr(42), 0));
  EXPECT_TRUE(injector.outage_at(net::VirtualTime::from_seconds(30.0)));
  // ZGrab layer.
  EXPECT_EQ(injector.l7_fault(net::Ipv4Addr(3), 0),
            FaultInjector::L7Fault::kRst);
  EXPECT_EQ(injector.l7_fault(net::Ipv4Addr(4), 0),
            FaultInjector::L7Fault::kTruncate);
  EXPECT_EQ(injector.l7_fault(net::Ipv4Addr(5), 0),
            FaultInjector::L7Fault::kStall);
  // Experiment layer (CellSupervisor).
  EXPECT_TRUE(injector.cell_crash(5));
  EXPECT_FALSE(injector.cell_crash(6));
  EXPECT_EQ(injector.cell_hang_seconds(7, 0), 600u);
  EXPECT_EQ(injector.cell_hang_seconds(7, 1), 600u);
  EXPECT_EQ(injector.cell_hang_seconds(7, 2), 0u);  // past attempts=2
  EXPECT_EQ(injector.cell_hang_seconds(8, 0), 0u);  // different cell
  // Distributed layer (core::run_worker checkpoints). These hit counts
  // must be queried in-process: a real distributed run records them in
  // the forked worker, invisibly to the master's copy-on-write pages.
  EXPECT_TRUE(injector.worker_kill(3, WorkerPhase::kHello, 0, 0));
  EXPECT_FALSE(injector.worker_kill(4, WorkerPhase::kHello, 0, 0));
  EXPECT_FALSE(injector.worker_kill(3, WorkerPhase::kClaim, 9, 0));
  EXPECT_TRUE(injector.worker_stall(1, WorkerPhase::kDone, 9, 0));
  EXPECT_TRUE(injector.worker_stall(2, WorkerPhase::kDone, 9, 1));
  EXPECT_FALSE(injector.worker_stall(1, WorkerPhase::kDone, 9, 2));
  EXPECT_FALSE(injector.worker_stall(1, WorkerPhase::kSegment, 9, 0));
  EXPECT_FALSE(injector.worker_stall(1, WorkerPhase::kDone, 8, 0));
  EXPECT_EQ(injector.hits(Point::kWorkerKill), 1u);
  EXPECT_EQ(injector.hits(Point::kWorkerStall), 2u);
  // Storage layer (journal durable writes).
  EXPECT_FALSE(injector.enospc(4095));
  EXPECT_TRUE(injector.enospc(4096));   // threshold is inclusive...
  EXPECT_TRUE(injector.enospc(99999));  // ...and the failure is permanent
  EXPECT_FALSE(injector.segment_corrupt(1));
  EXPECT_TRUE(injector.segment_corrupt(2));
  EXPECT_TRUE(injector.segment_corrupt(3));
  EXPECT_FALSE(injector.segment_corrupt(4));  // past file+count
  EXPECT_LT(injector.corrupt_offset(2, 100), 100u);
  EXPECT_EQ(injector.corrupt_offset(2, 100), injector.corrupt_offset(2, 100));
  // Distributed transport layer (the worker's socketpair frames).
  EXPECT_FALSE(injector.frame_garble(0, 3));  // different worker
  EXPECT_TRUE(injector.frame_garble(1, 3));
  EXPECT_TRUE(injector.frame_garble(1, 4));
  EXPECT_FALSE(injector.frame_garble(1, 5));  // past frame+count
  EXPECT_LT(injector.garble_offset(1, 3, 64), 64u);

  // The registry assertion proper: every point fired at least once.
  for (Point point : all_points()) {
    EXPECT_GT(injector.hits(point), 0u)
        << "injection point '" << point_name(point)
        << "' was never exercised";
  }
  EXPECT_GE(injector.total_hits(), static_cast<std::uint64_t>(kPointCount));
}

TEST(FaultpointRegistry, QueriesArePureFunctions) {
  const FaultPlan plan = must_parse("drop:slot=0..100,p=0.5;rst:host%2==1");
  const FaultInjector a(plan, 0x1234u);
  const FaultInjector b(plan, 0x1234u);
  const FaultInjector other_seed(plan, 0x9999u);

  int differs_from_other_seed = 0;
  for (std::uint64_t slot = 0; slot <= 100; ++slot) {
    const net::Ipv4Addr dst(static_cast<std::uint32_t>(slot * 7));
    EXPECT_EQ(a.drop_at_slot(slot, dst), b.drop_at_slot(slot, dst));
    if (a.drop_at_slot(slot, dst) != other_seed.drop_at_slot(slot, dst)) {
      ++differs_from_other_seed;
    }
    EXPECT_EQ(a.l7_fault(dst, 0), b.l7_fault(dst, 0));
  }
  EXPECT_GT(differs_from_other_seed, 0);  // the seed actually matters
}

// ---------------------------------------------------------- semantics ----

TEST(FaultPlanSemantics, RecoverabilityClassification) {
  EXPECT_TRUE(must_parse("send_fail:slot=0..9,p=1").recoverable());
  EXPECT_TRUE(must_parse("rst:host%5==0").recoverable());
  EXPECT_TRUE(must_parse("banner_trunc:host%5==0").recoverable());
  EXPECT_TRUE(must_parse("banner_stall:host%5==0").recoverable());
  EXPECT_FALSE(must_parse("drop:slot=0..9,p=1").recoverable());
  EXPECT_FALSE(must_parse("outage:sec=0..9").recoverable());
  EXPECT_FALSE(must_parse("mac_corrupt:slot=0..9,p=1").recoverable());
  // Cell faults interrupt the run; their recovery crosses runs (journal
  // resume) or goes through the supervisor, so within-run recoverability
  // is false by definition.
  EXPECT_FALSE(must_parse("cell_crash:cell=0").recoverable());
  EXPECT_FALSE(must_parse("cell_hang:cell=0,sec=60").recoverable());
  // Worker faults kill or wedge processes; recovery is the master's
  // grant rollback, never within-run.
  EXPECT_FALSE(must_parse("worker_kill:worker=0").recoverable());
  EXPECT_FALSE(
      must_parse("worker_stall:cell=2,phase=segment").recoverable());
  // Storage/transport decay: enospc is permanent, segment corruption
  // costs a quarantined re-scan, and a garbled frame burns a grant —
  // none is absorbed within the faulted run itself.
  EXPECT_FALSE(must_parse("enospc:bytes=4096").recoverable());
  EXPECT_FALSE(must_parse("segment_corrupt:file=0").recoverable());
  EXPECT_FALSE(must_parse("frame_garble:worker=0,frame=0").recoverable());
  // Mixed plan: one degrading clause poisons the whole plan.
  EXPECT_FALSE(must_parse("rst:host%5==0;drop:slot=0..9,p=1").recoverable());
}

TEST(FaultPlanSemantics, RetryBudgetAndBannerNeeds) {
  const auto rst = must_parse("rst:host%5==0,attempts=3");
  EXPECT_EQ(rst.min_l7_retries(), 3);
  EXPECT_FALSE(rst.needs_banner_retry());

  const auto trunc = must_parse("banner_trunc:host%5==0,attempts=2");
  EXPECT_EQ(trunc.min_l7_retries(), 2);
  EXPECT_TRUE(trunc.needs_banner_retry());

  EXPECT_EQ(must_parse("drop:slot=0..9,p=1").min_l7_retries(), 0);
}

TEST(FaultPlanSemantics, OriginScopedOutage) {
  const FaultPlan plan = must_parse("outage:sec=0..59,origin=2");
  const FaultInjector injector(plan, 0xFA57u);
  const auto noon = net::VirtualTime::from_seconds(30.0);
  EXPECT_TRUE(injector.outage_at(noon, 2));
  EXPECT_FALSE(injector.outage_at(noon, 0));
  EXPECT_FALSE(injector.outage_at(noon));  // no origin identity
  // An unscoped outage darkens everyone.
  const FaultInjector global(must_parse("outage:sec=0..59"), 0xFA57u);
  EXPECT_TRUE(global.outage_at(noon, 2));
  EXPECT_TRUE(global.outage_at(noon));
}

TEST(FaultPlanSemantics, RoundTripsThroughToString) {
  const char* specs[] = {
      "drop:slot=1024..2048,p=0.3;banner_trunc:host%7==0;cell_crash:cell=3",
      "outage:sec=3600..7200",
      "send_fail:slot=0..100,p=0.25;rst:host%5==1,attempts=2,p=0.5",
      "outage:sec=0..600,origin=1",
      "cell_crash:cell=4",
      "cell_hang:cell=9,sec=7200,attempts=3",
      "worker_kill:worker=2",
      "worker_stall:cell=5,phase=segment,attempts=2",
      "worker_kill:cell=0,phase=claim;worker_kill:cell=1,phase=done",
      "enospc:bytes=4096",
      "segment_corrupt:file=2,count=3",
      "frame_garble:worker=1,frame=5,count=2",
      "enospc:bytes=0;segment_corrupt:file=0;frame_garble:worker=0,frame=0",
  };
  for (const char* spec : specs) {
    const FaultPlan plan = must_parse(spec);
    const FaultPlan reparsed = must_parse(plan.to_string());
    EXPECT_EQ(plan.to_string(), reparsed.to_string()) << spec;
    EXPECT_EQ(plan.clauses().size(), reparsed.clauses().size()) << spec;
  }
}

TEST(FaultPlanSemantics, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",                            // empty spec
      ";",                           // empty clause
      "drop",                        // missing args
      "drop:slot=9..1,p=1",          // reversed range
      "drop:slot=0..1,p=1.5",        // probability out of range
      "drop:slot=0..1,p=-0.1",       // negative probability
      "drop:sec=abc..1",             // junk number
      "drop:slot=18446744073709551616..2,p=1",  // u64 overflow
      "outage:slot=0..1",            // outage is seconds-only
      "send_fail:sec=0..1,p=1",      // send_fail is slot-only
      "rst:host%0==0",               // zero modulus
      "rst:host%4==4",               // remainder >= modulus
      "rst:host%4==1,attempts=0",    // attempts below 1
      "rst:host%4==1,attempts=99",   // attempts above cap
      "nonsense:slot=0..1",          // unknown point
      "drop:slot=0..1,p=1;;rst:host%2==0",  // empty clause mid-spec
      "drop:slot=0..1,p=1,origin=0",  // origin scope is outage-only
      "outage:sec=0..1,origin=256",   // origin id out of range
      "cell_crash",                   // missing cell index
      "cell_crash:cell=abc",          // junk cell index
      "cell_crash:cell=0,sec=5",      // sec is cell_hang-only
      "cell_hang:cell=0",             // missing stall duration
      "cell_hang:cell=0,sec=0",       // zero stall
      "cell_hang:sec=5",              // missing cell index
      "cell_hang:cell=0,sec=5,attempts=99",  // attempts above cap
      "worker_kill",                  // missing selector
      "worker_kill:worker=0,cell=1,phase=claim",  // both selector forms
      "worker_kill:worker=256",       // worker index out of range
      "worker_kill:worker=0,phase=claim",  // worker= is pre-HELLO only
      "worker_kill:cell=0",           // cell= needs a phase
      "worker_kill:cell=0,phase=hello",    // hello is worker= only
      "worker_stall:cell=0,phase=nonsense",  // unknown phase
      "worker_stall:cell=0,phase=done,attempts=99",  // attempts above cap
      "enospc",                       // missing byte threshold
      "enospc:bytes=abc",             // junk threshold
      "enospc:bytes=4096,count=2",    // count is corrupt/garble-only
      "segment_corrupt",              // missing file index
      "segment_corrupt:file=abc",     // junk file index
      "segment_corrupt:file=0,count=0",   // zero count
      "segment_corrupt:file=0,count=65",  // count above cap
      "frame_garble:frame=3",         // missing worker
      "frame_garble:worker=0",        // missing frame index
      "frame_garble:worker=256,frame=0",  // worker index out of range
      "frame_garble:worker=0,frame=1,count=65",  // count above cap
  };
  for (const char* spec : bad) {
    std::string error;
    EXPECT_FALSE(FaultPlan::parse(spec, &error).has_value()) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

// ------------------------------------------------ exact fault counts ----
//
// Each scenario below pins the fault.* counters to hand-computable
// values on the clean mini world (768 targets, 2 probes each, every
// probe answered). A drift in any of them means a tap moved or an
// injection decision changed — both behavior changes, not noise.

sim::TrialContext metrics_context(const sim::World& world) {
  sim::TrialContext context;
  context.experiment_seed = world.seed;
  context.simultaneous_origins = static_cast<int>(world.origins.size());
  return context;
}

TEST(FaultpointMetrics, ZmapSlotFaultsCountExactly) {
  // Slot-scoped clauses on disjoint ranges. The serial schedule gives
  // target i the consecutive slots {2i, 2i+1}, so a 10-slot window hits
  // exactly 5 targets on both probes.
  const FaultPlan plan = must_parse(
      "drop:slot=0..9,p=1;mac_corrupt:slot=100..109,p=1;"
      "send_fail:slot=200..209,p=1");
  const FaultInjector injector(plan, /*seed=*/0xFA57u);

  auto world = testing::make_mini_world();
  sim::PersistentState persistent;
  sim::Internet internet(&world, metrics_context(world), &persistent);

  obsv::MetricBlock metrics;
  scan::ScanOptions options;
  options.faults = &injector;
  options.metrics = &metrics;
  const auto result = run_scan(internet, 0, proto::Protocol::kHttp, options);

  // Drops happen after the send is counted: all 1536 probes leave.
  EXPECT_EQ(metrics.counter(obsv::Counter::kZmapProbesSent), 1536u);
  EXPECT_EQ(metrics.counter(obsv::Counter::kFaultProbeDrop), 10u);
  EXPECT_EQ(injector.hits(Point::kProbeDrop), 10u);
  // Every corrupted response fails MAC validation — nothing else does.
  EXPECT_EQ(metrics.counter(obsv::Counter::kFaultMacCorrupt), 10u);
  EXPECT_EQ(metrics.counter(obsv::Counter::kZmapValidationFailures), 10u);
  EXPECT_EQ(injector.hits(Point::kMacCorrupt), 10u);
  // send_fail records one hit per faulted slot but injects 1–2 retries;
  // the metric counts the retries and must agree with zmap.send_retries.
  EXPECT_EQ(injector.hits(Point::kSendFail), 10u);
  EXPECT_EQ(metrics.counter(obsv::Counter::kFaultSendFail),
            metrics.counter(obsv::Counter::kZmapSendRetries));
  EXPECT_GE(metrics.counter(obsv::Counter::kFaultSendFail), 10u);
  EXPECT_LE(metrics.counter(obsv::Counter::kFaultSendFail), 20u);
  // 5 targets lost both probes, 5 lost both responses to corruption.
  EXPECT_EQ(result.records.size(), 758u);

  // Fault decisions are pure functions of (seed, slot), so the counts
  // commute with the parallel lanes: the whole snapshot is identical.
  auto world4 = testing::make_mini_world();
  sim::PersistentState persistent4;
  sim::Internet internet4(&world4, metrics_context(world4), &persistent4);
  const FaultInjector injector4(plan, /*seed=*/0xFA57u);
  obsv::MetricBlock metrics4;
  scan::ScanOptions options4;
  options4.jobs = 4;
  options4.faults = &injector4;
  options4.metrics = &metrics4;
  run_scan(internet4, 0, proto::Protocol::kHttp, options4);
  EXPECT_EQ(obsv::snapshot_json(metrics), obsv::snapshot_json(metrics4));
}

TEST(FaultpointMetrics, SimTimeFaultsCountExactly) {
  // A 1536-second sweep over 1536 packets puts slot s exactly at t = s
  // seconds, so second-scoped windows map 1:1 onto slot windows.
  const FaultPlan plan = must_parse("drop:sec=0..9,p=1;outage:sec=20..29");
  const FaultInjector injector(plan, /*seed=*/0xFA57u);

  auto world = testing::make_mini_world();
  sim::PersistentState persistent;
  sim::Internet internet(&world, metrics_context(world), &persistent);
  internet.set_fault_injector(&injector);  // time faults live in the sim

  obsv::MetricBlock metrics;
  scan::ScanOptions options;
  options.scan_duration = net::VirtualTime::from_seconds(1536.0);
  options.faults = &injector;
  options.metrics = &metrics;
  run_scan(internet, 0, proto::Protocol::kHttp, options);

  // Time-scoped faults fire in the simulator, after routing: every probe
  // still counts as routed, and each fate bucket is exact.
  EXPECT_EQ(metrics.counter(obsv::Counter::kSimProbesRouted), 1536u);
  EXPECT_EQ(metrics.counter(obsv::Counter::kSimDropsFault), 20u);
  EXPECT_EQ(metrics.counter(obsv::Counter::kFaultProbeDrop), 10u);
  EXPECT_EQ(metrics.counter(obsv::Counter::kFaultOutage), 10u);
  // The world's own outage model stays quiet — the injected outage is
  // attributed to the fault bucket, not sim.drops.outage.
  EXPECT_EQ(metrics.counter(obsv::Counter::kSimDropsOutage), 0u);
}

TEST(FaultpointMetrics, L7FaultsCountOncePerAffectedHost) {
  // The mod-3 selectors partition the universe: every host draws exactly
  // one L7 fault on grab attempt 0 and recovers on the retry, so the
  // three counters sum to the full 768 and each matches an oracle count
  // computed from pure injector queries.
  const FaultPlan plan = must_parse(
      "rst:host%3==0;banner_trunc:host%3==1;banner_stall:host%3==2");
  const FaultInjector injector(plan, /*seed=*/0xFA57u);

  auto world = testing::make_mini_world();
  sim::PersistentState persistent;
  sim::Internet internet(&world, metrics_context(world), &persistent);

  obsv::MetricBlock metrics;
  scan::ScanOptions options;
  options.l7_retries = 1;
  options.retry_banner_failures = true;
  options.faults = &injector;
  options.metrics = &metrics;
  const auto result = run_scan(internet, 0, proto::Protocol::kHttp, options);
  ASSERT_EQ(result.records.size(), 768u);  // every host recovered

  std::uint64_t expect_rst = 0;
  std::uint64_t expect_trunc = 0;
  std::uint64_t expect_stall = 0;
  for (const auto& record : result.records) {
    for (int attempt = 0; attempt <= options.l7_retries; ++attempt) {
      switch (injector.l7_fault(record.addr, attempt)) {
        case FaultInjector::L7Fault::kNone:
          attempt = options.l7_retries;  // grab succeeded
          break;
        case FaultInjector::L7Fault::kRst:
          ++expect_rst;
          break;
        case FaultInjector::L7Fault::kTruncate:
          ++expect_trunc;
          break;
        case FaultInjector::L7Fault::kStall:
          ++expect_stall;
          break;
      }
    }
  }
  EXPECT_EQ(expect_rst + expect_trunc + expect_stall, 768u);
  EXPECT_EQ(metrics.counter(obsv::Counter::kFaultConnectRst), expect_rst);
  EXPECT_EQ(metrics.counter(obsv::Counter::kFaultBannerTrunc), expect_trunc);
  EXPECT_EQ(metrics.counter(obsv::Counter::kFaultBannerStall), expect_stall);
  EXPECT_GT(expect_rst, 0u);
  EXPECT_GT(expect_trunc, 0u);
  EXPECT_GT(expect_stall, 0u);
}

TEST(FaultpointMetrics, CellCrashCountsOnceIntoTheCellBlock) {
  const FaultPlan plan = must_parse("cell_crash:cell=5");
  const FaultInjector injector(plan, /*seed=*/0xFA57u);
  core::CellSupervisor supervisor(core::SupervisorPolicy{}, &injector);

  obsv::MetricBlock cell;
  bool attempted = false;
  const auto outcome = supervisor.run_cell(
      5,
      [&](const scan::CancelToken&) {
        attempted = true;
        return scan::ScanResult{};
      },
      [] { return core::IdsSnapshot{}; }, [](const core::IdsSnapshot&) {},
      &cell);

  EXPECT_EQ(outcome.status, core::CellOutcome::Status::kKilled);
  EXPECT_FALSE(attempted);  // death precedes the first attempt
  EXPECT_EQ(cell.counter(obsv::Counter::kFaultCellCrash), 1u);
  EXPECT_EQ(cell.counter(obsv::Counter::kFaultCellHang), 0u);
  EXPECT_EQ(injector.hits(Point::kCellCrash), 1u);
}

TEST(FaultpointMetrics, CellHangCountsPerHungAttempt) {
  // 200000s exceeds the 48h cell deadline, so attempts 0 and 1 are
  // pre-tripped by the watchdog; attempt 2 (past attempts=2) runs clean.
  const FaultPlan plan = must_parse("cell_hang:cell=7,sec=200000,attempts=2");
  const FaultInjector injector(plan, /*seed=*/0xFA57u);
  core::CellSupervisor supervisor(core::SupervisorPolicy{}, &injector);

  obsv::MetricBlock cell;
  const auto outcome = supervisor.run_cell(
      7,
      [](const scan::CancelToken& token) {
        scan::ScanResult result;
        result.aborted = token.cancelled();
        return result;
      },
      [] { return core::IdsSnapshot{}; }, [](const core::IdsSnapshot&) {},
      &cell);

  EXPECT_EQ(outcome.status, core::CellOutcome::Status::kDone);
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_EQ(cell.counter(obsv::Counter::kFaultCellHang), 2u);
  EXPECT_EQ(cell.counter(obsv::Counter::kFaultCellCrash), 0u);
  EXPECT_EQ(injector.hits(Point::kCellHang), 2u);
  // Backoff after each hung attempt: 1s << 0 + 1s << 1, each jittered
  // ±25% by the seed-pure schedule — the exact same virtual time any
  // re-execution of cell 7 would charge.
  EXPECT_EQ(outcome.backoff_total,
            supervisor.backoff_for(7, 0) + supervisor.backoff_for(7, 1));
}

TEST(FaultpointMetrics, BackoffJitterIsSeedPureAndBounded) {
  const core::SupervisorPolicy policy;
  const core::CellSupervisor a(policy, nullptr, /*seed=*/0x05CA9u);
  const core::CellSupervisor b(policy, nullptr, /*seed=*/0x05CA9u);
  const core::CellSupervisor other(policy, nullptr, /*seed=*/0xBEEFu);

  int differs = 0;
  for (std::uint64_t cell = 0; cell < 32; ++cell) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const auto backoff = a.backoff_for(cell, attempt);
      // Pure function of (seed, cell, attempt): equal seeds agree.
      EXPECT_EQ(backoff, b.backoff_for(cell, attempt));
      if (backoff != other.backoff_for(cell, attempt)) ++differs;
      // Bounded: within ±25% of the capped exponential base.
      const double base = std::min(policy.backoff_cap.seconds(),
                                   policy.backoff_base.seconds() *
                                       static_cast<double>(1ULL << attempt));
      EXPECT_GE(backoff.seconds(), base * 0.75 - 1e-9);
      EXPECT_LE(backoff.seconds(), base * 1.25 + 1e-9);
    }
  }
  EXPECT_GT(differs, 0);  // the seed actually reaches the jitter
}

}  // namespace
}  // namespace originscan::fault
