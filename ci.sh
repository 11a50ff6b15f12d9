#!/usr/bin/env bash
# Local/CI pipeline. Stages:
#
#   unit      fast pre-commit lane: build + `ctest -L 'unit|metrics'`
#             (incl. cli_flag_matrix: every flag x subcommand pair run
#             against the built CLI)
#   full      build + the whole suite (unit, metrics, property,
#             differential, crash, dist, chaos, service, docs, slow),
#             the bounded-RSS full-universe scale lane, the bench
#             regression gate, + the perfbench stage
#   service   build + the originscand daemon battery (`ctest -L
#             service`, incl. scan_matches_daemon: solo scan == daemon
#             answer at --probes 1) and the docs consistency checks
#   docs      build + the doc/header consistency checks on their own
#             (`ctest -L docs`: protocol_doc_check incl. its negative
#             self-test, metrics_doc_check, cli_doc_check: docs/CLI.md
#             flag tables vs tools/cli_flags.h)
#   chaos     build + the randomized fault-episode soak on its own
#             (25 rounds by default; ORIGINSCAN_CHAOS_ROUNDS=N deepens
#             or shortens it)
#   bench     build, run the microbenchmarks, and gate against the
#             checked-in BENCH_micro.json (fails on >25% cpu_time
#             regression; refresh baselines with bench/record.sh), the
#             5% metrics-on vs metrics-off overhead bound, and the
#             service loadgen p99 gate against BENCH_wall.json's
#             loadgen_p99_us (>25% regression fails)
#   perfbench build the end-to-end benchmark (perfbench/) from source,
#             run its self-test, then run each workload (grid, sweep,
#             grid_dist) once for 1 s; fails unless every result line
#             reports "correct": true with 0 failed operations
#   tsan      ORIGINSCAN_SANITIZE=thread build; runs the suites that
#             exercise the parallel executor, the windowed lane executor
#             (procedural_test: multi-window sweeps and scans at jobs > 1),
#             the cell supervisor, the multi-process worker pool, and the
#             fault-injected differential harness under thread sanitizer
#   asan      ORIGINSCAN_SANITIZE=address build (ASan + UBSan, any
#             undefined behavior aborts); runs the whole suite except
#             the scale lane
#   coverage  -DOSN_COVERAGE=ON build, full suite, gcov aggregation
#   all       unit + full + tsan + asan (default; coverage stays opt-in)
#
# Usage: ./ci.sh [unit|full|bench|perfbench|chaos|service|docs|tsan|asan|coverage|all]
set -euo pipefail
cd "$(dirname "$0")"

STAGE=${1:-all}
JOBS=$(nproc 2>/dev/null || echo 4)

configure_and_build() { # <dir> [cmake args...]
  local dir=$1
  shift
  # The default and ASan+UBSan builds are warning-free; -Werror keeps them
  # so. (The TSan and coverage builds keep warnings non-fatal.)
  case "$dir" in
    build | build-asan) set -- "$@" -DCMAKE_CXX_FLAGS=-Werror ;;
  esac
  cmake -S . -B "$dir" "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS"
}

run_unit() {
  configure_and_build build
  # The metrics label covers the observability determinism suite and the
  # registry-vs-docs consistency check — cheap enough for the fast lane.
  (cd build && ctest -L 'unit|metrics' --output-on-failure)
}

run_full() {
  configure_and_build build
  # The whole suite, then the kill/resume matrix and the observability
  # determinism suite by their own labels so a lane failure is obvious
  # in the log. The scale lane (2^28 bounded-RSS procedural sweep,
  # ~2 min) runs last and exactly once; the full 2^32 sweep stays a
  # manual invocation (README "Full-scale sweep").
  (cd build && ctest -LE scale --output-on-failure &&
    ctest -L crash --output-on-failure &&
    ctest -L dist --output-on-failure &&
    ctest -L chaos --output-on-failure &&
    ctest -L metrics --output-on-failure &&
    ctest -L service --output-on-failure &&
    ctest -L docs --output-on-failure &&
    ctest -L scale --output-on-failure)
  run_bench
  run_perfbench
}

run_service() {
  configure_and_build build
  (cd build && ctest -L 'service|docs' --output-on-failure)
}

run_docs() {
  configure_and_build build
  (cd build && ctest -L docs --output-on-failure)
}

run_chaos() {
  configure_and_build build
  # 25 randomized episodes by default; a nightly can deepen the soak
  # with ORIGINSCAN_CHAOS_ROUNDS=500 without touching the script.
  (cd build && ORIGINSCAN_CHAOS_ROUNDS="${ORIGINSCAN_CHAOS_ROUNDS:-25}" \
    ctest -L chaos --output-on-failure)
}

run_bench() {
  configure_and_build build
  # The committed baseline must cover the batched SoA pipeline
  # (DESIGN.md §13): a baseline recorded before those benches existed
  # would silently exempt the batch hot path from the regression gate.
  for bench in BM_HandleProbeBatch BM_ResolveBatch BM_MixBatch4; do
    if ! grep -q "\"$bench\"" BENCH_micro.json; then
      echo "ci.sh bench: $bench missing from BENCH_micro.json —" >&2
      echo "  re-record with bench/record.sh from a Release build" >&2
      exit 1
    fi
  done
  # Short repetitions keep the lane fast; the 25% gate (bench_gate's
  # default) absorbs the extra noise that buys.
  build/bench/micro_scanner --benchmark_format=json \
    --benchmark_min_time=0.05 > build/BENCH_micro_candidate.json
  build/tools/bench_gate BENCH_micro.json build/BENCH_micro_candidate.json
  # Observability overhead bound: metrics-enabled probing must stay
  # within 5% of disabled (DESIGN.md §9). The pair is measured in its
  # own repeated run and compared by median — a single-shot sample is
  # too noisy for a 5% threshold.
  build/bench/micro_scanner --benchmark_format=json \
    --benchmark_filter='^BM_ProbeTarget' --benchmark_min_time=0.1 \
    --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
    > build/BENCH_overhead_candidate.json
  build/tools/bench_gate --overhead build/BENCH_overhead_candidate.json \
    BM_ProbeTarget_median BM_ProbeTargetMetricsOn_median 5
  # Service latency gate: replay the loadgen against an in-process
  # daemon and bound the p99 submit->answer latency against the
  # checked-in BENCH_wall.json. Same 25% allowance as the micro gate.
  if ! grep -q '"loadgen_p99_us"' BENCH_wall.json; then
    echo "ci.sh bench: loadgen_p99_us missing from BENCH_wall.json —" >&2
    echo "  re-record with bench/record.sh from a Release build" >&2
    exit 1
  fi
  build/tools/originscan loadgen --tenants 1000 --requests 1 \
    --connections 16 --scale 12 --no-verify \
    --json-out build/BENCH_loadgen_candidate.json
  build/tools/bench_gate --wall BENCH_wall.json \
    build/BENCH_loadgen_candidate.json loadgen_p99_us 25
}

run_perfbench() {
  # perfbench compiles against src/ APIs, so a src/ change can break it
  # without breaking the main build; run.py builds it into .bench_build/.
  python3 perfbench/run.py --self-test
  local workload line
  for workload in grid sweep grid_dist; do
    line=$(python3 perfbench/run.py --workload "$workload" --seed 0 \
      --seconds 1 --trace 0 | tail -n 1)
    echo "perfbench $workload: $line"
    if ! python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "$line"; then
      echo "ci.sh perfbench: $workload is incorrect or failed operations" >&2
      exit 1
    fi
  done
}

run_tsan() {
  configure_and_build build-tsan -DORIGINSCAN_SANITIZE=thread
  (cd build-tsan &&
    ctest -R 'parallel_test|scanner_test|sim_test|core_test|journal_test|crash_resume_test|differential_test|dist_test|chaos_test|batch_test|service_test|procedural_test' \
      --output-on-failure)
}

run_asan() {
  configure_and_build build-asan -DORIGINSCAN_SANITIZE=address
  (cd build-asan && ctest -LE scale --output-on-failure)
}

run_coverage() {
  configure_and_build build-coverage -DOSN_COVERAGE=ON \
    -DCMAKE_BUILD_TYPE=Debug
  (cd build-coverage && ctest --output-on-failure)
  tools/coverage.sh build-coverage
}

case "$STAGE" in
  unit) run_unit ;;
  full) run_full ;;
  bench) run_bench ;;
  perfbench) run_perfbench ;;
  chaos) run_chaos ;;
  service) run_service ;;
  docs) run_docs ;;
  tsan) run_tsan ;;
  asan) run_asan ;;
  coverage) run_coverage ;;
  all)
    run_unit
    run_full
    run_tsan
    run_asan
    ;;
  *)
    echo "usage: $0 [unit|full|bench|perfbench|chaos|service|docs|tsan|asan|coverage|all]" >&2
    exit 2
    ;;
esac
