#!/usr/bin/env bash
# Records the repository's performance baselines:
#   BENCH_micro.json — google-benchmark microbenchmarks (hot paths)
#   BENCH_wall.json  — the service loadgen baseline (loadgen_* fields;
#                      ci.sh bench gates loadgen_p99_us against it)
# End-to-end grid and sweep timings live in perfbench/, and their
# serial-vs-parallel identity checks are CTest cases.
#
# Usage: bench/record.sh [build-dir]   (default: build)
#
# Refuses Debug builds: a Debug baseline would make every optimized
# build look like a regression (or worse, hide one). The build type is
# read from CMakeCache.txt and stamped into both JSON files as
# "repo_build_type" so a committed baseline records what produced it.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

if [[ ! -x "$BUILD_DIR/bench/micro_scanner" || ! -x "$BUILD_DIR/tools/originscan" ]]; then
  echo "bench binaries missing — build first:" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

if [[ ! -f "$BUILD_DIR/CMakeCache.txt" ]]; then
  echo "bench/record.sh: no CMakeCache.txt in $BUILD_DIR — not a cmake build dir" >&2
  exit 1
fi
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt")"
case "$BUILD_TYPE" in
  Release|RelWithDebInfo|MinSizeRel)
    ;;
  *)
    echo "bench/record.sh: refusing to record baselines from a" >&2
    echo "  CMAKE_BUILD_TYPE='$BUILD_TYPE' build (need Release/RelWithDebInfo/MinSizeRel):" >&2
    echo "  cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release && cmake --build $BUILD_DIR -j" >&2
    exit 1
    ;;
esac

# Stamp the build type as the first key of the top-level JSON object.
stamp_build_type() {
  local file="$1"
  sed -i "0,/^{/s/^{/{\n  \"repo_build_type\": \"$BUILD_TYPE\",/" "$file"
}

"$BUILD_DIR/bench/micro_scanner" --benchmark_format=json > BENCH_micro.json
stamp_build_type BENCH_micro.json
echo "wrote BENCH_micro.json ($BUILD_TYPE)"

# Service loadgen baseline: 1000 tenants against an in-process daemon,
# byte-identity verified. The report is already a flat JSON object of
# loadgen_* fields, which bench_gate --wall reads.
"$BUILD_DIR/tools/originscan" loadgen --tenants 1000 --requests 1 \
    --connections 16 --scale 12 --json-out BENCH_wall.json
stamp_build_type BENCH_wall.json
echo "wrote BENCH_wall.json ($BUILD_TYPE)"
cat BENCH_wall.json
