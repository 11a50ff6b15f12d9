#!/bin/sh
# `serve --metrics-out F` writes the daemon's merged snapshot: every
# session's scan counters plus the service.* block. Starts `serve
# --scale 12 --metrics-out F`, runs one `client` scan and a shutdown,
# then requires F's zmap.* counters to equal those `scan --scale 12
# --metrics-out G` writes for the same spec, and to be non-zero.
#
# Usage: serve_metrics_match_scan.sh <originscan binary> <scratch dir>
set -eu
bin=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir/daemon" "$dir/solo"
sock="$dir/originscand.sock"

"$bin" serve --socket "$sock" --scale 12 --metrics-out "$dir/serve.json" \
  > "$dir/serve.log" &
daemon=$!
trap 'kill "$daemon" 2> /dev/null || true' EXIT
tries=0
until [ -S "$sock" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 300 ]; then
    echo "daemon did not listen on $sock" >&2
    exit 1
  fi
  sleep 0.1
done
"$bin" client --socket "$sock" --out "$dir/daemon" > /dev/null
"$bin" client --socket "$sock" --shutdown > /dev/null
wait "$daemon"
trap - EXIT

"$bin" scan --scale 12 --out "$dir/solo" --metrics-out "$dir/scan.json" \
  > /dev/null
grep '"zmap\.' "$dir/serve.json" > "$dir/serve.zmap"
grep '"zmap\.' "$dir/scan.json" > "$dir/scan.zmap"
if ! grep -q '"zmap.targets_probed": [1-9]' "$dir/serve.zmap"; then
  echo "serve --metrics-out holds no scan counters" >&2
  cat "$dir/serve.zmap" >&2
  exit 1
fi
diff "$dir/serve.zmap" "$dir/scan.zmap"
rm -rf "$dir"
