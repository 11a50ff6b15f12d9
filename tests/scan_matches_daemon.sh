#!/bin/sh
# `originscan scan` runs the daemon's own session, so a solo scan and a
# daemon's answer for the same spec are the same bytes at any --probes.
# Starts `serve --scale 12`, fetches `client --probes 1`, runs
# `scan --scale 12 --probes 1`, and requires the two CSVs to be
# cmp-identical and to differ from the default 2-probe scan (so the flag
# really reached the scan).
#
# Usage: scan_matches_daemon.sh <originscan binary> <scratch dir>
set -eu
bin=$1
dir=$2
csv=scan_US1_http_t1.csv
rm -rf "$dir"
mkdir -p "$dir/daemon" "$dir/solo" "$dir/default"
sock="$dir/originscand.sock"

"$bin" serve --socket "$sock" --scale 12 > "$dir/serve.log" &
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
"$bin" client --socket "$sock" --probes 1 --out "$dir/daemon" > /dev/null
"$bin" client --socket "$sock" --shutdown > /dev/null
wait "$daemon"
trap - EXIT

"$bin" scan --scale 12 --probes 1 --out "$dir/solo" > /dev/null
"$bin" scan --scale 12 --out "$dir/default" > /dev/null
cmp "$dir/daemon/$csv" "$dir/solo/$csv"
if cmp -s "$dir/solo/$csv" "$dir/default/$csv"; then
  echo "scan --probes 1 wrote the default 2-probe CSV" >&2
  exit 1
fi
rm -rf "$dir"
