#!/bin/sh
# `originscan sweep` prints its progress as it goes: with stdout
# redirected to a file, the "sweeping ..." line must be there while the
# sweep still runs, not only once it exits. Starts a 2^26 sweep on one
# job (seconds), polls its log for up to 10 s, and requires the line to
# appear while the process is alive. The sweep is killed on every path.
#
# Usage: sweep_progress_line.sh <originscan binary> <scratch dir>
set -u
bin=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir"
log="$dir/sweep.log"

"$bin" sweep --universe-bits 26 --jobs 1 > "$log" 2>&1 &
sweep=$!
cleanup() {
  kill "$sweep" 2> /dev/null
  wait "$sweep" 2> /dev/null
  rm -rf "$dir"
}
trap cleanup EXIT
trap 'exit 1' INT TERM HUP

tries=0
while [ "$tries" -lt 100 ]; do
  # Line first, then liveness: a line seen before a live check was
  # written while the sweep ran, not flushed by its exit.
  if grep -q '^sweeping ' "$log"; then
    if kill -0 "$sweep" 2> /dev/null; then
      exit 0
    fi
    echo "the sweep exited before its progress line was seen" >&2
    exit 1
  fi
  if ! kill -0 "$sweep" 2> /dev/null; then
    echo "the sweep exited without a 'sweeping' line:" >&2
    cat "$log" >&2
    exit 1
  fi
  tries=$((tries + 1))
  sleep 0.1
done
echo "no 'sweeping' line within 10 s of output:" >&2
cat "$log" >&2
exit 1
