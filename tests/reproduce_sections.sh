#!/bin/sh
# Runs bench/reproduce once over every section, then each section on its
# own, and checks that each section's text matches its slice of the full
# run byte for byte once the [scan] progress lines are dropped (a lone
# section builds the shared runs it reads, so it prints their [scan]
# lines itself). A difference means state leaked between sections
# through a shared run. Every run must exit 0.
#
# Usage: reproduce_sections.sh <reproduce binary> <scratch dir>
# OSN_BENCH_SCALE / OSN_BENCH_SEED pass through to every run.
set -eu
bin=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir"

strip_scans() { grep -v '^  \[scan\] ' "$1" > "$2"; }

"$bin" > "$dir/all.raw"
strip_scans "$dir/all.raw" "$dir/all.txt"

# The section names, in table order, from the unknown-section message.
if "$bin" ' ' 2> "$dir/names.err" > /dev/null; then
  echo "reproduce accepted an unknown section" >&2
  exit 1
fi
sections=$(sed -n 's/^  //p' "$dir/names.err")

offset=0
failed=0
for name in $sections; do
  "$bin" "$name" > "$dir/$name.raw"
  strip_scans "$dir/$name.raw" "$dir/$name.txt"
  size=$(wc -c < "$dir/$name.txt")
  tail -c +$((offset + 1)) "$dir/all.txt" | head -c "$size" \
    > "$dir/$name.expected"
  if ! cmp -s "$dir/$name.expected" "$dir/$name.txt"; then
    echo "section $name differs from its slice of the full run:" >&2
    diff "$dir/$name.expected" "$dir/$name.txt" | head -20 >&2 || true
    failed=1
  fi
  offset=$((offset + size))
done

total=$(wc -c < "$dir/all.txt")
if [ "$offset" -ne "$total" ]; then
  echo "sections cover $offset of the full run's $total bytes" >&2
  failed=1
fi
if [ "$failed" -eq 0 ]; then
  echo "$(echo $sections | wc -w) sections match the full run"
fi
exit "$failed"
