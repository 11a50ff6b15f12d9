#!/bin/sh
# One salvage rule for a damaged journal, end to end: a clean journaled
# `experiment --scale 12` run, then four damaged copies of its journal
# (a flipped segment byte, a garbled middle manifest line, a deleted
# middle line, a middle line naming an unknown origin). Each copy must
# resume with exit 0 to --save results cmp-identical to the clean run,
# quarantining what the rule says. For the flipped byte, `journal
# inspect`'s corrupt + follower count must equal the resume's
# journal.quarantined_* sum.
#
# The grid is 7 origins, each a chain of 9 cells. Line 30 of the
# MANIFEST (header + 63 cells at --jobs 1, in grid order) is AU's HTTPS
# trial-1 cell, the 5th of AU's chain: damaging its line leaves that
# cell missing, so the 4 later cells follow it. The flipped byte lands
# in AU's chain head, whose 8 later cells follow it.
#
# Usage: journal_salvage.sh <originscan binary> <scratch dir>
set -eu
bin=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir/out"

run() { # <journal dir> <save file> [more flags...]
  journal=$1
  save=$2
  shift 2
  "$bin" experiment --scale 12 --resume-dir "$journal" --out "$dir/out" \
    --save "$save" "$@" > "$journal.log"
}

metric() { # <json file> <name>; -1 when the file does not have it
  value=$(sed -n "s/.*\"$2\": \([0-9]*\).*/\1/p" "$1")
  echo "${value:--1}"
}

run "$dir/clean" "$dir/clean.bin"

# <damage> <quarantined cells> <quarantined followers>
for spec in "flip 1 8" "garble 0 4" "delete 0 4" "unknown 1 4"; do
  set -- $spec
  damage=$1
  copy="$dir/$damage"
  cp -r "$dir/clean" "$copy"
  case $damage in
    flip)
      segment="$copy/cell_AU_http_t0.osnr"
      byte=$(od -An -tu1 -j 64 -N 1 "$segment" | tr -d ' ')
      printf "$(printf '\\%03o' $((byte ^ 64)))" |
        dd of="$segment" bs=1 seek=64 conv=notrunc 2> /dev/null
      if cmp -s "$dir/clean/cell_AU_http_t0.osnr" "$segment"; then
        echo "flip: the segment was not damaged" >&2
        exit 1
      fi
      ;;
    garble) sed -i '30s/attempts=/attXmpts=/' "$copy/MANIFEST" ;;
    delete) sed -i '30d' "$copy/MANIFEST" ;;
    unknown) sed -i '30s/^done AU /done ZZ /' "$copy/MANIFEST" ;;
  esac
  if [ "$damage" != flip ] && cmp -s "$dir/clean/MANIFEST" "$copy/MANIFEST"
  then
    echo "$damage: the manifest was not damaged" >&2
    exit 1
  fi

  if [ "$damage" = flip ]; then
    status=0
    "$bin" journal inspect --resume-dir "$copy" --json > "$copy.inspect" ||
      status=$?
    if [ "$status" -ne 1 ]; then
      echo "flip: journal inspect exited $status, want 1" >&2
      exit 1
    fi
    corrupt=$(metric "$copy.inspect" corrupt)
    followers=$(metric "$copy.inspect" followers)
    if [ "$corrupt" -ne "$2" ] || [ "$followers" -ne "$3" ]; then
      echo "flip: inspect judged $corrupt corrupt and $followers" \
        "followers, want $2 and $3" >&2
      exit 1
    fi
  fi

  status=0
  run "$copy" "$copy.bin" --metrics-out "$copy.metrics" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "$damage: resume exited $status" >&2
    cat "$copy.log" >&2
    exit 1
  fi
  if ! cmp "$dir/clean.bin" "$copy.bin"; then
    echo "$damage: resumed results differ from the clean run" >&2
    exit 1
  fi
  cells=$(metric "$copy.metrics" journal.quarantined_cells)
  chained=$(metric "$copy.metrics" journal.quarantined_followers)
  if [ "$cells" -ne "$2" ] || [ "$chained" -ne "$3" ]; then
    echo "$damage: resume quarantined $cells cells and $chained" \
      "followers, want $2 and $3" >&2
    exit 1
  fi
done
rm -rf "$dir"
