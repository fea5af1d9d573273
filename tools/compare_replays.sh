#!/bin/sh
# Checks that two builds replay bit-identically: runs the same 80
# `webcc replay` cells with each build's tools/webcc and compares, per
# cell, stdout (with the exit status), the sha256 of --trace-out, and
# --metrics-out without its one host-time line (replay.host_seconds).
#
# Cells: the SASK and ClarkNet presets x the five protocols x eight
# variants: default, --shards 4, three fault plans from
# tests/data/fault_plans (lossy_links, partition_during_writes,
# proxy_crash_pair), --fan-out batched, --fan-out multicast and
# --lease two-tier.
#
# Usage: tools/compare_replays.sh BUILD_A BUILD_B
#   BUILD_A, BUILD_B: CMake build directories holding tools/webcc, for
#   instance the parent commit's build and this tree's.
# Prints one line per differing cell and a summary; exits 0 only when
# every cell is identical, 1 on any difference, 2 on bad usage.
set -eu

if [ "$#" -ne 2 ]; then
  echo "usage: $0 BUILD_A BUILD_B" >&2
  exit 2
fi
webcc_a="$1/tools/webcc"
webcc_b="$2/tools/webcc"
for webcc in "$webcc_a" "$webcc_b"; do
  if [ ! -x "$webcc" ]; then
    echo "error: $webcc is not an executable" >&2
    exit 2
  fi
done

plans="$(cd "$(dirname "$0")/.." && pwd)/tests/data/fault_plans"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Replays one cell with build `$1` ("a" or "b") and leaves its stdout,
# trace digest and filtered metrics in $work/$1.*. Both builds write to
# the same file names, so the paths echoed on stdout match.
run_cell() {
  side=$1
  shift
  if [ "$side" = a ]; then webcc=$webcc_a; else webcc=$webcc_b; fi
  status=0
  "$webcc" replay "$@" --trace-out "$work/trace.jsonl" \
    --metrics-out "$work/metrics.json" >"$work/$side.out" 2>&1 || status=$?
  echo "exit status $status" >>"$work/$side.out"
  if [ -f "$work/trace.jsonl" ]; then
    sha256sum <"$work/trace.jsonl" >"$work/$side.trace"
  else
    echo "no trace" >"$work/$side.trace"
  fi
  if [ -f "$work/metrics.json" ]; then
    grep -v '"replay.host_seconds"' "$work/metrics.json" >"$work/$side.metrics" || true
  else
    echo "no metrics" >"$work/$side.metrics"
  fi
  rm -f "$work/trace.jsonl" "$work/metrics.json"
}

cells=0
identical=0
for preset in SASK ClarkNet; do
  for protocol in ttl poll invalidation pcv psi; do
    for variant in default shards4 lossy_links partition_during_writes \
      proxy_crash_pair batched multicast two-tier; do
      set -- --preset "$preset" --protocol "$protocol"
      case $variant in
        default) ;;
        shards4) set -- "$@" --shards 4 ;;
        batched) set -- "$@" --fan-out batched ;;
        multicast) set -- "$@" --fan-out multicast ;;
        two-tier) set -- "$@" --lease two-tier ;;
        *) set -- "$@" --fault-plan "$plans/$variant.json" ;;
      esac
      run_cell a "$@"
      run_cell b "$@"
      cells=$((cells + 1))
      differs=""
      for part in out trace metrics; do
        if ! cmp -s "$work/a.$part" "$work/b.$part"; then
          differs="$differs $part"
        fi
      done
      if [ -z "$differs" ]; then
        identical=$((identical + 1))
      else
        echo "DIFFERS $preset $protocol $variant:$differs"
      fi
    done
  done
done

echo "$identical/$cells cells identical"
[ "$identical" -eq "$cells" ]
