#!/usr/bin/env bash
# Perf-regression gate: re-runs every trajectory-anchored bench and diffs
# its BENCH_*.json artifact against that bench's most recent
# bench/trajectory/ snapshot with bench/compare.py. Snapshots may record
# only some benches, so the baseline is resolved per bench: the
# highest-numbered pr<N> directory holding BENCH_<name>.json wins.
#
# Usage:
#   scripts/check_bench.sh [--build-dir=DIR] [--threshold=F]
#
# The threshold defaults to 0.02 (2% relative). Wall-clock metrics on a
# busy host jitter well beyond that — compare.py already ignores sub-100 ms
# absolute deltas, and its output says which metrics are informational —
# so treat a failure here as "re-run and confirm", not as an instant
# verdict. compare.py fails on any change of the deterministic counts
# `*.events`, `*.windows`, `*.ghosts` and `*.events_per_window`, and on any
# `*.pdr` drop. Other deterministic counters (e.g. `delivery.receptions`,
# `n1000.delivered`) must not move either, but compare.py does not gate
# them yet: check them by hand with `bench/compare.py --all`.
set -eu

BUILD_DIR=build
THRESHOLD=0.02
for arg in "$@"; do
  case "$arg" in
    --build-dir=*) BUILD_DIR="${arg#--build-dir=}" ;;
    --threshold=*) THRESHOLD="${arg#--threshold=}" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

cd "$(dirname "$0")/.."

REPO=$(pwd -P)
BASELINE=$(mktemp -d)
OUT=$(mktemp -d)
trap 'rm -rf "$BASELINE" "$OUT"' EXIT

# Trajectory dirs are named pr<N>; copying them in version order lets a
# newer snapshot of a bench overwrite an older one.
declare -A SOURCE
for dir in $(ls -d bench/trajectory/*/ 2>/dev/null | sort -V); do
  for f in "$dir"BENCH_*.json; do
    if [ -e "$f" ]; then
      cp "$f" "$BASELINE/"
      SOURCE[$(basename "$f")]=${dir%/}
    fi
  done
done
if [ ${#SOURCE[@]} -eq 0 ]; then
  echo "no bench/trajectory/ snapshot to compare against" >&2
  exit 1
fi
echo "baselines (threshold ${THRESHOLD}):"
for f in $(printf '%s\n' "${!SOURCE[@]}" | sort); do
  echo "  $f <- ${SOURCE[$f]}"
done

# Only the benches the trajectory actually anchors; compare.py skips
# benches missing from either side, so running more would be wasted time.
ANCHORED=$(cd "$BASELINE" && ls BENCH_*.json | sed 's/^BENCH_//; s/\.json$//')

for name in $ANCHORED; do
  bin="$REPO/$BUILD_DIR/bench/$name"
  if [ ! -x "$bin" ]; then
    echo "missing bench binary $bin; build first" >&2
    exit 1
  fi
  echo "running $name ..."
  start=$(date +%s.%N)
  (cd "$OUT" && "$bin" --json >/dev/null)
  # Benches without a Reporter write no JSON; record their wall time as
  # bench/run_all.sh does, which is all their snapshots hold.
  if [ ! -s "$OUT/BENCH_$name.json" ]; then
    printf '{"name":"%s","wall_s":%s}\n' "$name" \
      "$(echo "$(date +%s.%N) $start" | awk '{printf "%.2f", $1 - $2}')" \
      > "$OUT/BENCH_$name.json"
  fi
done

python3 bench/compare.py "$BASELINE" "$OUT" --threshold="$THRESHOLD"
