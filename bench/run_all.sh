#!/usr/bin/env bash
# Runs every bench binary in sequence and (with --json) collects one
# BENCH_<name>.json per bench for perf-trajectory diffing across PRs.
#
# Usage:
#   bench/run_all.sh [--json] [--threads=N] [--build-dir=DIR] [--only=NAME]
#
#   --json          each bench writes BENCH_<name>.json into the current
#                   directory (benches that predate the Reporter get a
#                   minimal JSON written here from their wall time)
#   --threads=N     forwarded to benches that shard over a ParallelRunner
#                   (equivalent to LM_THREADS=N)
#   --build-dir=DIR where the bench binaries live (default: build)
#   --only=NAME     run a single bench, e.g. --only=bench_engine
#
# Every bench prints a machine-readable `BENCH_SUMMARY {...}` line; this
# script additionally tees full output to bench_output.txt.
set -u

BUILD_DIR=build
JSON=0
FWD_ARGS=()
ONLY=""
for arg in "$@"; do
  case "$arg" in
    --json) JSON=1; FWD_ARGS+=("--json") ;;
    --threads=*) FWD_ARGS+=("$arg") ;;
    --build-dir=*) BUILD_DIR="${arg#--build-dir=}" ;;
    --only=*) ONLY="${arg#--only=}" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

cd "$(dirname "$0")/.."
if [ ! -d "$BUILD_DIR" ]; then
  echo "build dir '$BUILD_DIR' not found; run: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

# bench_airtime is a google-benchmark binary with its own flag syntax, so it
# runs without the forwarded Reporter flags.
REPORTER_BENCHES=(
  bench_engine
  bench_scale
  bench_strategies
  bench_convergence
  bench_density
  bench_sf_tradeoff
  bench_route_repair
  bench_multihop
)
PLAIN_BENCHES=(
  bench_demo_scenario
  bench_overhead
  bench_large_payload
  bench_mesh_vs_star
  bench_airtime
  bench_energy
  bench_link_quality
  bench_coexistence
)

: > bench_output.txt
failures=0

run_one() {
  local name="$1"; shift
  local bin="$BUILD_DIR/bench/$name"
  if [ ! -x "$bin" ]; then
    echo "SKIP $name (binary not built)" | tee -a bench_output.txt
    return
  fi
  echo "=== $name ===" | tee -a bench_output.txt
  local start end rc
  start=$(date +%s.%N)
  "$bin" "$@" 2>&1 | tee -a bench_output.txt
  rc=${PIPESTATUS[0]}
  end=$(date +%s.%N)
  if [ "$rc" -ne 0 ]; then
    echo "FAIL $name (exit $rc)" | tee -a bench_output.txt
    failures=$((failures + 1))
    return
  fi
  # Benches without a Reporter don't write their own JSON; synthesize a
  # minimal artifact so the perf trajectory covers every binary.
  if [ "$JSON" -eq 1 ] && [ ! -s "BENCH_${name}.json" ]; then
    printf '{"name":"%s","wall_s":%s}\n' "$name" \
      "$(echo "$end $start" | awk '{printf "%.2f", $1 - $2}')" \
      > "BENCH_${name}.json"
    echo "wrote BENCH_${name}.json (wall time only)"
  fi
}

for name in "${REPORTER_BENCHES[@]}"; do
  [ -n "$ONLY" ] && [ "$name" != "$ONLY" ] && continue
  rm -f "BENCH_${name}.json"
  run_one "$name" ${FWD_ARGS[@]+"${FWD_ARGS[@]}"}
done
for name in "${PLAIN_BENCHES[@]}"; do
  [ -n "$ONLY" ] && [ "$name" != "$ONLY" ] && continue
  rm -f "BENCH_${name}.json"
  run_one "$name"
done

echo
if [ "$failures" -ne 0 ]; then
  echo "$failures bench(es) failed; see bench_output.txt"
  exit 1
fi
echo "all benches done; full log in bench_output.txt"
if [ "$JSON" -eq 1 ]; then
  echo "JSON artifacts:"
  ls -1 BENCH_*.json 2>/dev/null || true
fi
