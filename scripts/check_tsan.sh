#!/usr/bin/env bash
# ThreadSanitizer gate for the concurrency layer.
#
# Configures a dedicated build tree with -DLM_SANITIZE=thread, builds only
# the test binaries that exercise ThreadPool/ParallelRunner and the
# conservative PDES engine, and runs them. The PDES selection covers the
# multi-region determinism scenarios plus one mobile-node and one chaos
# scenario, so the region workers, ghost exchange, and trace merge all run
# under the race detector. Any data race TSan finds fails the script
# (non-zero exit), so this is suitable as a CI step:
#
#   scripts/check_tsan.sh [--build-dir=DIR]
set -euo pipefail

BUILD_DIR=build-tsan
for arg in "$@"; do
  case "$arg" in
    --build-dir=*) BUILD_DIR="${arg#--build-dir=}" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

cd "$(dirname "$0")/.."

cmake -B "$BUILD_DIR" -S . -DLM_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" --target test_parallel test_pdes test_strategy_matrix \
  -j "$(nproc)"

# halt_on_error makes the first race fail the run instead of only logging it.
TSAN_OPTIONS="halt_on_error=1" "$BUILD_DIR/tests/test_parallel"
echo "TSan: thread_pool + parallel_runner tests clean"

# PDES engine units under TSan first (partitions, adaptive windows,
# cross-region messaging).
TSAN_OPTIONS="halt_on_error=1" "$BUILD_DIR/tests/test_pdes" \
  --gtest_filter='TileStripes.*:TilePartition.*:Lookahead.*:ParallelEngine.*'
echo "TSan: PDES engine units clean"

# Then the full byte-identity matrix (workers up to 8 racing over ghost
# exchange, the barrier region check and trace merge; stripe and tile
# modes; static, in-region rover and chaos scenarios) through the shared
# gate script.
TSAN_OPTIONS="halt_on_error=1" scripts/check_pdes.sh \
  --binary="$BUILD_DIR/tests/test_pdes"
echo "TSan: PDES determinism matrix clean"

# Strategy × topology quick grid (one static + the mobile/chaos families at
# a shorter horizon): every registered routing strategy's full stack runs
# under the race detector, including the ChaosMonkey's node kill/reboot
# path and the flight-recorder merge behind each cell's invariant check.
LM_MATRIX_QUICK=1 TSAN_OPTIONS="halt_on_error=1" \
  "$BUILD_DIR/tests/test_strategy_matrix"
echo "TSan: strategy matrix (quick grid) clean"
