#!/usr/bin/env bash
# Byte-identity matrix gate for the conservative PDES engine.
#
# Runs the full determinism matrix as one suite: worker counts 1/2/3/7/8 x
# stripe/tile decompositions x static and mobile (a rover moving inside its
# region) scenarios, plus the serial-vs-PDES single-region collapses. This is the
# one switch CI flips to answer "is the parallel engine still exact?".
#
#   scripts/check_pdes.sh [--binary=PATH] [--build-dir=DIR]
#
# --binary reuses an already-built test_pdes (ctest and check_tsan.sh pass
# the binary they just built); otherwise the script configures and builds
# its own tree.
set -euo pipefail

BINARY=""
BUILD_DIR=build
for arg in "$@"; do
  case "$arg" in
    --binary=*) BINARY="${arg#--binary=}" ;;
    --build-dir=*) BUILD_DIR="${arg#--build-dir=}" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

cd "$(dirname "$0")/.."

if [[ -z "$BINARY" ]]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD_DIR" --target test_pdes -j "$(nproc)"
  BINARY="$BUILD_DIR/tests/test_pdes"
fi

# The matrix: golden chain (serial == PDES at every worker count), the
# invariant-sweep serial-vs-PDES scenes, the 7-region wide chain across
# worker counts, the tile-vs-stripe linear-field collapse, the in-region
# rover (stripe + tile, workers 1/2/3/7/8), the rover that leaves its
# region and must fail the barrier check, and the drifted-clock +
# live-battery chain (per-node skew/drift, brownouts mid-run).
"$BINARY" --gtest_filter='PdesDeterminism.*'
echo "PDES byte-identity matrix: clean"
