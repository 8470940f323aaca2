#!/usr/bin/env bash
# Flight-recorder verification gate.
#
# Builds the trace test binary and runs the whole trace suite: analyzer
# units, the golden-trace diff, cross-layer invariants over randomized
# topologies, thread-count determinism and chaos lifecycle accounting.
# Suitable as a CI step alongside scripts/check_asan.sh (which also runs
# these tests, under ASan+UBSan, via ctest).
#
#   scripts/check_traces.sh [--build-dir=DIR] [--update-golden]
#
# --update-golden regenerates tests/trace/golden/*.trace from the current
# binary instead of diffing against it. Only do this after an intentional
# behavior change, and commit the regenerated golden together with the
# change that explains it.
set -euo pipefail

BUILD_DIR=build
UPDATE=0
for arg in "$@"; do
  case "$arg" in
    --build-dir=*) BUILD_DIR="${arg#--build-dir=}" ;;
    --update-golden) UPDATE=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

cd "$(dirname "$0")/.."

if [ ! -d "$BUILD_DIR" ]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD_DIR" -j "$(nproc)" --target test_trace

if [ "$UPDATE" -eq 1 ]; then
  LM_UPDATE_GOLDEN=1 "$BUILD_DIR/tests/test_trace" \
    --gtest_filter='GoldenTrace.*MatchesCheckedInGolden'
  git -C . diff --stat -- tests/trace/golden || true
  echo "golden regenerated; review the diff above before committing"
fi

"$BUILD_DIR/tests/test_trace"
echo "trace layer: golden, invariants and determinism all clean"
