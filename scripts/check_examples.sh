#!/usr/bin/env bash
# Example-output gate: every example, run with the arguments
# examples/README.md documents, must print exactly its golden stdout
# (examples/golden/<run>.out). The examples are deterministic discrete-event
# runs, so any difference is a behavior change.
#
#   scripts/check_examples.sh [--build-dir=DIR] [--update-golden]
#
# Runs the binaries already built under DIR/examples (default: build).
# --update-golden rewrites the goldens from those binaries instead of
# diffing against them. Only do this after an intentional behavior change,
# and commit the new goldens together with the change that explains them.
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

# <golden name> <binary> [arguments...]
RUNS=(
  "quickstart quickstart"
  "sensor_field sensor_field"
  "firmware_update firmware_update"
  "firmware_update_16384_20 firmware_update 16384 20"
  "mobile_node mobile_node"
  "gateway_discovery gateway_discovery"
  "remote_control remote_control"
  "meshsim meshsim"
)

OUT_DIR=$(mktemp -d)
trap 'rm -rf "$OUT_DIR"' EXIT

failed=0
for run in "${RUNS[@]}"; do
  read -r name binary args <<<"$run"
  golden="examples/golden/$name.out"
  # shellcheck disable=SC2086  # $args is a word list on purpose
  "$BUILD_DIR/examples/$binary" $args >"$OUT_DIR/$name.out"
  if [ "$UPDATE" -eq 1 ]; then
    cp "$OUT_DIR/$name.out" "$golden"
  elif ! diff -u "$golden" "$OUT_DIR/$name.out"; then
    echo "FAIL: $binary${args:+ $args} differs from $golden" >&2
    failed=1
  fi
done

if [ "$UPDATE" -eq 1 ]; then
  git -C . diff --stat -- examples/golden || true
  echo "example goldens regenerated; review the diff above before committing"
elif [ "$failed" -ne 0 ]; then
  exit 1
else
  echo "examples: all ${#RUNS[@]} runs match their goldens"
fi
