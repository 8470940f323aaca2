#!/usr/bin/env bash
# Interleaved A/B timing of the end-to-end benchmark (meshbench/).
#
#   scripts/ab_meshbench.sh --base=REV [--workload=city] [--pairs=10]
#                           [--seconds=20] [--seed=1] [--scratch=DIR]
#                           [--cpu=N]
#
# Host speed on a shared machine drifts by 20 % or more over minutes, so
# two timings taken one after the other compare the host, not the code.
# This script builds REV ("base") and the working tree, uncommitted and
# untracked files included ("change"), in two git worktrees under the
# scratch dir (default: a fresh mktemp dir), then alternates the two runs N
# times — base first on odd pairs, change first on even pairs — so drift
# hits both sides alike. For each pair it prints sim_s_per_wall_s, setup_s
# and peak_rss_mb of both sides and the change/base speed ratio; then each
# side's median and quartiles, the median of each metric's per-pair ratio
# and how many pairs the change won on speed (ties count for neither).
# Last it says whether the speed claim rule is met for sim_s_per_wall_s:
# the change won at least nine tenths of the pairs, and the change's median
# exceeds the base's median by more than the base's own interquartile
# spread (q3 - q1). The verdict is printed only; it does not set the exit
# code.
# With --cpu=N every timed run of both sides is pinned to CPU N with
# `taskset -c N` (the untimed build runs are not); the default leaves them
# unpinned. The header line names the pinning.
#
# The simulated metrics (pdr, latency_p50_s, latency_p99_s,
# airtime_ms_per_delivery, ops_failed_pct) are a pure function of the seed,
# and every run must pass meshbench's own correctness gate. Exit codes:
#   0  every run passed and the simulated metrics agree in every pair;
#   1  a simulated metric differs between the two sides in some pair;
#   2  usage or build error, or a failed run: meshbench exited non-zero,
#      printed no JSON line, or reported "correct": false or a non-zero
#      "failed" count (the pair, the side and the line are printed).
# It runs meshbench/run.py of each checkout and changes no file in either.
# On exit it removes the worktrees and both builds, and the whole scratch
# dir if it made it; the per-pair JSON lines are printed to stderr first.
set -euo pipefail

base="" workload=city pairs=10 seconds=20 seed=1 scratch="" cpu=""
for arg in "$@"; do
  case "$arg" in
    --base=*) base="${arg#*=}" ;;
    --workload=*) workload="${arg#*=}" ;;
    --pairs=*) pairs="${arg#*=}" ;;
    --seconds=*) seconds="${arg#*=}" ;;
    --seed=*) seed="${arg#*=}" ;;
    --scratch=*) scratch="${arg#*=}" ;;
    --cpu=*) cpu="${arg#*=}" ;;
    *) sed -n '2,37p' "$0" >&2; exit 2 ;;
  esac
done
if [ -z "$base" ]; then
  echo "ab_meshbench: --base=REV is required" >&2
  exit 2
fi
pin=()
if [ -n "$cpu" ]; then
  if ! [[ "$cpu" =~ ^[0-9]+$ ]] || ! command -v taskset >/dev/null; then
    echo "ab_meshbench: --cpu=N needs a CPU number and taskset" >&2
    exit 2
  fi
  pin=(taskset -c "$cpu")
fi

repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
base_rev=$(git -C "$repo" rev-parse --verify "$base^{commit}") || exit 2
own_scratch=0
if [ -z "$scratch" ]; then
  scratch=$(mktemp -d -t ab_meshbench.XXXXXX)
  own_scratch=1
fi
mkdir -p "$scratch"
scratch=$(cd "$scratch" && pwd)

# Snapshot the working tree as a commit without touching the real index.
index=$(mktemp)
trap 'rm -f "$index"' EXIT
GIT_INDEX_FILE="$index" git -C "$repo" read-tree HEAD
GIT_INDEX_FILE="$index" git -C "$repo" add -A
tree=$(GIT_INDEX_FILE="$index" git -C "$repo" write-tree)
change_rev=$(GIT_AUTHOR_NAME=ab_meshbench GIT_AUTHOR_EMAIL=ab_meshbench@localhost \
             GIT_COMMITTER_NAME=ab_meshbench GIT_COMMITTER_EMAIL=ab_meshbench@localhost \
             git -C "$repo" commit-tree "$tree" -p HEAD -m "ab_meshbench working tree")

cleanup() {
  rm -f "$index"
  [ -s "$scratch/pairs.jsonl" ] && cat "$scratch/pairs.jsonl" >&2
  for side in base change; do
    git -C "$repo" worktree remove --force "$scratch/$side" 2>/dev/null || true
    rm -rf "${scratch:?}/build-$side"
  done
  git -C "$repo" worktree prune
  if [ "$own_scratch" = 1 ]; then
    rm -rf "$scratch"
  else
    rm -f "$scratch/pairs.jsonl"
  fi
}
trap cleanup EXIT

for side in base change; do
  rev=$base_rev
  [ "$side" = change ] && rev=$change_rev
  git -C "$repo" worktree remove --force "$scratch/$side" 2>/dev/null || true
  git -C "$repo" worktree add --detach --quiet "$scratch/$side" "$rev"
done

# run SIDE PAIR: one run of SIDE, its JSON line left in $line (the first
# run also builds; timed runs are pinned when --cpu is given). A failed run
# ends the script with exit 2.
run() {
  local status=0 launch=()
  [ "$2" != warm-up ] && launch=("${pin[@]}")
  line=$(cd "$scratch/$1" &&
         CARGO_TARGET_DIR="$scratch/build-$1" "${launch[@]}" python3 meshbench/run.py \
           --workload "$workload" --seed "$seed" --seconds "$seconds" 2>/dev/null |
         tail -n 1) || status=$?
  if [ "$status" -ne 0 ] || ! python3 - "$line" <<'EOF'
import json, sys
try:
    result = json.loads(sys.argv[1])
except ValueError:
    sys.exit(1)
sys.exit(0 if result.get("correct") is True and result.get("failed") == 0 else 1)
EOF
  then
    echo "ab_meshbench: pair $2, $1 side failed (exit $status): ${line:-<no output>}" >&2
    exit 2
  fi
}

pinning="unpinned"
[ -n "$cpu" ] && pinning="timed runs pinned to CPU $cpu (taskset -c $cpu)"
echo "ab_meshbench: base $(git -C "$repo" rev-parse --short "$base_rev") vs working tree;" \
     "$workload seed $seed, $pairs pairs of ${seconds}s runs; $pinning" >&2
# One untimed run per side builds it and warms the page cache.
for side in base change; do
  run "$side" warm-up
done

results="$scratch/pairs.jsonl"
: >"$results"
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then
    run base "$i"; b=$line
    run change "$i"; c=$line
  else
    run change "$i"; c=$line
    run base "$i"; b=$line
  fi
  printf '{"base": %s, "change": %s}\n' "$b" "$c" >>"$results"
  python3 - "$i" "$b" "$c" <<'EOF'
import json, sys
i, b, c = sys.argv[1], json.loads(sys.argv[2])["metrics"], json.loads(sys.argv[3])["metrics"]
v = lambda m, k: m[k]["value"]
print(f"pair {i:>2}: sim_s_per_wall_s {v(b,'sim_s_per_wall_s'):8.1f} -> {v(c,'sim_s_per_wall_s'):8.1f}"
      f" (x{v(c,'sim_s_per_wall_s') / v(b,'sim_s_per_wall_s'):.3f})"
      f"  setup_s {v(b,'setup_s'):.3f} -> {v(c,'setup_s'):.3f}"
      f"  peak_rss_mb {v(b,'peak_rss_mb'):.1f} -> {v(c,'peak_rss_mb'):.1f}", flush=True)
EOF
done

python3 - "$results" <<'EOF'
import json, statistics, sys
SIMULATED = ["pdr", "latency_p50_s", "latency_p99_s", "airtime_ms_per_delivery",
             "ops_failed_pct"]
pairs = [json.loads(line) for line in open(sys.argv[1])]
value = lambda run, k: run["metrics"][k]["value"]
differs = [(n + 1, k) for n, p in enumerate(pairs) for k in SIMULATED
           if value(p["base"], k) != value(p["change"], k)]
def quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
for k, better in (("sim_s_per_wall_s", "higher"), ("setup_s", "lower"),
                  ("peak_rss_mb", "lower")):
    ratios = [value(p["change"], k) / value(p["base"], k) for p in pairs]
    sides = []
    for side in ("base", "change"):
        q1, med, q3 = quartiles([value(p[side], k) for p in pairs])
        sides.append(f"{side} {med:.4g} [{q1:.4g}, {q3:.4g}]")
    print(f"{k} ({better} is better): median [quartiles] {'; '.join(sides)}; "
          f"median change/base ratio x{statistics.median(ratios):.3f}")
speed = [value(p["change"], "sim_s_per_wall_s") > value(p["base"], "sim_s_per_wall_s")
         for p in pairs]
print(f"sim_s_per_wall_s: change won {sum(speed)} of {len(pairs)} pairs")
base_q1, base_median, base_q3 = quartiles([value(p["base"], "sim_s_per_wall_s")
                                           for p in pairs])
gap = statistics.median(value(p["change"], "sim_s_per_wall_s") for p in pairs) - base_median
met = 10 * sum(speed) >= 9 * len(pairs) and gap > base_q3 - base_q1
print(f"sim_s_per_wall_s claim rule {'MET' if met else 'NOT MET'}: "
      f"won {sum(speed)}/{len(pairs)} (needs >= 9/10), median gap {gap:+.4g} "
      f"vs base interquartile spread {base_q3 - base_q1:.4g} (needs gap > spread)")
for n, k in differs:
    print(f"SIMULATED METRIC DIFFERS: pair {n} {k}", file=sys.stderr)
sys.exit(1 if differs else 0)
EOF
