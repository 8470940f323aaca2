#!/usr/bin/env python3
"""Diff two sets of BENCH_*.json artifacts and flag perf regressions.

Usage:
  bench/compare.py BASELINE_DIR CURRENT_DIR [--threshold=0.15] [--all]

Each directory holds the BENCH_<name>.json files written by
`bench/run_all.sh --json` (one flat JSON object per bench: metric name ->
number). The tool prints per-metric deltas for every bench present in both
sets and exits 1 when any gated metric regressed: a timing or latency
metric by more than the threshold (relative), a deterministic one by any
amount.

Regression direction is inferred from the metric name:
  *per_s*, *per_sec*, lower is worse (throughput; only these name a rate —
  *per_wall*          airtime_per_pkt_s is a time, events_per_window a count)
  *_ms                higher is worse (simulated latency percentiles,
                      e.g. `mesh.h4.loss10.p95_ms`; a pure function of the
                      seed, so beyond the threshold it is a behavior
                      change, and no wall-time floor applies)
  *wall_s, *_s        higher is worse (wall time)
  *.events, events,   any change fails (simulated event counts and the
  *.windows,          PDES engine's barrier windows, ghost-exchange posts
  *.ghosts,           and events per window are deterministic: a count
  *.events_per_window that moves is a behavior change, in either
                      direction, not jitter)
  *pdr                lower is worse (delivery rate; a deterministic
                      simulated outcome, so any drop is flagged, e.g. the
                      per-cell `<strategy>.<topology>.pdr` metrics from
                      bench_strategies — a strategy losing delivery on
                      any topology family is a behavior regression, not
                      timing jitter)
  *_mah               higher is worse (energy: charge consumed by the
                      live battery model — deterministic, so any relative
                      growth beyond the threshold is a real efficiency
                      regression, e.g. `<strategy>.<topology>.energy_mah`)
  everything else     informational only (counters, config echoes)

--all also prints metrics that moved less than the threshold.

Caveat: wall-clock numbers on a busy or single-core host jitter run to run
(±35% observed for sub-second benches on the 1-core reference container),
so confirm a flagged regression by re-running the bench alone
(`bench/run_all.sh --json --only=<name>`) before acting on it; the
deterministic behavior metrics (PDR, convergence, counters) never jitter —
any delta there is a real behavior change.
"""

import json
import os
import sys

THRESHOLD_DEFAULT = 0.15
# Ignore wall-time deltas below this absolute floor: sub-100 ms differences
# are process startup + scheduler granularity, not code speed.
EPSILON_S = 0.1
# Energy deltas below this absolute floor (mAh) are double-rounding noise
# in the ledger, not a protocol drawing more current.
EPSILON_MAH = 0.01
# Name suffixes of deterministic simulated counts, where any change fails.
COUNT_SUFFIXES = ("events", "windows", "ghosts", "events_per_window")


def load_dir(path):
    benches = {}
    try:
        names = sorted(os.listdir(path))
    except OSError as e:
        sys.exit(f"cannot read {path}: {e}")
    for name in names:
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        full = os.path.join(path, name)
        try:
            with open(full) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"warning: skipping unreadable {full}: {e}", file=sys.stderr)
            continue
        bench = data.get("name", name[len("BENCH_"):-len(".json")])
        benches[bench] = {
            k: v for k, v in data.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
    return benches


def direction(metric):
    """Returns 'time' (higher worse), 'rate' (lower worse), 'latency'
    (higher worse), 'pdr' (any drop is worse), 'count' (any change is
    worse), 'energy' (higher worse) or None."""
    # Rates before times: sim_s_per_wall_s is a throughput despite its
    # trailing _s. Any other "_per_" is a ratio, not a rate:
    # airtime_per_pkt_s is a time per packet, where higher is worse.
    if "per_s" in metric or "per_sec" in metric or "per_wall" in metric:
        return "rate"
    if metric.endswith("_ms"):
        return "latency"
    if metric.endswith("wall_s") or metric.endswith("_s"):
        return "time"
    if any(metric == s or metric.endswith("." + s) for s in COUNT_SUFFIXES):
        return "count"
    if metric == "pdr" or metric.endswith(".pdr"):
        return "pdr"
    if metric.endswith("_mah"):
        return "energy"
    return None


def main(argv):
    threshold = THRESHOLD_DEFAULT
    show_all = False
    dirs = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        elif arg == "--all":
            show_all = True
        elif arg.startswith("--"):
            sys.exit(f"unknown option {arg}\n{__doc__}")
        else:
            dirs.append(arg)
    if len(dirs) != 2:
        sys.exit(__doc__)

    base, cur = load_dir(dirs[0]), load_dir(dirs[1])
    common = sorted(set(base) & set(cur))
    if not common:
        sys.exit(f"no common benches between {dirs[0]} and {dirs[1]}")
    for only, where in ((set(base) - set(cur), dirs[1]),
                        (set(cur) - set(base), dirs[0])):
        for bench in sorted(only):
            print(f"note: {bench} missing from {where}")

    regressions = []
    for bench in common:
        # Metrics on one side only (a bench grew or dropped a section since
        # the older snapshot) are skipped, not compared; one explicit note
        # per key keeps a shrinking comparison surface visible and
        # greppable, and never affects the exit code — only measured
        # regressions do.
        for only, where in ((set(base[bench]) - set(cur[bench]), dirs[1]),
                            (set(cur[bench]) - set(base[bench]), dirs[0])):
            for key in sorted(only):
                print(f"missing-metric: {bench}.{key} (absent from {where})")
        header_printed = False
        for metric in sorted(set(base[bench]) & set(cur[bench])):
            b, c = base[bench][metric], cur[bench][metric]
            kind = direction(metric)
            delta = c - b
            rel = delta / b if b != 0 else (0.0 if c == 0 else float("inf"))
            worse = ((kind == "time" and rel > threshold
                      and abs(delta) > EPSILON_S) or
                     (kind == "rate" and rel < -threshold) or
                     (kind == "latency" and rel > threshold) or
                     (kind == "count" and delta != 0) or
                     (kind == "pdr" and delta < 0) or
                     (kind == "energy" and rel > threshold
                      and abs(delta) > EPSILON_MAH))
            improved = ((kind == "time" and rel < -threshold
                         and abs(delta) > EPSILON_S) or
                        (kind == "rate" and rel > threshold) or
                        (kind == "latency" and rel < -threshold) or
                        (kind == "pdr" and delta > 0) or
                        (kind == "energy" and rel < -threshold
                         and abs(delta) > EPSILON_MAH))
            if not (worse or improved or show_all):
                continue
            if not header_printed:
                print(f"=== {bench} ===")
                header_printed = True
            tag = "REGRESSION" if worse else ("improved" if improved else "")
            if kind == "pdr" and worse:
                tag = "PDR-REGRESSION (delivery dropped)"
            elif kind == "energy" and worse:
                tag = "ENERGY-REGRESSION (charge drawn grew)"
            elif kind == "count" and worse:
                tag = "COUNT-CHANGED (deterministic count moved)"
            print(f"  {metric:<44} {b:>12.4g} -> {c:>12.4g} "
                  f"({rel:+8.1%}) {tag}")
            if worse:
                regressions.append((bench, metric, rel))

    print()
    if regressions:
        print(f"{len(regressions)} regression(s) (threshold {threshold:.0%}; "
              "deterministic counts and PDR have none):")
        for bench, metric, rel in regressions:
            print(f"  {bench}.{metric}: {rel:+.1%}")
        return 1
    print(f"no regressions beyond {threshold:.0%} "
          f"across {len(common)} bench(es)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
