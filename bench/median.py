#!/usr/bin/env python3
"""Fold repeated bench runs into one per-metric median artifact.

Usage:
  bench/median.py OUT_DIR RUN_DIR [RUN_DIR ...]

Each RUN_DIR holds the BENCH_<name>.json files of one run (as written by
`bench/run_all.sh --json` or `<bench> --json`). For every bench present in
all runs, OUT_DIR/BENCH_<name>.json gets the median of each numeric metric
across the runs, plus `runs`, the number of runs folded. Deterministic
counters come out unchanged; wall times and rates become medians, which is
what a trajectory snapshot should record on a host whose speed drifts.
"""

import json
import os
import statistics
import sys


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__)
    out_dir, run_dirs = argv[1], argv[2:]
    names = set.intersection(*(
        {n for n in os.listdir(d) if n.startswith("BENCH_") and n.endswith(".json")}
        for d in run_dirs))
    if not names:
        sys.exit("no BENCH_*.json common to every run directory")
    os.makedirs(out_dir, exist_ok=True)
    for name in sorted(names):
        runs = []
        for d in run_dirs:
            with open(os.path.join(d, name)) as f:
                runs.append(json.load(f))
        folded = {k: v for k, v in runs[0].items() if isinstance(v, str)}
        for key in runs[0]:
            values = [r.get(key) for r in runs]
            if all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in values):
                folded[key] = statistics.median(values)
        folded["runs"] = len(runs)
        with open(os.path.join(out_dir, name), "w") as f:
            json.dump(folded, f)
            f.write("\n")
        print(f"{name}: median of {len(runs)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
