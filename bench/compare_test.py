#!/usr/bin/env python3
"""Self-test of bench/compare.py on a real trajectory snapshot.

Feeds compare.py real snapshots against themselves (must exit 0) and
against edited copies, each of which must exit 1:
  * pr15 bench_multihop, wide.flood.airtime_per_pkt_s grown by 50 %
    (airtime per packet is a time, so growth is a regression, not an
    improved throughput);
  * pr15 bench_multihop, mesh.h4.loss10.pdr lowered by 0.019 (PDR is
    deterministic, so any drop is a regression, however small);
  * pr15 bench_multihop, mesh.h4.loss10.p95_ms tripled (a simulated
    latency percentile: higher is worse);
  * pr18 bench_scale, every *.events counter raised by 1,000 (event counts
    are deterministic, so any change is a regression);
  * pr19 bench_scale, every *.windows count raised by 1, every *.ghosts
    count lowered by 1 and every *.events_per_window scaled by 1.01 (the
    PDES engine's barrier windows and ghost-exchange posts are
    deterministic too, so a move in either direction is a regression);
  * simulated times, each moved by less than a wall-time gate would see
    (under 15 % and under 0.1 s): pr14 bench_strategies, every *.airtime_s
    scaled by 1.001 and every *.latency_mean_s by 0.99; pr15
    bench_multihop, every *.airtime_per_pkt_s raised by 1 ms; pr14
    bench_convergence, every *.mean_convergence_s raised by 50 ms.
Run by ctest as compare_py_selftest, or directly:

    python3 bench/compare_test.py
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
MULTIHOP = os.path.join(HERE, "trajectory", "pr15", "BENCH_bench_multihop.json")
SCALE = os.path.join(HERE, "trajectory", "pr18", "BENCH_bench_scale.json")
SCALE_PR19 = os.path.join(HERE, "trajectory", "pr19", "BENCH_bench_scale.json")
STRATEGIES = os.path.join(HERE, "trajectory", "pr14", "BENCH_bench_strategies.json")
CONVERGENCE = os.path.join(HERE, "trajectory", "pr14",
                           "BENCH_bench_convergence.json")


def is_events(metric):
    return metric == "events" or metric.endswith(".events")


def ends_with(suffix):
    return lambda metric: metric.endswith("." + suffix)


# (snapshot, label, metric selector, edit)
EDITS = [
    (MULTIHOP, "wide.flood.airtime_per_pkt_s +50%",
     lambda m: m == "wide.flood.airtime_per_pkt_s", lambda v: v * 1.5),
    (MULTIHOP, "mesh.h4.loss10.pdr -0.019",
     lambda m: m == "mesh.h4.loss10.pdr", lambda v: v - 0.019),
    (MULTIHOP, "mesh.h4.loss10.p95_ms x3",
     lambda m: m == "mesh.h4.loss10.p95_ms", lambda v: v * 3),
    (SCALE, "*.events +1000", is_events, lambda v: v + 1000),
    (SCALE_PR19, "*.windows +1", ends_with("windows"), lambda v: v + 1),
    (SCALE_PR19, "*.ghosts -1", ends_with("ghosts"), lambda v: v - 1),
    (SCALE_PR19, "*.events_per_window x1.01", ends_with("events_per_window"),
     lambda v: v * 1.01),
    (STRATEGIES, "*.airtime_s x1.001", ends_with("airtime_s"),
     lambda v: v * 1.001),
    (MULTIHOP, "*.airtime_per_pkt_s +1 ms", ends_with("airtime_per_pkt_s"),
     lambda v: v + 0.001),
    (STRATEGIES, "*.latency_mean_s x0.99", ends_with("latency_mean_s"),
     lambda v: v * 0.99),
    (CONVERGENCE, "*.mean_convergence_s +50 ms", ends_with("mean_convergence_s"),
     lambda v: v + 0.05),
]


def compare(base_dir, cur_dir):
    run = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), base_dir, cur_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return run.returncode, run.stdout


def main():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for index, (snapshot, label, selects, edit) in enumerate(EDITS):
            with open(snapshot) as f:
                data = json.load(f)
            base = os.path.join(tmp, f"base{index}")
            edited = os.path.join(tmp, f"edited{index}")
            for d in (base, edited):
                os.mkdir(d)
            shutil.copy(snapshot, base)
            code, out = compare(base, base)
            if code != 0:
                failures.append(f"unchanged {snapshot}: exit {code}, want 0\n{out}")

            metrics = [m for m in data if selects(m)]
            if not metrics:
                failures.append(f"{label}: no such metric in {snapshot}")
                continue
            for metric in metrics:
                data[metric] = edit(data[metric])
            with open(os.path.join(edited, os.path.basename(snapshot)), "w") as f:
                json.dump(data, f)
            code, out = compare(base, edited)
            if code != 1:
                failures.append(f"{label}: exit {code}, want 1\n{out}")
                continue
            for metric in metrics:
                line = next((l for l in out.splitlines()
                             if l.split()[:1] == [metric]), "")
                flagged = "REGRESSION" in line or "CHANGED" in line
                if "improved" in line or not flagged:
                    failures.append(f"{label}: {metric} not flagged\n{out}")

    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("compare.py self-test: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
