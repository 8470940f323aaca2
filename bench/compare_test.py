#!/usr/bin/env python3
"""Self-test of bench/compare.py on a real trajectory snapshot.

Feeds compare.py the pr15 bench_multihop snapshot against itself (must
exit 0) and against edited copies, each of which must exit 1:
  * wide.flood.airtime_per_pkt_s grown by 50 % (airtime per packet is a
    time, so growth is a regression, not an improved throughput);
  * mesh.h4.loss10.pdr lowered by 0.019 (PDR is deterministic, so any drop
    is a regression, however small).
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
SNAPSHOT = os.path.join(HERE, "trajectory", "pr15", "BENCH_bench_multihop.json")
EDITS = [
    ("wide.flood.airtime_per_pkt_s", "+50%", lambda v: v * 1.5),
    ("mesh.h4.loss10.pdr", "-0.019", lambda v: v - 0.019),
]


def compare(base_dir, cur_dir):
    run = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), base_dir, cur_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return run.returncode, run.stdout


def main():
    failures = []
    with open(SNAPSHOT) as f:
        snapshot = json.load(f)
    with tempfile.TemporaryDirectory() as tmp:
        base, same = os.path.join(tmp, "base"), os.path.join(tmp, "same")
        for d in (base, same):
            os.mkdir(d)
            shutil.copy(SNAPSHOT, d)
        code, out = compare(base, same)
        if code != 0:
            failures.append(f"unchanged snapshot: exit {code}, want 0\n{out}")

        for metric, label, edit in EDITS:
            edited = os.path.join(tmp, metric)
            os.mkdir(edited)
            data = dict(snapshot)
            data[metric] = edit(data[metric])
            with open(os.path.join(edited, os.path.basename(SNAPSHOT)), "w") as f:
                json.dump(data, f)
            code, out = compare(base, edited)
            if code != 1:
                failures.append(f"{metric} {label}: exit {code}, want 1\n{out}")
            elif "improved" in next((l for l in out.splitlines() if metric in l), ""):
                failures.append(f"{metric} {label} labelled improved\n{out}")

    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("compare.py self-test: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
