#!/usr/bin/env python3
"""Self-test of bench/compare.py on a real trajectory snapshot.

Feeds compare.py the pr15 bench_multihop snapshot against itself (must
exit 0) and against a copy whose wide.flood.airtime_per_pkt_s grew by 50 %
(must exit 1: airtime per packet is a time, so growth is a regression, not
an improved throughput). Run by ctest as compare_py_selftest, or directly:

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
METRIC = "wide.flood.airtime_per_pkt_s"


def compare(base_dir, cur_dir):
    run = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), base_dir, cur_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return run.returncode, run.stdout


def main():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        base, same, edited = (os.path.join(tmp, d) for d in ("base", "same", "edited"))
        for d in (base, same, edited):
            os.mkdir(d)
            shutil.copy(SNAPSHOT, d)
        with open(SNAPSHOT) as f:
            data = json.load(f)
        data[METRIC] *= 1.5
        with open(os.path.join(edited, os.path.basename(SNAPSHOT)), "w") as f:
            json.dump(data, f)

        code, out = compare(base, same)
        if code != 0:
            failures.append(f"unchanged snapshot: exit {code}, want 0\n{out}")
        code, out = compare(base, edited)
        if code != 1:
            failures.append(f"{METRIC} +50%: exit {code}, want 1\n{out}")
        elif "improved" in next((l for l in out.splitlines() if METRIC in l), ""):
            failures.append(f"{METRIC} +50% labelled improved\n{out}")

    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("compare.py self-test: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
