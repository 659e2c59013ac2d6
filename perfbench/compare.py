#!/usr/bin/env python3
"""Compare two sets of benchmark records written by perfbench/run.py.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds `<workload>-seed<n>-trace0.json` records (run.py
writes them to perfbench/results/; copy that directory aside between the
two sets). For every workload and end-to-end metric the script prints each
side's median and quartiles and the change of the median against the
metric's bound in BENCHMARK.json. Records whose host fingerprints differ
(CPU, nproc, L3, rustc, profile, backends, thread budget) are marked NOT
COMPARABLE and get no verdict.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    by_workload = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as f:
            record = json.load(f)
        if record.get("correct"):
            by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, change = load(sys.argv[1]), load(sys.argv[2])
    for workload in sorted(set(base) | set(change)):
        a, b = base.get(workload, []), change.get(workload, [])
        keys = {r["fingerprint"]["comparable_key"] for r in a + b}
        comparable = len(keys) == 1 and a and b
        print(f"{workload}: {len(a)} vs {len(b)} runs"
              + ("" if comparable else "  NOT COMPARABLE (fingerprints or runs differ)"))
        for name, metric in spec.items():
            va = [r["metrics"][name]["value"] for r in a if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            if not va or not vb:
                continue
            (a1, am, a3), (b1, bm, b3) = quartiles(va), quartiles(vb)
            worse = (bm - am) / am if metric["better"] == "lower" else (am - bm) / am
            verdict = ("-" if not comparable
                       else "REGRESSION" if worse > metric["bound"] else "ok")
            print(f"  {name:16s} {am:12.5g} [{a1:.5g}, {a3:.5g}]  ->  {bm:12.5g} [{b1:.5g}, {b3:.5g}]"
                  f"  worse by {worse:+.3f} (bound {metric['bound']})  {verdict}")


if __name__ == "__main__":
    main()
