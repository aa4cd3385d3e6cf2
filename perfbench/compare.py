#!/usr/bin/env python3
"""Compare two sets of benchmark results, for example a parent commit's and a
change's.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files written by perfbench/run.py, or directories
holding them (run.py writes to .perfbench/results/).  Each metric is
summarised per workload by the median and quartiles of its per-run values.
A change is worse than its bound from BENCHMARK.json when its median is
worse than the base median by more than that share.  Results whose
environment stamps differ (core count, numba, library versions, thread caps)
are refused, so numbers from different set-ups never mix.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(arg: str) -> list:
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files if not f.name.endswith("-spans.json")]


def by_metric(results: list) -> dict:
    out = {}
    for res in results:
        for name, stats in res["metrics"].items():
            key = (res["workload"], res["trace"], name)
            out.setdefault(key, []).append(stats["median"])
    return out


def spread(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    stamps = {json.dumps(r["env"], sort_keys=True) for r in base + new}
    if len(stamps) != 1:
        print("refusing to compare results with different environment stamps:",
              *sorted(stamps), sep="\n  ", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base_m, new_m = by_metric(base), by_metric(new)
    worse_any = False
    for key in sorted(base_m.keys() & new_m.keys()):
        workload, _, name = key
        rule = rules.get(name, {"better": "lower"})
        b_med, n_med = statistics.median(base_m[key]), statistics.median(new_m[key])
        sign = 1.0 if rule["better"] == "lower" else -1.0
        change = sign * (n_med - b_med) / b_med if b_med else 0.0
        q1, q3 = spread(base_m[key])
        verdict = ""
        if "bound" in rule:
            if change > rule["bound"]:
                verdict, worse_any = "WORSE", True
            elif b_med and (q3 - q1) / abs(b_med) > rule["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
        print(f"{workload:11s} {name:30s} base {b_med:.6g} [{q1:.6g}, {q3:.6g}] "
              f"n={len(base_m[key])}  new {n_med:.6g} n={len(new_m[key])}  "
              f"worse by {100 * change:+.2f}% {verdict}")
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
