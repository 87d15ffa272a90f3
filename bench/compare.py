"""Compare two sets of benchmark runs, workload by workload.

    python bench/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is a result document written by ``bench/run.py --out``: one
workload run or a set of runs.  Untraced runs only are compared.  For
every workload and every end-to-end metric of ``BENCHMARK.json``, a row
gives each side's median and quartiles and a verdict against the
metric's bound:

* ``unresolved`` -- a side's quartile spread, as a share of its median,
  exceeds the bound, and not every B run beats every A run;
* ``improved`` / ``regressed`` -- B's median is better / worse than A's
  by more than the bound;
* ``unchanged`` -- otherwise.

Exits with 1 when any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

Samples = Dict[Tuple[str, str], List[float]]


def load_samples(paths: Sequence[str]) -> Samples:
    """``(workload, metric) -> values`` over the untraced runs in ``paths``."""
    samples: Samples = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for run in doc.get("runs", [doc]):
            if run["trace"]:
                continue
            for name, metric in run["metrics"].items():
                samples[(run["workload"], name)].append(metric["value"])
    return samples


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (quartiles(b)[1] - quartiles(a)[1]) / abs(quartiles(a)[1])
    if max(spread(a), spread(b)) > bound:
        b_always_better = all(sign * (y - x) > 0 for x in a for y in b)
        return "improved" if b_always_better else "unresolved"
    if gain > bound:
        return "improved"
    if gain < -bound:
        return "regressed"
    return "unchanged"


def compare(a: Samples, b: Samples, spec: Dict) -> List[Dict]:
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if not a.get(key) or not b.get(key):
                continue
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "a": quartiles(a[key]),
                "b": quartiles(b[key]),
                "n": (len(a[key]), len(b[key])),
                "change": (quartiles(b[key])[1] - quartiles(a[key])[1]) / abs(quartiles(a[key])[1]),
                "verdict": verdict(a[key], b[key], metric["better"], metric["bound"]),
            })
    return rows


def format_rows(rows: List[Dict]) -> str:
    lines = [f"{'workload':<16} {'metric':<18} {'A median [q1, q3]':>32} "
             f"{'B median [q1, q3]':>32} {'change':>8}  verdict"]
    for row in rows:
        cells = [
            f"{m:.5g} [{q1:.5g}, {q3:.5g}] n={n}"
            for (q1, m, q3), n in ((row["a"], row["n"][0]), (row["b"], row["n"][1]))
        ]
        lines.append(f"{row['workload']:<16} {row['metric']:<18} {cells[0]:>32} "
                     f"{cells[1]:>32} {row['change']:>+8.1%}  {row['verdict']}")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if "--" not in argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    split = argv.index("--")
    a_paths, b_paths = argv[:split], argv[split + 1:]
    if not a_paths or not b_paths:
        print("both sides need at least one result file", file=sys.stderr)
        return 2
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    rows = compare(load_samples(a_paths), load_samples(b_paths), spec)
    print(format_rows(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
