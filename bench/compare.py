"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python bench/compare.py A.json B.json

``A.json`` and ``B.json`` are results files written by ``bench/run.py
--out`` (each holds a list of suite runs); A is the base, B the change,
and their i-th runs form the i-th pair.  Both files must hold the same
number of runs, and every run the same workloads, run at the same seed,
``--seconds`` and run lengths; files that do not are refused.  For each end-to-end metric in
``BENCHMARK.json`` (plus ``fail_rate``, whose bound is 0) it prints one
row per workload: each side's median and quartiles, the share of pairs
each side won, and a verdict:

* ``improved`` - B won at least nine tenths of the pairs (ties count for
  neither) and the medians differ, in B's favour, by more than the
  distance between A's quartiles;
* ``unresolved`` - either side's spread (quartile distance over median)
  is wider than the metric's bound, and not every run of B reads better
  than every run of A;
* ``regressed`` - B's median is worse than A's by more than the bound;
* ``unchanged`` - otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Failures are never allowed to rise.
FAIL_RATE = {"name": "fail_rate", "unit": "ratio", "better": "lower", "bound": 0.0}


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def relative_spread(values: "list[float]") -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else (0.0 if q3 == q1 else float("inf"))


def verdict(a: "list[float]", b: "list[float]", better: str, bound: float) -> dict:
    sign = 1.0 if better == "higher" else -1.0  # sign * (b - a) > 0: B is better
    pairs = list(zip(a, b))
    b_wins = sum(sign * (y - x) > 0 for x, y in pairs)
    a_wins = sum(sign * (y - x) < 0 for x, y in pairs)
    qa, qb = quartiles(a), quartiles(b)
    gain = sign * (qb[1] - qa[1])
    if b_wins >= 0.9 * len(pairs) and gain > qa[2] - qa[0]:
        result = "improved"
    elif max(relative_spread(a), relative_spread(b)) > bound and not all(
        sign * (y - x) > 0 for x in a for y in b
    ):
        result = "unresolved"
    elif -gain > bound * abs(qa[1]):
        result = "regressed"
    else:
        result = "unchanged"
    return {
        "a": qa, "b": qb,
        "a_won": a_wins / len(pairs),
        "b_won": b_wins / len(pairs),
        "verdict": result,
    }


def conditions(run: dict) -> dict:
    """What a run must share with every run it is compared with."""
    return {
        "seed": run["seed"],
        "seconds": run["seconds"],
        "lengths": {name: r["length"] for name, r in sorted(run["workloads"].items())},
    }


def check_comparable(a: dict, b: dict) -> "str | None":
    """Why the runs of ``a`` and ``b`` cannot be paired, or None."""
    if not a["runs"] or len(a["runs"]) != len(b["runs"]):
        return f"A holds {len(a['runs'])} runs and B {len(b['runs'])}"
    reference = conditions(a["runs"][0])
    for side, results in (("A", a), ("B", b)):
        for index, run in enumerate(results["runs"], start=1):
            if conditions(run) != reference:
                return (f"{side} run {index} has {conditions(run)}, "
                        f"A run 1 has {reference}")
    return None


def compare(a: dict, b: dict, metrics: "list[dict]") -> "list[tuple[dict, str, dict]]":
    workloads = list(a["runs"][0]["workloads"])
    rows = []
    for metric in metrics:
        for workload in workloads:
            values = [
                [run["workloads"][workload]["metrics"][metric["name"]]["value"]
                 for run in results["runs"]]
                for results in (a, b)
            ]
            rows.append((metric, workload,
                         verdict(*values, metric["better"], metric["bound"])))
    return rows


def _fmt(q: "tuple[float, float, float]") -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv: "list[str]") -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    problem = check_comparable(a, b)
    if problem is not None:
        print(f"compare: cannot pair the runs: {problem}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"] + [FAIL_RATE]
    print(f"A = {argv[0]} ({len(a['runs'])} runs), B = {argv[1]} ({len(b['runs'])} runs)")
    current = None
    for metric, workload, row in compare(a, b, metrics):
        if metric is not current:
            current = metric
            print(f"\n{metric['name']} ({metric['unit']}, {metric['better']} is better, "
                  f"bound {metric['bound']:.0%})")
            print(f"  {'workload':<16} {'A median [q1, q3]':>32} {'B median [q1, q3]':>32}"
                  f" {'A won':>6} {'B won':>6}  verdict")
        print(f"  {workload:<16} {_fmt(row['a']):>32} {_fmt(row['b']):>32}"
              f" {row['a_won']:>6.0%} {row['b_won']:>6.0%}  {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
