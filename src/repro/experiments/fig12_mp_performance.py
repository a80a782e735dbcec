"""Figure 12: multiprogrammed performance.

IPC of non-uniform-shared, private, and CMP-NuRAPID relative to the
uniform-shared cache on the Table 2 mixes.  Published averages
(Section 5.2.2): non-uniform-shared +7%, private +19%, CMP-NuRAPID
+28% — private caches shine without sharing misses, but capacity
stealing still gives CMP-NuRAPID an 8% edge over them, and its low
latency a 20% edge over non-uniform-shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.experiments.report import ExperimentReport, format_table, ratio
from repro.experiments.runner import ExperimentConfig, StatsCache, read_sweep
from repro.workloads.multiprogrammed import MIXES

PAPER_AVG = {
    "non-uniform-shared": 1.07,
    "private": 1.19,
    "cmp-nurapid": 1.28,
}

WORKLOADS = tuple(sorted(MIXES))
DESIGNS = ("uniform-shared", "non-uniform-shared", "private", "cmp-nurapid")


@dataclass
class Fig12Result:
    report: ExperimentReport
    relative: "Dict[str, Dict[str, float]]"
    averages: "Dict[str, float]"


def run(config: ExperimentConfig, cache: StatsCache) -> Fig12Result:
    result = read_sweep(WORKLOADS, DESIGNS, config, cache)
    relative = result.relative_performance(metric="aggregate_ipc")
    averages = result.average_relative(WORKLOADS, metric="aggregate_ipc")

    report = ExperimentReport(
        "Figure 12: multiprogrammed performance (mix average, normalized "
        "to uniform-shared)"
    )
    for design in ("non-uniform-shared", "private", "cmp-nurapid"):
        report.add(design, PAPER_AVG[design], averages[design], unit="x")
    report.notes.append(
        "shape checks: cmp-nurapid > private > non-uniform-shared > 1.0 "
        "on every mix; private is far stronger here than on multithreaded "
        "workloads (no sharing misses)."
    )
    return Fig12Result(report=report, relative=relative, averages=averages)


def render_full(result: Fig12Result) -> str:
    rows = [
        [mix] + [ratio(result.relative[mix][d]) for d in DESIGNS]
        for mix in WORKLOADS
    ]
    return format_table(["mix"] + list(DESIGNS), rows)

