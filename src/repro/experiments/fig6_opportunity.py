"""Figure 6: performance opportunity.

Performance of the non-uniform-shared (CMP-SNUCA), private, and ideal
caches normalized to the uniform-shared cache on the multithreaded
workloads.  The ideal cache — shared capacity at private latency — is
the upper bound for CMP-NuRAPID.  Published commercial averages
(Section 5.1.1): ideal +17%, non-uniform-shared +4%, private +5%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.experiments.report import ExperimentReport, format_table, ratio
from repro.experiments.runner import ExperimentConfig, StatsCache, read_sweep
from repro.workloads.multithreaded import COMMERCIAL, MULTITHREADED

#: Figure 6 commercial averages (relative to uniform-shared = 1.0).
PAPER_COMMERCIAL_AVG = {
    "non-uniform-shared": 1.04,
    "private": 1.05,
    "ideal": 1.17,
}

WORKLOADS = tuple(spec.name for spec in MULTITHREADED)
DESIGNS = ("uniform-shared", "non-uniform-shared", "private", "ideal")


@dataclass
class Fig6Result:
    report: ExperimentReport
    #: ``relative[workload][design]`` -> throughput vs uniform-shared.
    relative: "Dict[str, Dict[str, float]]"


def run(config: ExperimentConfig, cache: StatsCache) -> Fig6Result:
    result = read_sweep(WORKLOADS, DESIGNS, config, cache)
    relative = result.relative_performance()

    commercial = [spec.name for spec in COMMERCIAL]
    averages = result.average_relative(commercial)

    report = ExperimentReport(
        "Figure 6: performance opportunity (commercial average, "
        "normalized to uniform-shared)"
    )
    for design in ("non-uniform-shared", "private", "ideal"):
        report.add(design, PAPER_COMMERCIAL_AVG[design], averages[design], unit="x")
    report.notes.append(
        "shape checks: ideal >> private ~ non-uniform-shared > 1.0 on "
        "commercial workloads; neither baseline closes most of the gap "
        "between uniform-shared and ideal."
    )
    return Fig6Result(report=report, relative=relative)


def render_full(result: Fig6Result) -> str:
    rows = [
        [workload] + [ratio(result.relative[workload][d]) for d in DESIGNS]
        for workload in WORKLOADS
    ]
    return format_table(["workload"] + list(DESIGNS), rows)

