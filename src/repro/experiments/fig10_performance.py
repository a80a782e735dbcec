"""Figure 10: multithreaded performance — the headline result.

Performance of non-uniform-shared, private, ideal, and CMP-NuRAPID
(with both CR and ISC) normalized to the uniform-shared cache.
Published (Sections 1 and 5.1.3), commercial averages:

* CMP-NuRAPID +13% over uniform-shared (+8% over private);
* non-uniform-shared +4%, private +5%, ideal +17%;
* CMP-NuRAPID within ~3% of ideal on average (8% behind on OLTP, its
  best workload at +16% where remote-d-group accesses are frequent);
* on scientific workloads the gap over private narrows (in barnes,
  private and CMP-NuRAPID tie, both ~10% over non-uniform-shared).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.experiments.report import ExperimentReport, format_table, ratio
from repro.experiments.runner import ExperimentConfig, StatsCache, read_sweep
from repro.workloads.multithreaded import COMMERCIAL, MULTITHREADED

#: Figure 10 commercial averages (relative to uniform-shared = 1.0).
PAPER_COMMERCIAL_AVG = {
    "non-uniform-shared": 1.04,
    "private": 1.05,
    "ideal": 1.17,
    "cmp-nurapid": 1.13,
}
#: OLTP, CMP-NuRAPID's best workload.
PAPER_OLTP_NURAPID = 1.16

WORKLOADS = tuple(spec.name for spec in MULTITHREADED)
DESIGNS = (
    "uniform-shared",
    "non-uniform-shared",
    "private",
    "ideal",
    "cmp-nurapid",
)


@dataclass
class Fig10Result:
    report: ExperimentReport
    relative: "Dict[str, Dict[str, float]]"
    averages: "Dict[str, float]"


def run(config: ExperimentConfig, cache: StatsCache) -> Fig10Result:
    result = read_sweep(WORKLOADS, DESIGNS, config, cache)
    relative = result.relative_performance()
    commercial = [spec.name for spec in COMMERCIAL]
    averages = result.average_relative(commercial)

    report = ExperimentReport(
        "Figure 10: performance (commercial average, normalized to "
        "uniform-shared)"
    )
    for design in ("non-uniform-shared", "private", "ideal", "cmp-nurapid"):
        report.add(design, PAPER_COMMERCIAL_AVG[design], averages[design], unit="x")
    report.add(
        "cmp-nurapid on OLTP", PAPER_OLTP_NURAPID, relative["oltp"]["cmp-nurapid"],
        unit="x",
    )
    report.notes.append(
        "shape checks: cmp-nurapid beats both non-uniform-shared and "
        "private on every commercial workload and tracks ideal; its edge "
        "over private narrows on scientific workloads."
    )
    return Fig10Result(report=report, relative=relative, averages=averages)


def render_full(result: Fig10Result) -> str:
    rows = [
        [workload] + [ratio(result.relative[workload][d]) for d in DESIGNS]
        for workload in WORKLOADS
    ]
    return format_table(["workload"] + list(DESIGNS), rows)

