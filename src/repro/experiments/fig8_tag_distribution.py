"""Figure 8: distribution of tag-array accesses.

Access mix for shared, private, CMP-NuRAPID with controlled replication
only (CR), and CMP-NuRAPID with in-situ communication only (ISC).
Published commercial averages (Section 5.1.2):

* CR cuts capacity misses from private's 5% to 3% (-40%) and ROS
  misses from 4% to 2% (-50%);
* ISC cuts RWS misses from private's 10% to 2% (-80%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.common.types import MissClass
from repro.experiments.report import ExperimentReport, format_table, pct
from repro.experiments.runner import ExperimentConfig, StatsCache, read_sweep
from repro.workloads.multithreaded import COMMERCIAL, MULTITHREADED

PAPER_COMMERCIAL_AVG = {
    ("private", "capacity"): 0.05,
    ("private", "ros"): 0.04,
    ("private", "rws"): 0.10,
    ("cmp-nurapid-cr", "capacity"): 0.03,
    ("cmp-nurapid-cr", "ros"): 0.02,
    ("cmp-nurapid-isc", "rws"): 0.02,
}

WORKLOADS = tuple(spec.name for spec in MULTITHREADED)
DESIGNS = ("uniform-shared", "private", "cmp-nurapid-cr", "cmp-nurapid-isc")

_KEYS = {
    "hit": MissClass.HIT,
    "ros": MissClass.ROS,
    "rws": MissClass.RWS,
    "capacity": MissClass.CAPACITY,
}


@dataclass
class Fig8Result:
    report: ExperimentReport
    #: ``distributions[workload][design]`` -> {class: fraction}.
    distributions: "Dict[str, Dict[str, Dict[str, float]]]"


def run(config: ExperimentConfig, cache: StatsCache) -> Fig8Result:
    result = read_sweep(WORKLOADS, DESIGNS, config, cache)

    distributions: "Dict[str, Dict[str, Dict[str, float]]]" = {}
    for workload, by_design in result.stats.items():
        distributions[workload] = {
            design: {
                key: stats.accesses.fraction(mc) for key, mc in _KEYS.items()
            }
            for design, stats in by_design.items()
        }

    commercial = [spec.name for spec in COMMERCIAL]

    def avg(design: str, key: str) -> float:
        return sum(distributions[w][design][key] for w in commercial) / len(
            commercial
        )

    report = ExperimentReport(
        "Figure 8: tag-array access distribution (commercial average)"
    )
    for (design, key), paper in PAPER_COMMERCIAL_AVG.items():
        report.add(f"{design} {key} misses", paper, avg(design, key))
    report.notes.append(
        "shape checks: CR reduces capacity and ROS misses below private; "
        "ISC nearly eliminates RWS misses; both approach the shared "
        "cache's capacity-miss level."
    )
    return Fig8Result(report=report, distributions=distributions)


def render_full(result: Fig8Result) -> str:
    rows = []
    for workload in WORKLOADS:
        for design in DESIGNS:
            dist = result.distributions[workload][design]
            rows.append(
                [workload, design]
                + [pct(dist[key]) for key in ("hit", "ros", "rws", "capacity")]
            )
    return format_table(
        ["workload", "design", "hits", "ROS", "RWS", "capacity"], rows
    )

