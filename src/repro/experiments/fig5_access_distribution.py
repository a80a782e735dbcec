"""Figure 5: distribution of L2 cache accesses, shared vs private.

The paper characterizes each multithreaded workload by the mix of L2
accesses — hits, read-only-sharing (ROS) misses, read-write-sharing
(RWS) misses, and capacity misses — for the uniform-shared and private
designs, ordered by decreasing sharing (commercial before scientific).
Key published facts (Section 5.1.1):

* the shared cache has only hits and capacity misses — on average 3%
  capacity misses across commercial workloads;
* private caches average 5% capacity misses (uncontrolled replication
  shrinks effective capacity), 4% ROS misses, and 10% RWS misses;
* OLTP's misses are dominated by RWS; apache and specjbb mix all
  classes; scientific workloads share little.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.common.stats import SimulationStats
from repro.common.types import MissClass
from repro.experiments.report import ExperimentReport, format_table, pct
from repro.experiments.runner import ExperimentConfig, StatsCache, read_sweep
from repro.workloads.multithreaded import COMMERCIAL, MULTITHREADED

#: Figure 5 commercial averages (fractions of L2 accesses).
PAPER_COMMERCIAL_AVG = {
    "uniform-shared": {"capacity": 0.03},
    "private": {"ros": 0.04, "rws": 0.10, "capacity": 0.05},
}

WORKLOADS = tuple(spec.name for spec in MULTITHREADED)
DESIGNS = ("uniform-shared", "private")


@dataclass
class Fig5Result:
    report: ExperimentReport
    #: ``distributions[workload][design]`` -> {class: fraction}.
    distributions: "Dict[str, Dict[str, Dict[str, float]]]"
    stats: "Dict[str, Dict[str, SimulationStats]]"


def _avg(distributions, workloads, design, key) -> float:
    return sum(distributions[w][design][key] for w in workloads) / len(workloads)


def run(config: ExperimentConfig, cache: StatsCache) -> Fig5Result:
    result = read_sweep(WORKLOADS, DESIGNS, config, cache)

    distributions: "Dict[str, Dict[str, Dict[str, float]]]" = {}
    for workload, by_design in result.stats.items():
        distributions[workload] = {}
        for design, stats in by_design.items():
            acc = stats.accesses
            distributions[workload][design] = {
                "hit": acc.fraction(MissClass.HIT),
                "ros": acc.fraction(MissClass.ROS),
                "rws": acc.fraction(MissClass.RWS),
                "capacity": acc.fraction(MissClass.CAPACITY),
            }

    commercial = [spec.name for spec in COMMERCIAL]
    report = ExperimentReport(
        "Figure 5: distribution of L2 accesses (commercial average)"
    )
    report.add(
        "shared capacity misses",
        PAPER_COMMERCIAL_AVG["uniform-shared"]["capacity"],
        _avg(distributions, commercial, "uniform-shared", "capacity"),
    )
    report.add(
        "private capacity misses",
        PAPER_COMMERCIAL_AVG["private"]["capacity"],
        _avg(distributions, commercial, "private", "capacity"),
    )
    report.add(
        "private ROS misses",
        PAPER_COMMERCIAL_AVG["private"]["ros"],
        _avg(distributions, commercial, "private", "ros"),
    )
    report.add(
        "private RWS misses",
        PAPER_COMMERCIAL_AVG["private"]["rws"],
        _avg(distributions, commercial, "private", "rws"),
    )
    report.notes.append(
        "shape checks: private capacity > shared capacity (uncontrolled "
        "replication); OLTP misses dominated by RWS; scientific workloads "
        "have few sharing misses."
    )
    # Access-weighted pooled mix (SimulationStats.merge): the figure's
    # equal-weight workload average, cross-checked against pooling every
    # commercial run's raw counters.
    for design in DESIGNS:
        pooled = result.merged(design, commercial).accesses
        report.notes.append(
            f"{design} pooled commercial miss rate (access-weighted): "
            f"{pct(pooled.miss_rate)} over {pooled.total} L2 accesses"
        )
    return Fig5Result(report=report, distributions=distributions, stats=result.stats)


def render_full(result: Fig5Result) -> str:
    """Per-workload bars, the full Figure 5 layout."""
    rows = []
    for workload in WORKLOADS:
        for design in DESIGNS:
            dist = result.distributions[workload][design]
            rows.append(
                (
                    workload,
                    design,
                    pct(dist["hit"]),
                    pct(dist["ros"]),
                    pct(dist["rws"]),
                    pct(dist["capacity"]),
                )
            )
    return format_table(
        ["workload", "design", "hits", "ROS", "RWS", "capacity"], rows
    )

