"""Figure 11: multiprogrammed cache access distribution.

Hit/miss mix for shared, private, and CMP-NuRAPID on the Table 2
SPEC2K mixes.  Sharing is negligible, so ROS/RWS misses are not
separated.  Published averages (Section 5.2.1): miss rates of 8.9%
(shared), 14% (private), and 9.7% (CMP-NuRAPID) — capacity stealing
and the extra tag space let CMP-NuRAPID use capacity almost as well as
the shared cache; the paper also reports 85% of CMP-NuRAPID's accesses
(93% of hits) served by the closest d-group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.experiments.report import ExperimentReport, format_table, pct
from repro.experiments.runner import ExperimentConfig, StatsCache, read_sweep
from repro.workloads.multiprogrammed import MIXES

PAPER_AVG_MISS_RATE = {
    "uniform-shared": 0.089,
    "private": 0.14,
    "cmp-nurapid": 0.097,
}
PAPER_CLOSEST_ACCESSES = 0.85
PAPER_CLOSEST_OF_HITS = 0.93

WORKLOADS = tuple(sorted(MIXES))
DESIGNS = ("uniform-shared", "private", "cmp-nurapid")


@dataclass
class Fig11Result:
    report: ExperimentReport
    #: ``miss_rates[mix][design]``.
    miss_rates: "Dict[str, Dict[str, float]]"
    closest_accesses: float
    closest_of_hits: float


def run(config: ExperimentConfig, cache: StatsCache) -> Fig11Result:
    result = read_sweep(WORKLOADS, DESIGNS, config, cache)

    miss_rates: "Dict[str, Dict[str, float]]" = {
        mix: {
            design: stats.accesses.miss_rate for design, stats in by_design.items()
        }
        for mix, by_design in result.stats.items()
    }

    closest_list = []
    closest_hits_list = []
    for mix in WORKLOADS:
        dgroups = result.stats[mix]["cmp-nurapid"].dgroups
        closest_list.append(dgroups.distribution()["closest"])
        closest_hits_list.append(dgroups.closest_fraction_of_hits)
    closest_accesses = sum(closest_list) / len(closest_list)
    closest_of_hits = sum(closest_hits_list) / len(closest_hits_list)

    report = ExperimentReport(
        "Figure 11: multiprogrammed access distribution (mix average)"
    )
    for design in DESIGNS:
        measured = sum(miss_rates[m][design] for m in WORKLOADS) / len(WORKLOADS)
        report.add(f"{design} miss rate", PAPER_AVG_MISS_RATE[design], measured)
    report.add(
        "cmp-nurapid closest-d-group accesses",
        PAPER_CLOSEST_ACCESSES,
        closest_accesses,
    )
    report.add(
        "cmp-nurapid closest-d-group share of hits",
        PAPER_CLOSEST_OF_HITS,
        closest_of_hits,
    )
    report.notes.append(
        "shape checks: shared < cmp-nurapid << private miss rates; "
        "capacity stealing keeps most hits in the closest d-group."
    )
    return Fig11Result(
        report=report,
        miss_rates=miss_rates,
        closest_accesses=closest_accesses,
        closest_of_hits=closest_of_hits,
    )


def render_full(result: Fig11Result) -> str:
    rows = [
        [mix] + [pct(result.miss_rates[mix][d]) for d in DESIGNS]
        for mix in WORKLOADS
    ]
    return format_table(["mix"] + [f"{d} miss" for d in DESIGNS], rows)

