"""Figure 9: distribution of data-array accesses for CR and ISC.

Where CMP-NuRAPID's data accesses are served from: the requesting
core's closest d-group, a farther d-group, or a miss.  Published
commercial averages (Section 5.1.2): CR serves 83% of accesses from
the closest d-group, ISC 76% — ISC is lower because the writer reaches
into a farther d-group on every write to read-write-shared data (the
copy stays close to the readers), which is precisely the trade that
eliminates RWS coherence misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.experiments.report import ExperimentReport, format_table, pct
from repro.experiments.runner import ExperimentConfig, StatsCache, read_sweep
from repro.workloads.multithreaded import COMMERCIAL, MULTITHREADED

PAPER_COMMERCIAL_AVG = {
    "cmp-nurapid-cr": 0.83,
    "cmp-nurapid-isc": 0.76,
}

WORKLOADS = tuple(spec.name for spec in MULTITHREADED)
DESIGNS = ("cmp-nurapid-cr", "cmp-nurapid-isc")


@dataclass
class Fig9Result:
    report: ExperimentReport
    #: ``distributions[workload][design]`` -> {closest, farther, miss}.
    distributions: "Dict[str, Dict[str, Dict[str, float]]]"


def run(config: ExperimentConfig, cache: StatsCache) -> Fig9Result:
    result = read_sweep(WORKLOADS, DESIGNS, config, cache)

    distributions: "Dict[str, Dict[str, Dict[str, float]]]" = {}
    for workload, by_design in result.stats.items():
        distributions[workload] = {
            design: stats.dgroups.distribution()
            for design, stats in by_design.items()
        }

    commercial = [spec.name for spec in COMMERCIAL]

    def avg(design: str, key: str) -> float:
        return sum(distributions[w][design][key] for w in commercial) / len(
            commercial
        )

    report = ExperimentReport(
        "Figure 9: data-array access distribution (commercial average)"
    )
    for design, paper in PAPER_COMMERCIAL_AVG.items():
        report.add(f"{design} closest-d-group accesses", paper, avg(design, "closest"))
    report.add("cmp-nurapid-cr farther-d-group accesses", None, avg("cmp-nurapid-cr", "farther"))
    report.add("cmp-nurapid-isc farther-d-group accesses", None, avg("cmp-nurapid-isc", "farther"))
    report.notes.append(
        "shape check: ISC has more farther-d-group accesses than CR "
        "(writers reach into the readers' d-group on every write)."
    )
    return Fig9Result(report=report, distributions=distributions)


def render_full(result: Fig9Result) -> str:
    rows = []
    for workload in WORKLOADS:
        for design in DESIGNS:
            dist = result.distributions[workload][design]
            rows.append(
                [
                    workload,
                    design,
                    pct(dist["closest"]),
                    pct(dist["farther"]),
                    pct(dist["miss"]),
                ]
            )
    return format_table(
        ["workload", "design", "closest", "farther", "miss"], rows
    )

