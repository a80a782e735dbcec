"""Figure 7: block reuse patterns in private caches.

For private caches the paper histograms, per workload:

* of all *replacements* of blocks that were filled by a read-only-
  sharing miss, how many times the block was reused (0, 1, 2-5, >5)
  before being replaced — on average 42% see no reuse at all and 50%
  are reused at least twice, motivating controlled replication's
  copy-on-second-use policy;
* of all *invalidations* of blocks filled by a read-write-sharing
  miss, the same reuse buckets — 69% are reused 2-5 times and only 8%
  more than 5, motivating in-situ communication's placement of the
  single copy near the readers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.common.stats import REUSE_BUCKETS
from repro.experiments.report import ExperimentReport, format_table, pct
from repro.experiments.runner import ExperimentConfig, StatsCache, read_sweep
from repro.workloads.multithreaded import COMMERCIAL, MULTITHREADED

#: Figure 7 commercial averages.
PAPER_ROS_NO_REUSE = 0.42
PAPER_ROS_TWO_PLUS = 0.50
PAPER_RWS_2_5 = 0.69
PAPER_RWS_OVER_5 = 0.08

WORKLOADS = tuple(spec.name for spec in MULTITHREADED)
#: Reuse histograms are a property of the private design alone.
DESIGNS = ("private",)


@dataclass
class Fig7Result:
    report: ExperimentReport
    #: ``ros[workload]`` / ``rws[workload]`` -> {bucket: fraction}.
    ros: "Dict[str, Dict[str, float]]"
    rws: "Dict[str, Dict[str, float]]"


def run(config: ExperimentConfig, cache: StatsCache) -> Fig7Result:
    result = read_sweep(WORKLOADS, DESIGNS, config, cache)

    ros: "Dict[str, Dict[str, float]]" = {}
    rws: "Dict[str, Dict[str, float]]" = {}
    for workload, by_design in result.stats.items():
        reuse = by_design["private"].reuse
        ros[workload] = reuse.ros_fractions()
        rws[workload] = reuse.rws_fractions()

    commercial = [spec.name for spec in COMMERCIAL]

    def avg(table, bucket):
        return sum(table[w][bucket] for w in commercial) / len(commercial)

    report = ExperimentReport("Figure 7: reuse patterns (commercial average)")
    report.add("replaced ROS blocks with 0 reuses", PAPER_ROS_NO_REUSE, avg(ros, "0"))
    report.add(
        "replaced ROS blocks with >=2 reuses",
        PAPER_ROS_TWO_PLUS,
        avg(ros, "2-5") + avg(ros, ">5"),
    )
    report.add("invalidated RWS blocks with 2-5 reuses", PAPER_RWS_2_5, avg(rws, "2-5"))
    report.add("invalidated RWS blocks with >5 reuses", PAPER_RWS_OVER_5, avg(rws, ">5"))
    report.notes.append(
        "shape checks: a large fraction of ROS blocks is never reused "
        "(first-use copies waste capacity) while most reused blocks see "
        ">=2 uses (copy on second use); most RWS blocks see a handful of "
        "reads between invalidations (keep the copy near the readers)."
    )
    return Fig7Result(report=report, ros=ros, rws=rws)


def render_full(result: Fig7Result) -> str:
    rows = []
    for workload in WORKLOADS:
        for kind, table in (("ROS", result.ros), ("RWS", result.rws)):
            rows.append(
                [workload, kind]
                + [pct(table[workload][bucket]) for bucket in REUSE_BUCKETS]
            )
    return format_table(["workload", "blocks"] + list(REUSE_BUCKETS), rows)

