#!/usr/bin/env python3
"""Explore CMP-NuRAPID's design space on one workload.

Sweeps the knobs the paper discusses — tag capacity (Section 2.2.2),
the controlled-replication threshold (Section 3.1), and the promotion
policy (Section 3.3.1) — and prints miss rates and relative
performance for each configuration, reproducing the qualitative
arguments behind the paper's chosen design point.

Usage::

    python examples/design_space.py [workload] [accesses_per_core]
"""

import sys

from repro import CmpSystem, NurapidCache, make_workload, run_events
from repro.common.params import NurapidParams
from repro.experiments import format_table


def run(params, workload_name, accesses_per_core):
    design = NurapidCache(params)
    system = CmpSystem(design)
    workload = make_workload(workload_name)
    run_events(
        system,
        workload.chunks(accesses_per_core=2 * accesses_per_core),
        accesses_per_core * workload.num_cores,
    )
    stats = system.stats()
    return design, stats


def main():
    workload_name = sys.argv[1] if len(sys.argv) > 1 else "oltp"
    accesses_per_core = int(sys.argv[2]) if len(sys.argv) > 2 else 80_000

    configurations = [
        ("baseline (2x tags, use-2, fastest)", NurapidParams()),
        ("1x tags", NurapidParams(tag_capacity_factor=1)),
        ("4x tags", NurapidParams(tag_capacity_factor=4)),
        ("replicate on first use", NurapidParams(replicate_on_use=1)),
        ("replicate on third use", NurapidParams(replicate_on_use=3)),
        ("next-fastest promotion", NurapidParams(promotion_policy="next-fastest")),
    ]

    rows = []
    baseline_throughput = None
    for label, params in configurations:
        design, stats = run(params, workload_name, accesses_per_core)
        if baseline_throughput is None:
            baseline_throughput = stats.throughput
        rows.append(
            [
                label,
                f"{100 * stats.accesses.miss_rate:.2f}%",
                f"{100 * stats.dgroups.distribution()['closest']:.1f}%",
                f"{stats.throughput / baseline_throughput:.3f}",
            ]
        )

    print(f"CMP-NuRAPID design space on {workload_name}")
    print()
    print(
        format_table(
            ["configuration", "miss rate", "closest-d-group accesses", "rel. perf"],
            rows,
        )
    )
    print()
    print(
        "Paper's choices: 2x tags (almost as good as 4x at a quarter of "
        "the overhead), replication on the second use (first-use copies "
        "waste capacity on never-reused blocks), and the fastest "
        "promotion policy (next-fastest pollutes a neighbour's closest "
        "d-group)."
    )


if __name__ == "__main__":
    main()
