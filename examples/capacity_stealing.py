#!/usr/bin/env python3
"""Capacity stealing on a skewed multiprogrammed mix.

Runs Table 2's MIX1 — apsi, art, equake, and mesa — where art's
working set far exceeds a 2 MB private cache while mesa barely uses
its share.  Private caches force art to evict to memory; CMP-NuRAPID
demotes art's overflow into mesa's under-used d-group (Section 3.3),
trading a 20-cycle neighbour access for a 300-cycle memory miss.

The script prints per-design miss rates, the demotion/promotion
activity, and how CMP-NuRAPID's d-group occupancy redistributes
capacity across cores.

Usage::

    python examples/capacity_stealing.py [accesses_per_core]
"""

import sys

from repro import CmpSystem, NurapidCache, PrivateCaches, SharedCache, make_mix
from repro.experiments import format_table

MIX = "MIX1"


def run(design, accesses_per_core):
    system = CmpSystem(design)
    workload = make_mix(MIX)
    system.run_chunks(
        workload.chunks(accesses_per_core=2 * accesses_per_core),
        warmup_events=accesses_per_core * workload.num_cores,
    )
    return workload, system.stats()


def main():
    accesses_per_core = int(sys.argv[1]) if len(sys.argv) > 1 else 120_000

    workload, shared_stats = run(SharedCache(), accesses_per_core)
    _, private_stats = run(PrivateCaches(), accesses_per_core)
    nurapid = NurapidCache()
    _, nurapid_stats = run(nurapid, accesses_per_core)

    apps = ", ".join(f"P{i}={app.name}" for i, app in enumerate(workload.apps))
    print(f"{MIX}: {apps}")
    print()
    print(
        format_table(
            ["design", "L2 miss rate", "rel. IPC (sum)"],
            [
                [
                    name,
                    f"{100 * stats.accesses.miss_rate:.1f}%",
                    f"{stats.aggregate_ipc / shared_stats.aggregate_ipc:.3f}",
                ]
                for name, stats in (
                    ("uniform-shared", shared_stats),
                    ("private", private_stats),
                    ("cmp-nurapid", nurapid_stats),
                )
            ],
        )
    )
    print()
    print(
        f"CMP-NuRAPID demotions: {nurapid.counters.demotions}, "
        f"promotions: {nurapid.counters.promotions}"
    )
    print(
        "closest-d-group share of hits: "
        f"{100 * nurapid_stats.dgroups.closest_fraction_of_hits:.1f}%"
    )
    print()
    occupancy_rows = [
        [
            f"d-group {chr(ord('a') + index)} (P{index}'s closest)",
            group.occupied_count,
            group.num_frames,
        ]
        for index, group in enumerate(nurapid.data.dgroups)
    ]
    print(format_table(["d-group", "occupied frames", "total frames"], occupancy_rows))
    print()
    print(
        "Expected: private caches miss far more than the shared cache "
        "(art thrashes its 2 MB); CMP-NuRAPID stays near the shared "
        "cache's miss rate while keeping private-cache-like latency — "
        "the Figure 11/12 result."
    )


if __name__ == "__main__":
    main()
