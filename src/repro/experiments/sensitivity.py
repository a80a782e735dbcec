"""Sensitivity studies: cache capacity, core count, and bus contention.

The paper evaluates one configuration (4 cores, 8 MB, uncontended bus)
and notes it is "substantially more aggressive than existing CMP
proposals" like Sun Gemini (1 MB) and IBM Power5 (1.9 MB).  These
studies probe how the conclusions move with the machine:

* **capacity sweep** — total L2 budget of 4/8/16 MB.  Shape: shrinking
  capacity inflates private caches' replication penalty, widening
  CMP-NuRAPID's margin; abundant capacity converges the designs.
* **core-count scaling** — an 8-core CMP with 8 one-MB d-groups, using
  the generalized Latin-square preference rankings.
* **bus contention** — enabling the split-transaction bus's occupancy
  model, which the paper deliberately leaves out ("ignoring overheads
  in bus latency helps private caches").  Shape: private caches, the
  heaviest bus users, lose the most.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.caches.private import PrivateCaches
from repro.caches.shared import SharedCache
from repro.common.params import (
    MB,
    CacheGeometry,
    NurapidParams,
    PrivateCacheParams,
    SharedCacheParams,
)
from repro.core.nurapid import NurapidCache
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import ExperimentConfig, run_multithreaded

WORKLOAD = "oltp"


@dataclass
class SensitivityResult:
    report: ExperimentReport
    raw: "Dict[str, object]"


def _designs_for_budget(total_mb: int):
    """Build shared/private/nurapid designs for one total L2 budget."""
    per_core = total_mb * MB // 4
    shared = SharedCache(
        SharedCacheParams(geometry=CacheGeometry(total_mb * MB, 32, 128))
    )
    private = PrivateCaches(
        PrivateCacheParams(geometry=CacheGeometry(per_core, 8, 128))
    )
    nurapid = NurapidCache(NurapidParams(dgroup_capacity_bytes=per_core))
    return {"uniform-shared": shared, "private": private, "cmp-nurapid": nurapid}


def run_capacity_sweep(
    config: "Optional[ExperimentConfig]" = None,
) -> SensitivityResult:
    """Total L2 budget sweep on the sharing-heavy OLTP workload."""
    config = config or ExperimentConfig()
    raw: "Dict[str, object]" = {}
    report = ExperimentReport(f"Sensitivity: total L2 capacity ({WORKLOAD})")
    for total_mb in (4, 8, 16):
        stats = {}
        for name, design in _designs_for_budget(total_mb).items():
            _, run_stats = run_multithreaded(design, WORKLOAD, config)
            stats[name] = run_stats
        raw[f"{total_mb}MB"] = stats
        base = stats["uniform-shared"].throughput
        for name in ("private", "cmp-nurapid"):
            report.add(
                f"{total_mb} MB: {name} vs shared",
                None,
                stats[name].throughput / base if base else 0.0,
                unit="x",
            )
        report.add(
            f"{total_mb} MB: private extra misses vs shared",
            None,
            stats["private"].accesses.miss_rate
            - stats["uniform-shared"].accesses.miss_rate,
        )
    report.notes.append(
        "shape: the private caches' replication penalty (extra misses) "
        "grows as capacity shrinks; cmp-nurapid tracks the shared "
        "cache's miss rate at every size."
    )
    return SensitivityResult(report=report, raw=raw)


def run_core_scaling(
    config: "Optional[ExperimentConfig]" = None,
) -> SensitivityResult:
    """An 8-core CMP-NuRAPID with 8 d-groups of 1 MB."""
    config = config or ExperimentConfig()
    raw: "Dict[str, object]" = {}
    report = ExperimentReport("Sensitivity: 8-core CMP-NuRAPID (oltp model)")
    for cores in (4, 8):
        params = NurapidParams(
            num_cores=cores,
            num_dgroups=cores,
            dgroup_capacity_bytes=8 * MB // cores,
        )
        design = NurapidCache(params)
        _, stats = run_multithreaded(design, WORKLOAD, config, num_cores=cores)
        raw[f"{cores}-core"] = stats
        design.check_invariants()
        report.add(f"{cores}-core miss rate", None, stats.accesses.miss_rate)
        report.add(
            f"{cores}-core closest-d-group accesses",
            None,
            stats.dgroups.distribution()["closest"],
        )
    report.notes.append(
        "the 8-core configuration uses the generalized Latin-square "
        "d-group preference rankings (Section 2.2.1's staggering "
        "property holds at any square core count)."
    )
    return SensitivityResult(report=report, raw=raw)


def run_bus_contention(
    config: "Optional[ExperimentConfig]" = None,
) -> SensitivityResult:
    """Private caches with and without bus-occupancy contention."""
    config = config or ExperimentConfig()
    raw: "Dict[str, object]" = {}
    report = ExperimentReport(
        f"Sensitivity: bus contention for private caches ({WORKLOAD})"
    )
    baseline = None
    for label, occupancy in (("uncontended (paper)", 0), ("8-cycle occupancy", 8), ("16-cycle occupancy", 16)):
        design = PrivateCaches(bus_occupancy=occupancy)
        _, stats = run_multithreaded(design, WORKLOAD, config)
        raw[label] = stats
        if baseline is None:
            baseline = stats.throughput
        report.add(
            f"{label}: relative performance",
            None,
            stats.throughput / baseline if baseline else 0.0,
            unit="x",
        )
    report.notes.append(
        "the paper notes that ignoring bus-latency overheads *helps* "
        "private caches; this sweep quantifies how much."
    )
    return SensitivityResult(report=report, raw=raw)


ALL_SENSITIVITIES = {
    "capacity": run_capacity_sweep,
    "core-scaling": run_core_scaling,
    "bus-contention": run_bus_contention,
}


def main() -> None:  # pragma: no cover - CLI convenience
    import sys

    config = ExperimentConfig.quick() if "--quick" in sys.argv else None
    for name, fn in ALL_SENSITIVITIES.items():
        print(fn(config).report.render())
        print()


if __name__ == "__main__":  # pragma: no cover
    main()
