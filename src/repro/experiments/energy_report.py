"""Extension experiment: per-access dynamic energy by design.

Not a paper artifact — the paper evaluates performance only — but the
NuRAPID lineage [8] is energy-motivated, and the energy story mirrors
the latency one: pointer returns move 16 bits where cache-to-cache
transfers move a kilobit, and distance associativity keeps accesses in
small close structures.  This report prices each design's *measured*
access mix (from a Figure 5/8-style run) with the first-order model in
:mod:`repro.latency.energy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.common.types import MissClass
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import ExperimentConfig, StatsCache, read_sweep
from repro.latency import energy

WORKLOAD = "oltp"
_MODELS = {
    "uniform-shared": energy.shared_cache_model,
    "private": energy.private_cache_model,
    "cmp-nurapid": energy.nurapid_model,
}
#: The sweep grid :func:`run` reads: one workload, each priced design.
WORKLOADS = (WORKLOAD,)
DESIGNS = tuple(_MODELS)


@dataclass
class EnergyResult:
    report: ExperimentReport
    #: pJ per L2 access by design.
    per_access_pj: "Dict[str, float]"


def run(config: ExperimentConfig, cache: StatsCache) -> EnergyResult:
    result = read_sweep(WORKLOADS, DESIGNS, config, cache)

    per_access: "Dict[str, float]" = {}
    for design, factory in _MODELS.items():
        stats = result.stats[WORKLOAD][design]
        acc = stats.accesses
        hit = acc.fraction(MissClass.HIT)
        offchip = acc.fraction(MissClass.CAPACITY)
        onchip = acc.fraction(MissClass.ROS) + acc.fraction(MissClass.RWS)
        # Normalize tiny rounding drift.
        total = hit + onchip + offchip
        per_access[design] = energy.estimate_energy_per_access(
            factory(), hit / total, onchip / total, offchip / total
        )

    report = ExperimentReport(
        f"Energy extension: dynamic energy per L2 access ({WORKLOAD})"
    )
    for design, pj in per_access.items():
        report.add(f"{design} (pJ/access)", None, pj, unit="x")
    report.add(
        "pointer-return vs block-transfer energy ratio",
        None,
        energy.pointer_vs_block_transfer_ratio(),
        unit="x",
    )
    report.notes.append(
        "extension beyond the paper; constants are representative 70 nm "
        "values, so compare designs, not absolute numbers."
    )
    return EnergyResult(report=report, per_access_pj=per_access)

