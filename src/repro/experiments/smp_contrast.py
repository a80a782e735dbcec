"""Section 1's argument: the CMP latency-capacity trade-off is new.

The paper's central observation is that CMPs *change* the
latency-capacity trade-off relative to SMPs/DSMs: on-chip, obtaining
data from an existing copy is cheap (a pointer return plus a crossbar
access), so trading a little latency for capacity — controlled
replication — pays off; off-chip, "obtaining data from another
processor is expensive ... and trading off latency for on-chip
capacity is inappropriate".

This experiment quantifies that claim by running the same replication
policies at two interconnect scales:

* **CMP**: the paper's 32-cycle on-chip bus;
* **SMP-like**: a 250-cycle off-chip interconnect (and remote accesses
  carrying it), making every remote reference nearly as expensive as
  memory.

Measured: the benefit of *controlled* replication (pointer first,
replicate on second use) over *eager* replication (copy on first use,
like private caches do).  Shape: positive on the CMP interconnect,
vanishing or negative at SMP latencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.params import NurapidParams
from repro.core.nurapid import NurapidCache
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import ExperimentConfig, run_multithreaded

WORKLOAD = "apache"  # read-only-sharing heavy: CR's home turf

#: An off-chip interconnect hop at 5 GHz (round numbers; roughly the
#: paper's 300-cycle memory minus DRAM access time).
SMP_BUS_LATENCY = 250


@dataclass
class SmpContrastResult:
    report: ExperimentReport
    #: ``throughput[(interconnect, policy)]``.
    throughput: "Dict[tuple, float]"
    cr_benefit_cmp: float
    cr_benefit_smp: float


def _design(bus_latency: int, controlled: bool) -> NurapidCache:
    params = NurapidParams(replicate_on_use=2 if controlled else 1)
    return NurapidCache(params, bus_latency=bus_latency)


def run(
    config: "Optional[ExperimentConfig]" = None,
    cache=None,  # accepted for API uniformity with other experiments
) -> SmpContrastResult:
    config = config or ExperimentConfig()
    throughput: "Dict[tuple, float]" = {}
    for interconnect, bus_latency in (("cmp", None), ("smp", SMP_BUS_LATENCY)):
        for policy, controlled in (("controlled", True), ("eager", False)):
            if bus_latency is None:
                design = _design(32, controlled)
            else:
                design = _design(bus_latency, controlled)
            _, stats = run_multithreaded(design, WORKLOAD, config)
            throughput[(interconnect, policy)] = stats.throughput

    cr_benefit_cmp = (
        throughput[("cmp", "controlled")] / throughput[("cmp", "eager")] - 1.0
    )
    cr_benefit_smp = (
        throughput[("smp", "controlled")] / throughput[("smp", "eager")] - 1.0
    )

    report = ExperimentReport(
        "Section 1 contrast: controlled replication on CMP vs SMP "
        f"interconnect latencies ({WORKLOAD})"
    )
    report.add("CR benefit with 32-cycle on-chip bus", None, cr_benefit_cmp)
    report.add(
        f"CR benefit with {SMP_BUS_LATENCY}-cycle off-chip interconnect",
        None,
        cr_benefit_smp,
    )
    report.notes.append(
        "shape: the benefit of trading latency for capacity shrinks (or "
        "inverts) as remote accesses approach memory cost — the paper's "
        "argument for why CR/ISC are CMP-specific ideas."
    )
    return SmpContrastResult(
        report=report,
        throughput=throughput,
        cr_benefit_cmp=cr_benefit_cmp,
        cr_benefit_smp=cr_benefit_smp,
    )

