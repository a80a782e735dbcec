"""Ablation studies for CMP-NuRAPID's design choices.

Each ablation isolates a decision the paper argues for:

* **promotion policy** — *fastest* vs *next-fastest* (Section 3.3.1:
  next-fastest was best for uniprocessor NuRAPID, but in a CMP one
  core's next-fastest d-group is another core's fastest, so fastest
  wins);
* **tag capacity** — 1x / 2x / 4x private-tag entries (Section 2.2.2:
  2x performs almost as well as 4x at a fraction of the overhead);
* **replication threshold** — copy shared data on first, second, or
  third use (Section 3.1: most reused blocks see >=2 reuses, so the
  second use is the sweet spot);
* **d-group preference staggering** — Figure 1's staggered ranking vs
  a naive ranking where equal-distance cores contend for the same
  d-group (Section 2.2.1);
* **update-protocol strawman** — in-situ communication vs update-based
  private caches (Section 3.2: updates avoid coherence misses but pay
  bus data traffic on every shared write and keep redundant copies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.caches.private import UpdateProtocolCaches
from repro.common.params import NurapidParams
from repro.core.nurapid import NurapidCache
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import ExperimentConfig, run_mix, run_multithreaded


@dataclass
class AblationResult:
    report: ExperimentReport
    raw: "Dict[str, object]"


def run_promotion(config: "Optional[ExperimentConfig]" = None) -> AblationResult:
    """Fastest vs next-fastest promotion, on a capacity-skewed mix."""
    config = config or ExperimentConfig()
    raw: "Dict[str, object]" = {}
    report = ExperimentReport("Ablation: promotion policy (MIX1)")
    baseline = None
    for policy in ("fastest", "next-fastest"):
        design = NurapidCache(NurapidParams(promotion_policy=policy))
        _, stats = run_mix(design, "MIX1", config)
        raw[policy] = stats
        if baseline is None:
            baseline = stats.throughput
        report.add(
            f"{policy}: closest-d-group accesses",
            None,
            stats.dgroups.distribution()["closest"],
        )
        report.add(
            f"{policy}: relative performance",
            None,
            stats.throughput / baseline,
            unit="x",
        )
    report.notes.append(
        "paper shape: fastest is more effective than next-fastest in "
        "CMPs (Section 3.3.1)."
    )
    return AblationResult(report=report, raw=raw)


def run_tag_capacity(config: "Optional[ExperimentConfig]" = None) -> AblationResult:
    """1x / 2x / 4x tag capacity on a sharing-heavy workload."""
    config = config or ExperimentConfig()
    raw: "Dict[str, object]" = {}
    report = ExperimentReport("Ablation: private tag capacity (oltp)")
    baseline = None
    for factor in (1, 2, 4):
        design = NurapidCache(NurapidParams(tag_capacity_factor=factor))
        _, stats = run_multithreaded(design, "oltp", config)
        raw[f"{factor}x"] = stats
        if baseline is None:
            baseline = stats.throughput
        report.add(f"{factor}x tags: miss rate", None, stats.accesses.miss_rate)
        report.add(
            f"{factor}x tags: relative performance",
            None,
            stats.throughput / baseline,
            unit="x",
        )
    report.notes.append(
        "paper shape: doubling tag capacity performs almost as well as "
        "quadrupling (Section 2.2.2), at a 6% vs 23% area overhead."
    )
    return AblationResult(report=report, raw=raw)


def run_replication_use(
    config: "Optional[ExperimentConfig]" = None,
) -> AblationResult:
    """Replicate shared data on first vs second vs third use."""
    config = config or ExperimentConfig()
    raw: "Dict[str, object]" = {}
    report = ExperimentReport("Ablation: CR replication threshold (oltp)")
    baseline = None
    for uses in (1, 2, 3):
        design = NurapidCache(NurapidParams(replicate_on_use=uses))
        _, stats = run_multithreaded(design, "oltp", config)
        raw[f"use{uses}"] = stats
        if baseline is None:
            baseline = stats.throughput
        from repro.common.types import MissClass

        report.add(
            f"replicate on use {uses}: capacity misses",
            None,
            stats.accesses.fraction(MissClass.CAPACITY),
        )
        report.add(
            f"replicate on use {uses}: relative performance",
            None,
            stats.throughput / baseline,
            unit="x",
        )
    report.notes.append(
        "paper shape: first-use replication wastes capacity on blocks "
        "never reused (42% of ROS blocks); second use is the sweet spot "
        "(Section 3.1)."
    )
    return AblationResult(report=report, raw=raw)


def _naive_preferences(num_cores: int) -> "tuple[tuple[int, ...], ...]":
    """Distance-ordered ranking with identical tie-breaks (no staggering).

    Every core ranks its own d-group first and then the remaining
    d-groups in plain index order, so cores at equal distance contend
    for the same demotion targets — the behaviour Figure 1's staggered
    table avoids.
    """
    return tuple(
        (core,) + tuple(g for g in range(num_cores) if g != core)
        for core in range(num_cores)
    )


def run_ranking(config: "Optional[ExperimentConfig]" = None) -> AblationResult:
    """Staggered vs naive d-group preference rankings (MIX3)."""
    config = config or ExperimentConfig()
    raw: "Dict[str, object]" = {}
    report = ExperimentReport("Ablation: d-group preference staggering (MIX3)")
    staggered = NurapidCache()
    _, stats_staggered = run_mix(staggered, "MIX3", config)
    naive = NurapidCache(preferences=_naive_preferences(4))
    _, stats_naive = run_mix(naive, "MIX3", config)
    raw["staggered"] = stats_staggered
    raw["naive"] = stats_naive
    report.add("staggered: miss rate", None, stats_staggered.accesses.miss_rate)
    report.add("naive: miss rate", None, stats_naive.accesses.miss_rate)
    report.add(
        "naive relative performance",
        None,
        stats_naive.throughput / stats_staggered.throughput
        if stats_staggered.throughput
        else 0.0,
        unit="x",
    )
    report.notes.append(
        "paper shape: staggering avoids unnecessary contention between "
        "cores for the same demotion d-groups (Section 2.2.1)."
    )
    return AblationResult(report=report, raw=raw)


def run_update_protocol(
    config: "Optional[ExperimentConfig]" = None,
) -> AblationResult:
    """ISC vs an update-based private-cache protocol (oltp)."""
    config = config or ExperimentConfig()
    raw: "Dict[str, object]" = {}
    report = ExperimentReport("Ablation: ISC vs update protocol (oltp)")

    nurapid = NurapidCache()
    _, stats_nurapid = run_multithreaded(nurapid, "oltp", config)
    update = UpdateProtocolCaches()
    _, stats_update = run_multithreaded(update, "oltp", config)
    raw["cmp-nurapid"] = stats_nurapid
    raw["private-update"] = stats_update

    instr = max(stats_nurapid.total_instructions, 1)
    instr_update = max(stats_update.total_instructions, 1)
    report.add(
        "cmp-nurapid bus transactions / 1k instructions",
        None,
        1000.0 * stats_nurapid.bus.total / instr,
        unit="x",
    )
    report.add(
        "update protocol bus transactions / 1k instructions",
        None,
        1000.0 * stats_update.bus.total / instr_update,
        unit="x",
    )
    report.add("cmp-nurapid miss rate", None, stats_nurapid.accesses.miss_rate)
    report.add("update protocol miss rate", None, stats_update.accesses.miss_rate)
    report.notes.append(
        "paper shape: update protocols avoid coherence misses but pay "
        "bus traffic on every shared write and keep redundant copies "
        "(Section 3.2); ISC achieves the miss reduction without the "
        "per-write bus data transfers."
    )
    return AblationResult(report=report, raw=raw)


def run_c_migration(config: "Optional[ExperimentConfig]" = None) -> AblationResult:
    """No-exits-from-C vs the C-migration extension (oltp).

    The paper adopts the simple policy of never leaving C, noting that
    a block could get stuck far from an active reader and deferring a
    fix to future work.  This ablation measures that future-work idea:
    migrate the single C copy to a reader after a run of remote reads.
    """
    config = config or ExperimentConfig()
    raw: "Dict[str, object]" = {}
    report = ExperimentReport("Ablation: C-block migration extension (oltp)")
    baseline = None
    for label, threshold in (("no-exits (paper)", 0), ("migrate-after-4", 4)):
        design = NurapidCache(NurapidParams(c_migration_threshold=threshold))
        _, stats = run_multithreaded(design, "oltp", config)
        raw[label] = stats
        if baseline is None:
            baseline = stats.throughput
        report.add(
            f"{label}: closest-d-group accesses",
            None,
            stats.dgroups.distribution()["closest"],
        )
        report.add(
            f"{label}: relative performance",
            None,
            stats.throughput / baseline,
            unit="x",
        )
    report.notes.append(
        "extension beyond the paper: migration trades block-movement "
        "traffic for closer C-block reads when communication locality "
        "shifts between cores."
    )
    return AblationResult(report=report, raw=raw)


ALL_ABLATIONS = {
    "promotion": run_promotion,
    "tag-capacity": run_tag_capacity,
    "replication-use": run_replication_use,
    "ranking": run_ranking,
    "update-protocol": run_update_protocol,
    "c-migration": run_c_migration,
}

