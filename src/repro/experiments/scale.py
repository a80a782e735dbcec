"""Scaling study: CR/ISC/CS on 8/16/64-core mesh machines.

The paper evaluates CMP-NuRAPID on a 4-core snooping bus and argues
(Section 6) that the design extends to more cores.  This experiment
runs that extrapolation: the CMP-NuRAPID ablation ladder (CS base,
+CR, +ISC, both) and the private baseline on 8-, 16-, and optionally
64-core machines, with the 2D-mesh NoC and directory coherence as the
interconnect (``--bus-model mesh`` — a snooping bus does not scale).

Every cell runs through the robustness harness end-to-end, serially
or in a ``--jobs`` worker: incremental invariant checking (including
the directory-vs-L1 sharer-set consistency check) guards the run, and
with a persistent cache the cell periodically checkpoints and
**resumes** from its snapshot if the sweep is interrupted.  The grid
is a list of scaled :class:`~repro.experiments.parallel.Cell` work
items that :func:`~repro.experiments.parallel.run_cells` fills; each
one runs :func:`run_scaled_cell`, and its result lands in the shared
:class:`~repro.experiments.runner.StatsCache` under a core-count
qualified key (``"oltp@c16"``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.common.stats import SimulationStats
from repro.cpu.system import CmpSystem
from repro.experiments.report import ExperimentReport, format_table, ratio
from repro.experiments.runner import (
    ExperimentConfig,
    StatsCache,
    build_design,
    read_sweep,
    run_meta,
    run_stream,
)
# The harness's submodules, not its package: the package imports the
# chaos suite, which imports the sweep executor, which imports this.
from repro.harness.checkpoint import CheckpointError, load_checkpoint
from repro.harness.runner import HarnessConfig, run_events
from repro.workloads.multithreaded import make_workload

#: One commercial and one scientific workload: the pair where the
#: paper's CR/ISC gaps are widest and narrowest, respectively.
WORKLOADS = ("oltp", "ocean")

#: The ablation ladder plus the scalable baseline, in report order.
DESIGNS = (
    "private",
    "cmp-nurapid-cs",
    "cmp-nurapid-cr",
    "cmp-nurapid-isc",
    "cmp-nurapid",
)

#: Baseline column every other design is normalized against.
BASELINE = "private"

#: Core counts with a square-ish mesh (2x2 / 2x4 / 4x4 / 8x8).
SUPPORTED_CORES = (4, 8, 16, 64)

#: Default grid: the 8/16-core comparison table (64 is opt-in — an
#: 8x8 mesh cell is ~16x the work of a 4-core one).
DEFAULT_CORES = (8, 16)

#: Incremental invariant check cadence for harnessed scale cells.
DEFAULT_CHECK_EVERY = 5_000

#: Events between periodic snapshots (persistent caches only).
DEFAULT_CHECKPOINT_EVERY = 50_000


@dataclass
class ScaleResult:
    report: ExperimentReport
    #: ``stats[num_cores][workload][design]`` -> SimulationStats.
    stats: "Dict[int, Dict[str, Dict[str, SimulationStats]]]"
    #: ``relative[num_cores][workload][design]`` -> throughput vs private.
    relative: "Dict[int, Dict[str, Dict[str, float]]]" = field(
        default_factory=dict
    )


def snapshot_path(
    cache_path: "Optional[str]",
    workload: str,
    design: str,
    num_cores: int,
) -> "Optional[str]":
    """A scaled cell's snapshot file beside the stats journal at
    ``cache_path``, in ``<cache_path>.scale-ckpt/`` (created here), or
    None for an in-memory cache."""
    if cache_path is None:
        return None
    directory = f"{cache_path}.scale-ckpt"
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, f"{workload}-{design}-c{num_cores}.ckpt")


def run_scaled_cell(
    design_name: str,
    workload_name: str,
    num_cores: int,
    config: "Optional[ExperimentConfig]" = None,
    check_every: int = DEFAULT_CHECK_EVERY,
    checkpoint_path: "Optional[str]" = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
) -> SimulationStats:
    """One harnessed N-core mesh run: warm up, check, snapshot, resume.

    With a ``checkpoint_path``, an existing snapshot whose metadata
    (:func:`~repro.experiments.runner.run_meta`) matches this cell
    (design, workload, core count, seed, run lengths) is resumed
    bit-identically — the deterministic event stream is rebuilt from
    that metadata, as ``repro run --resume`` rebuilds it, and
    fast-forwarded past the consumed prefix.  A snapshot for a
    *different* cell configuration (or an unreadable one) is ignored
    and the run starts fresh.
    """
    config = config or ExperimentConfig()
    meta = run_meta(
        design_name,
        workload_name,
        num_cores=num_cores,
        seed=config.seed,
        warmup=config.warmup_per_core,
        accesses=config.measure_per_core,
        bus_model="mesh",
    )
    # This module's make_workload builds the stream: the benchmark's
    # tracer (bench/tracer.py) times scaled cells by patching it.
    chunks, warmup_events = run_stream(meta, make_workload)
    system = None
    start_index = 0
    stats_reset = False
    if checkpoint_path and os.path.exists(checkpoint_path):
        try:
            checkpoint = load_checkpoint(checkpoint_path)
        except CheckpointError:
            checkpoint = None  # unreadable snapshot: start over
        if checkpoint is not None and all(
            checkpoint.meta.get(key) == value for key, value in meta.items()
        ):
            system = checkpoint.system
            start_index = checkpoint.event_index
            stats_reset = bool(checkpoint.meta.get("stats_reset"))
    if system is None:
        design = build_design(design_name, bus_model="mesh",
                              num_cores=num_cores)
        system = CmpSystem(design)
    harness_config = HarnessConfig(
        check_every=check_every,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        seed=config.seed,
    )
    runner = run_events(
        system, chunks, warmup_events, harness_config,
        start_index=start_index, meta=meta, stats_reset=stats_reset,
    )
    # Final snapshot: a finished cell's checkpoint resumes to a no-op.
    runner.checkpoint()
    return runner.system.stats()


def grid(cores: "Sequence[int]" = DEFAULT_CORES) -> list:
    """The study's scaled cells over ``cores``, in report order.
    ValueError if a count is not in :data:`SUPPORTED_CORES`."""
    from repro.experiments.parallel import Cell

    for count in cores:
        if count not in SUPPORTED_CORES:
            raise ValueError(
                f"unsupported core count {count}; the mesh scales to "
                f"{', '.join(str(n) for n in SUPPORTED_CORES)}"
            )
    return [
        Cell(workload, design, False, count)
        for count in cores
        for workload in WORKLOADS
        for design in DESIGNS
    ]


def run(
    config: ExperimentConfig,
    cache: StatsCache,
    cores: "Sequence[int]" = DEFAULT_CORES,
) -> ScaleResult:
    """The CR/ISC/CS scaling table over ``cores``-tile mesh machines,
    read from ``cache`` once :func:`grid` ``(cores)`` is filled.

    Each cell ran under the harness with incremental invariant
    checking; with a persistent ``cache``, cells checkpoint to
    ``<cache>.scale-ckpt/`` and an interrupted fill resumes from both
    the stats journal and the per-cell snapshots.
    """
    stats: "Dict[int, Dict[str, Dict[str, SimulationStats]]]" = {
        count: read_sweep(
            WORKLOADS, DESIGNS, config, cache, num_cores=count
        ).stats
        for count in cores
    }

    relative: "Dict[int, Dict[str, Dict[str, float]]]" = {}
    for count, by_workload in stats.items():
        relative[count] = {}
        for workload, by_design in by_workload.items():
            base = by_design[BASELINE].throughput
            relative[count][workload] = {
                design: (cell_stats.throughput / base if base else 0.0)
                for design, cell_stats in by_design.items()
            }

    report = ExperimentReport(
        "Scaling: CMP-NuRAPID CR/ISC/CS on N-core mesh machines "
        "(throughput vs private, workload average)"
    )
    for count in cores:
        for design in DESIGNS:
            if design == BASELINE:
                continue
            average = sum(
                relative[count][workload][design] for workload in WORKLOADS
            ) / len(WORKLOADS)
            report.add(f"{design} @ {count} cores", None, average, unit="x")
    report.notes.append(
        "the paper publishes 4-core bus numbers only; N-core cells run "
        "on the 2D-mesh NoC with directory coherence (XY routing, "
        "per-tile L2 d-groups), so there is no paper column."
    )
    report.notes.append(
        "every cell ran under the harness: incremental invariants "
        f"(every {DEFAULT_CHECK_EVERY} events, including directory-vs-L1 "
        "sharer-set consistency)"
        + (
            ", periodic checkpoints with resume-on-rerun."
            if cache.path is not None
            else "; pass --cache for periodic checkpoints with resume."
        )
    )
    return ScaleResult(report=report, stats=stats, relative=relative)


def render_full(result: ScaleResult) -> str:
    """The full per-(cores, workload) relative-throughput table."""
    rows = []
    for count in sorted(result.relative):
        for workload in WORKLOADS:
            by_design = result.relative[count][workload]
            rows.append(
                [f"{workload} @ {count} cores"]
                + [ratio(by_design[design]) for design in DESIGNS]
            )
    return format_table(["cell"] + list(DESIGNS), rows)
