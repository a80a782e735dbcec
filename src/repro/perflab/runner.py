"""Plan runner: execute a bench plan into a v2 capture bundle.

One :func:`run_plan` call executes every cell of a
:class:`~repro.perflab.plan.BenchPlan` and produces one
``repro-bench-v2`` record — the unit the trend engine
(:mod:`repro.perflab.history` / :mod:`repro.perflab.report`)
accumulates over time.  Each run has three passes per bus-model group:

1. **Stats pass** — the grid's cells go through the existing
   supervised parallel executor (:func:`repro.experiments.parallel.
   run_cells`): per-cell :class:`SimulationStats` with heartbeats,
   retries, and quarantine exactly as experiment sweeps get them.
   Deterministic metrics (miss rate, the stats fingerprint digest)
   come from here, so they are bit-identical across hosts and pool
   sizes.
2. **Timing pass** — best-of-``repeats`` wall-clock per cell,
   uninstrumented and in-process.
3. **Capture pass** (opt-in per plan) — one instrumented re-run per
   cell with the profiler, interval metrics, and/or the event tracer
   attached, written into a ``<out>.capture/<cell>/`` bundle directory
   (``profile.json``, ``metrics.json``, ``trace.jsonl`` +
   ``trace.perfetto.json``).  Instrumentation never touches the timed
   runs, so capture cannot skew the trend.

The record also carries an **environment fingerprint** (CPU count,
Python/numpy versions, platform, git SHA) — the trend engine aligns
runs by cell *and* environment so a laptop run never gates a CI run.
With ``[sweep]`` enabled, :func:`measure_sweep` adds a serial-vs-pool
wall-clock leg that also proves the pool bit-identical to serial.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from typing import Dict, List, Optional

from repro.cpu.system import CmpSystem
from repro.experiments import parallel
from repro.experiments.runner import (
    ExperimentConfig,
    StatsCache,
    build_design,
    run_mix,
    run_multithreaded,
)
from repro.obs.metrics import MetricsCollector
from repro.obs.perfetto import export_jsonl
from repro.obs.profiler import Profiler
from repro.obs.tracer import Tracer
from repro.perflab.plan import BenchPlan, PlanCell
from repro.workloads.multiprogrammed import make_mix
from repro.workloads.multithreaded import make_workload

#: Schema tag for plan-driven bench records.
SCHEMA_V2 = "repro-bench-v2"

#: Exit code for a failed bench gate: a throughput or miss-rate
#: regression, or a pooled sweep whose results diverged from serial.
REGRESSION_EXIT = 5


def environment_fingerprint() -> dict:
    """Where this run happened, for trend alignment."""
    return {
        "cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "platform": f"{platform.system()}-{platform.machine()}",
        "git_sha": _git_sha(),
    }


def _numpy_version() -> "Optional[str]":
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy is a hard dep today
        return None
    return numpy.__version__


def _git_sha() -> "Optional[str]":
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def stats_digest(stats) -> str:
    """A short stable digest of a run's exact-counter fingerprint."""
    payload = json.dumps(stats.fingerprint(), sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _cell_chunks(cell: PlanCell, config):
    """(event chunks, warmup event count) for a cell."""
    maker = make_mix if cell.multiprogrammed else make_workload
    workload = maker(cell.workload, seed=config.seed)
    total = config.warmup_per_core + config.measure_per_core
    chunks = workload.chunks(accesses_per_core=total)
    return chunks, config.warmup_per_core * workload.num_cores


def _time_cell(cell: PlanCell, config, repeats: int) -> "tuple[float, List[float]]":
    """Best-of-``repeats`` throughput for one cell (accesses/second).

    The whole path is timed — workload generation, L1s, the design —
    with construction outside the clock.
    """
    run = run_mix if cell.multiprogrammed else run_multithreaded
    best = 0.0
    seconds: "List[float]" = []
    for _ in range(repeats):
        design = build_design(cell.design, bus_model=cell.bus_model)
        start = time.perf_counter()
        system, _ = run(design, cell.workload, config)
        elapsed = time.perf_counter() - start
        seconds.append(round(elapsed, 4))
        total = config.measure_per_core * len(system.cores)
        best = max(best, total / elapsed if elapsed else 0.0)
    return best, seconds


def _capture_cell(cell: PlanCell, plan: BenchPlan, capture_dir: str) -> dict:
    """One instrumented run of ``cell``; returns the bundle manifest."""
    config = plan.config()
    os.makedirs(capture_dir, exist_ok=True)
    manifest: "Dict[str, object]" = {}
    tracer = None
    collector = None
    profiler = None
    if plan.capture.trace:
        trace_path = os.path.join(capture_dir, "trace.jsonl")
        tracer = Tracer(sink=trace_path)
        manifest["trace"] = "trace.jsonl"
    if plan.capture.metrics:
        collector = MetricsCollector(sample_every=plan.capture.metrics_every)
    if plan.capture.profile:
        profiler = Profiler()

    design = build_design(cell.design, bus_model=cell.bus_model)
    system = CmpSystem(design, tracer=tracer, metrics=collector)
    if profiler is not None:
        profiler.instrument(system)
    system.run_chunks(*_cell_chunks(cell, config))

    if collector is not None:
        series = collector.finish()
        metrics_path = os.path.join(capture_dir, "metrics.json")
        series.to_json(metrics_path)
        manifest["metrics"] = "metrics.json"
        latency = collector.registry.histogram("l2.latency")
        manifest["latency"] = {
            "mean": round(latency.mean, 3),
            "p50": round(latency.percentile(0.50), 3),
            "p95": round(latency.percentile(0.95), 3),
            "p99": round(latency.percentile(0.99), 3),
        }
    if profiler is not None:
        profile_path = os.path.join(capture_dir, "profile.json")
        with open(profile_path, "w", encoding="utf-8") as handle:
            json.dump(profiler.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        manifest["profile"] = "profile.json"
    if tracer is not None:
        tracer.close()
        perfetto_path = os.path.join(capture_dir, "trace.perfetto.json")
        export_jsonl(os.path.join(capture_dir, "trace.jsonl"), perfetto_path)
        manifest["perfetto"] = "trace.perfetto.json"
    return manifest


def cell_slug(label: str) -> str:
    """A filesystem-safe name for one cell's capture directory."""
    return label.replace("/", "-")


def run_plan(
    plan: BenchPlan,
    quick: bool = False,
    out: "Optional[str]" = None,
    jobs: "Optional[int]" = None,
    cell_timeout: "Optional[float]" = None,
    max_retries: "Optional[int]" = None,
) -> dict:
    """Execute ``plan`` and return the ``repro-bench-v2`` record.

    ``quick`` shrinks run lengths to CI smoke sizing, the sweep leg's
    too; ``out`` names the record's output path so the capture bundle
    can sit next to it (the caller still writes the record itself);
    ``jobs`` overrides the plan's stats-pass worker count.  A cell
    that exhausts its supervised retries raises
    :class:`~repro.experiments.parallel.QuarantinedCellError`, exactly
    like an experiment sweep.
    """
    if quick:
        plan = _quicken(plan)
    config = plan.config()
    cells = plan.cells()
    resolved_jobs = parallel.resolve_jobs(
        jobs if jobs is not None else (plan.jobs or None)
    )

    # Stats pass: through the supervised executor, one bus-model group
    # at a time (the executor resolves one bus model per invocation;
    # separate caches keep the groups' records from colliding on the
    # bus-model-free cache key).
    stats_by_label: "Dict[str, object]" = {}
    for bus_model in plan.bus_models:
        group = [cell for cell in cells if cell.bus_model == bus_model]
        grid = [
            parallel.Cell(cell.workload, cell.design, cell.multiprogrammed)
            for cell in group
        ]
        cache = StatsCache()
        report = parallel.run_cells(
            grid, config, cache, jobs=resolved_jobs, bus_model=bus_model,
            cell_timeout=cell_timeout, max_retries=max_retries,
        )
        if report.quarantined:
            raise parallel.QuarantinedCellError(report.quarantined, None)
        for plan_cell, grid_cell in zip(group, grid):
            stats_by_label[plan_cell.label] = cache._cache[grid_cell.key(config)]

    # Timing pass: uninstrumented best-of-repeats, in plan order.
    capture_base = f"{os.path.splitext(out)[0]}.capture" if out else None
    records: "Dict[str, dict]" = {}
    for cell in cells:
        stats = stats_by_label[cell.label]
        best, seconds = _time_cell(cell, config, plan.repeats)
        record = {
            "workload": cell.workload,
            "design": cell.design,
            "bus_model": cell.bus_model,
            "multiprogrammed": cell.multiprogrammed,
            "throughput_accesses_per_sec": round(best, 1),
            "repeat_seconds": seconds,
            "miss_rate": round(stats.accesses.miss_rate, 6),
            "fingerprint": stats_digest(stats),
        }
        # Capture pass: one extra instrumented run, never the timed one.
        if plan.capture.any and capture_base is not None:
            capture_dir = os.path.join(capture_base, cell_slug(cell.label))
            manifest = _capture_cell(cell, plan, capture_dir)
            latency = manifest.pop("latency", None)
            if latency is not None:
                record["latency"] = latency
            record["capture"] = {
                "dir": os.path.relpath(capture_dir,
                                       os.path.dirname(out) or "."),
                **manifest,
            }
        records[cell.label] = record

    result = {
        "schema": SCHEMA_V2,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "plan": plan.to_dict(),
        "environment": environment_fingerprint(),
        "accesses_per_core": config.measure_per_core,
        "repeats": plan.repeats,
        "cells": records,
    }
    if plan.sweep.enabled:
        sweep_jobs = plan.sweep.jobs or None
        result["sweep"] = measure_sweep(
            jobs=max(parallel.resolve_jobs(sweep_jobs), 2),
            quick=quick or plan.sweep.quick,
            cell_timeout=cell_timeout,
            max_retries=max_retries,
        )
    return result


def measure_sweep(jobs: int, quick: bool = False,
                  cell_timeout: "Optional[float]" = None,
                  max_retries: "Optional[int]" = None) -> dict:
    """Wall-clock a small sweep serially, then with ``jobs`` workers.

    Uses fresh in-memory caches on both sides (nothing is reused
    between the two runs), and checks the two result sets are
    bit-identical while it is at it.  ``cell_timeout``/``max_retries``
    tune the parallel side's worker supervision.
    """
    cells = parallel.experiment_cells("fig6")  # 4 designs x 5 workloads
    if quick:
        cells = [cell for cell in cells if cell.workload in
                 ("oltp", "apache", "ocean")]
    config = ExperimentConfig(warmup_per_core=20_000, measure_per_core=20_000)

    serial_cache = StatsCache()
    start = time.perf_counter()
    parallel.run_cells(cells, config, serial_cache, jobs=1)
    serial_seconds = time.perf_counter() - start

    pool_cache = StatsCache()
    start = time.perf_counter()
    report = parallel.run_cells(cells, config, pool_cache, jobs=jobs,
                                cell_timeout=cell_timeout,
                                max_retries=max_retries)
    parallel_seconds = time.perf_counter() - start

    mismatches = [
        cell.label for cell in cells
        if serial_cache._cache[cell.key(config)].fingerprint()
        != pool_cache._cache[cell.key(config)].fingerprint()
    ]
    result = {
        "cells": len(cells),
        "jobs": jobs,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": round(serial_seconds / parallel_seconds, 2)
        if parallel_seconds else 0.0,
        "identical": not mismatches,
        "mismatches": mismatches,
        "retried": [cell.label for cell in report.retried],
    }
    result.update(sweep_gate_fields(os.cpu_count() or 1))
    return result


def sweep_gate_fields(cpus: int) -> dict:
    """Gate-eligibility fields for a sweep measurement on this host.

    A single-CPU host cannot beat serial wall-clock with a process pool
    (speedup <= 1.0 by construction, pure scheduling overhead), so its
    parallel-vs-serial comparison must never contribute to a regression
    verdict.  The skip is recorded in the result so trend reports can
    show *why* no speedup verdict exists for the run.
    """
    if cpus <= 1:
        return {
            "cpus": cpus,
            "speedup_gate_eligible": False,
            "speedup_gate_note": (
                "skipped: single-CPU host — a worker pool cannot beat "
                "serial wall-clock here, so the speedup is recorded but "
                "never gated on"
            ),
        }
    return {"cpus": cpus, "speedup_gate_eligible": True}


def _quicken(plan: BenchPlan) -> BenchPlan:
    """The plan resized for CI smoke runs."""
    from dataclasses import replace

    return replace(
        plan,
        accesses_per_core=min(plan.accesses_per_core, 20_000),
        repeats=min(plan.repeats, 2),
    )


def default_output_path(today: "Optional[str]" = None,
                        directory: str = ".") -> str:
    """``BENCH_<date>.json``, collision-safe within ``directory``.

    A second run on the same day gets ``BENCH_<date>-2.json``, a third
    ``-3``, and so on — same-day history accumulates instead of the
    later run silently overwriting the earlier one.
    """
    if today is None:
        today = time.strftime("%Y%m%d")
    path = os.path.join(directory, f"BENCH_{today}.json")
    suffix = 2
    while os.path.exists(path):
        path = os.path.join(directory, f"BENCH_{today}-{suffix}.json")
        suffix += 1
    return path


def write_record(record: dict, path: str) -> None:
    """Write one BENCH record as stable, diff-friendly JSON."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


def render_record(record: dict) -> str:
    """Human-readable summary of one v2 record (the CLI's stdout)."""
    plan = record.get("plan", {})
    run = plan.get("run", {})
    lines = [
        f"plan: {plan.get('name', '?')} "
        f"({record.get('accesses_per_core', run.get('accesses_per_core', '?'))} "
        f"accesses/core, best of {record.get('repeats', '?')})"
    ]
    for label, cell in record.get("cells", {}).items():
        line = (
            f"  {label:<34} "
            f"{cell['throughput_accesses_per_sec']:>12,.0f} accesses/s  "
            f"miss {100.0 * cell['miss_rate']:.2f}%"
        )
        latency = cell.get("latency")
        if latency:
            line += f"  p95 {latency['p95']:g}cy"
        lines.append(line)
    sweep = record.get("sweep")
    if sweep:
        note = "bit-identical" if sweep.get("identical") else "MISMATCH"
        lines.append(
            f"sweep: {sweep['cells']} cells, serial {sweep['serial_seconds']}s "
            f"-> {sweep['jobs']} jobs {sweep['parallel_seconds']}s "
            f"({sweep['speedup']}x, {note})"
        )
        if not sweep.get("speedup_gate_eligible", True):
            lines.append(f"  speedup gate {sweep.get('speedup_gate_note', 'skipped')}")
    env = record.get("environment", {})
    if env:
        lines.append(
            f"environment: {env.get('cpus', '?')} cpu(s), "
            f"python {env.get('python', '?')}, numpy {env.get('numpy', '?')}, "
            f"git {str(env.get('git_sha'))[:12]}"
        )
    return "\n".join(lines)


__all__ = [
    "REGRESSION_EXIT",
    "SCHEMA_V2",
    "cell_slug",
    "default_output_path",
    "environment_fingerprint",
    "measure_sweep",
    "render_record",
    "run_plan",
    "stats_digest",
    "sweep_gate_fields",
    "write_record",
]
