"""Plan runner: execute a bench plan into a ``repro-bench-v2`` record.

One :func:`run_plan` call times every cell of a
:class:`~repro.perflab.plan.BenchPlan` and produces one
``repro-bench-v2`` record, the unit the trend engine
(:mod:`repro.perflab.history` / :mod:`repro.perflab.report`)
accumulates over time.  Each cell is simulated only in its
``repeats`` timed runs, uninstrumented and in process: the first
run's :class:`SimulationStats` give the cell's miss rate and
fingerprint digest, and every later run must reproduce that digest
(:class:`RepeatDivergenceError` otherwise).

Shared hosts drift in speed by up to 2x over seconds to minutes, so
raw wall clock cannot tell a slower simulator from a slower VM.  While
a run is timed, a :class:`SpeedSampler` times a fixed loop
(:func:`reference_work`) every :data:`SAMPLE_EVERY` seconds; the run's
raw seconds exclude those samples and are scaled to the host speed
:data:`REFERENCE_S` was set at.  A cell's throughput is the median
over its repeats of accesses per reference-speed second; the best of
noisy ratios reads high, so best-of spreads wider (DESIGN.md §12 has
the measurements).

The record also carries an **environment fingerprint** (CPU count,
Python/numpy versions, platform, git SHA and whether tracked files
differed from it) and its ``timing`` protocol;
the trend engine compares a run only with runs of the same
environment key and protocol, so a laptop run never gates a CI run.
With ``[sweep] enabled``, :func:`measure_sweep` adds a serial-vs-pool
wall-clock leg that also proves the pool bit-identical to serial.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import time
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from repro.experiments import parallel
from repro.experiments.runner import (
    ExperimentConfig,
    StatsCache,
    build_design,
    run_mix,
    run_multithreaded,
)
from repro.perflab.plan import BenchPlan, PlanCell

#: Schema tag for plan-driven bench records.
SCHEMA_V2 = "repro-bench-v2"

#: Exit code for a failed bench gate: a throughput or miss-rate
#: regression, a repeat whose stats differ from the cell's first run,
#: or a pooled sweep whose results diverged from serial.
REGRESSION_EXIT = 5

#: The record's ``timing`` field: throughputs at reference speed, the
#: median over repeats.  Records without the field timed raw best-of
#: wall clock and are never compared with these.
TIMING = "reference-speed"

#: Iterations of :func:`reference_work`, and its duration on the host
#: the constant was set on (2-vCPU Linux VM, Python 3.11, fast phase).
#: ``bench/tracer.py`` samples with the same loop and constant.
REFERENCE_ITERATIONS = 10_000
REFERENCE_S = 1.5e-3

#: Seconds between reference samples while a run is timed.
SAMPLE_EVERY = 0.025


def environment_fingerprint() -> dict:
    """Where this run happened, for trend alignment."""
    return {
        "cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "platform": f"{platform.system()}-{platform.machine()}",
        "git_sha": _git_sha(),
        "git_dirty": _git_dirty(),
    }


def _numpy_version() -> "Optional[str]":
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy is a hard dep today
        return None
    return numpy.__version__


def _git(*args: str) -> "Optional[str]":
    """``git``'s output in the current directory; None outside a
    checkout or without git."""
    try:
        out = subprocess.run(
            ["git", *args], capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


def _git_sha() -> "Optional[str]":
    return (_git("rev-parse", "HEAD") or "").strip() or None


def _git_dirty() -> "Optional[bool]":
    """Whether tracked files differ from ``git_sha``: a record made from
    such a tree measures a change on top of that commit."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    return None if status is None else bool(status.strip())


def stats_digest(stats) -> str:
    """A short stable digest of a run's exact-counter fingerprint."""
    payload = json.dumps(stats.fingerprint(), sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def reference_work() -> None:
    """A fixed pure-Python loop whose duration samples the host's speed."""
    table = dict.fromkeys(range(64), 0)
    for i in range(REFERENCE_ITERATIONS):
        table[i & 63] = table[i & 63] + (i >> 3)


class SpeedSampler:
    """Samples the host's speed with :func:`reference_work` while entered.

    Entering takes one sample and arms a one-shot ``ITIMER_REAL`` timer;
    each sample re-arms it, so a slow sample never queues another.
    Exiting disarms the timer and restores the previous ``SIGALRM``
    handler, so no timer outlives the timed run and a worker forked
    after it inherits none.  Main thread only, as ``signal`` requires.
    """

    def __init__(self) -> None:
        #: Durations of the samples taken, in seconds.
        self.samples: "List[float]" = []
        self._armed = False
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - start)
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc_info) -> None:
        # A sample already pending sees _armed off and re-arms nothing.
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def at_reference_speed(raw_seconds: float,
                       samples: "Sequence[float]") -> float:
    """``raw_seconds`` scaled to the host speed :data:`REFERENCE_S` was set at.

    The run's speed is the mean of the fastest three quarters of its
    ``samples``: a sample that an interrupt or a preemption lands in
    reads slow, not the host.
    """
    fastest = sorted(samples)[: max(1, len(samples) * 3 // 4)]
    return raw_seconds * REFERENCE_S / statistics.mean(fastest)


def cell_timing(accesses: int,
                repeats: "Sequence[Tuple[float, Sequence[float]]]") -> dict:
    """A cell's timing fields from each repeat's (raw seconds, samples).

    ``throughput_accesses_per_sec`` is the median over repeats of
    ``accesses`` per reference-speed second; each repeat's raw and
    reference-speed seconds are kept beside it.
    """
    reference = [at_reference_speed(raw, samples) for raw, samples in repeats]
    return {
        "throughput_accesses_per_sec": round(
            statistics.median(accesses / seconds for seconds in reference), 1
        ),
        "repeat_seconds": [round(raw, 4) for raw, _ in repeats],
        "reference_seconds": [round(seconds, 4) for seconds in reference],
    }


class RepeatDivergenceError(RuntimeError):
    """A timed repeat's stats digest differed from the cell's first run's."""


def _time_cell(cell: PlanCell, config, repeats: int) -> dict:
    """Simulate ``cell`` ``repeats`` times, timed; returns its record fields.

    The whole path is timed — workload generation, L1s, the design —
    with construction outside the clock.  Tag entries and data frames
    are created on first fill, so their allocation is inside it.  The
    throughput counts every access the timed run simulates, warm-up
    included.
    """
    run = run_mix if cell.multiprogrammed else run_multithreaded
    timings: "List[Tuple[float, List[float]]]" = []
    first = None
    for repeat in range(1, repeats + 1):
        design = build_design(cell.design, bus_model=cell.bus_model)
        start = time.perf_counter()
        with SpeedSampler() as sampler:
            system, stats = run(design, cell.workload, config)
        elapsed = time.perf_counter() - start - sum(sampler.samples)
        timings.append((elapsed, sampler.samples))
        digest = stats_digest(stats)
        if first is None:
            first, first_digest = stats, digest
        elif digest != first_digest:
            raise RepeatDivergenceError(
                f"{cell.label}: repeat {repeat} simulated stats digest "
                f"{digest}, repeat 1 simulated {first_digest}"
            )
    accesses = (config.warmup_per_core + config.measure_per_core) * len(
        system.cores
    )
    return {
        **cell_timing(accesses, timings),
        "miss_rate": round(first.accesses.miss_rate, 6),
        "fingerprint": first_digest,
    }


def run_plan(
    plan: BenchPlan,
    quick: bool = False,
    jobs: "Optional[int]" = None,
    cell_timeout: "Optional[float]" = None,
    max_retries: "Optional[int]" = None,
) -> dict:
    """Execute ``plan`` and return the ``repro-bench-v2`` record.

    ``quick`` shrinks run lengths to CI smoke sizing, the sweep leg's
    too.  ``jobs`` sizes the sweep leg's pool (default ``REPRO_JOBS``,
    floored at 2), whose workers ``cell_timeout``/``max_retries``
    supervise.  Cells are timed one at a time, in plan order.
    """
    if quick:
        plan = replace(
            plan,
            accesses_per_core=min(plan.accesses_per_core, 20_000),
            repeats=min(plan.repeats, 2),
        )
    config = plan.config()
    records = {
        cell.label: {
            "workload": cell.workload,
            "design": cell.design,
            "bus_model": cell.bus_model,
            "multiprogrammed": cell.multiprogrammed,
            **_time_cell(cell, config, plan.repeats),
        }
        for cell in plan.cells()
    }
    result = {
        "schema": SCHEMA_V2,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "plan": plan.to_dict(),
        "environment": environment_fingerprint(),
        "timing": TIMING,
        "accesses_per_core": config.measure_per_core,
        "repeats": plan.repeats,
        "cells": records,
    }
    if plan.sweep:
        result["sweep"] = measure_sweep(
            jobs=max(parallel.resolve_jobs(jobs), 2),
            quick=quick,
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
    report.raise_quarantined()

    mismatches = [
        cell.label for cell in cells
        if serial_cache.peek(cell.key(config)).fingerprint()
        != pool_cache.peek(cell.key(config)).fingerprint()
    ]
    return {
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
        f"accesses/core, median of {record.get('repeats', '?')} "
        f"at reference speed)"
    ]
    for label, cell in record.get("cells", {}).items():
        lines.append(
            f"  {label:<34} "
            f"{cell['throughput_accesses_per_sec']:>12,.0f} accesses/s  "
            f"miss {100.0 * cell['miss_rate']:.2f}%"
        )
    sweep = record.get("sweep")
    if sweep:
        note = "bit-identical" if sweep.get("identical") else "MISMATCH"
        lines.append(
            f"sweep: {sweep['cells']} cells, serial {sweep['serial_seconds']}s "
            f"-> {sweep['jobs']} jobs {sweep['parallel_seconds']}s "
            f"({sweep['speedup']}x, {note})"
        )
    env = record.get("environment", {})
    if env:
        lines.append(
            f"environment: {env.get('cpus', '?')} cpu(s), "
            f"python {env.get('python', '?')}, numpy {env.get('numpy', '?')}, "
            f"git {str(env.get('git_sha'))[:12]}"
            + (" (modified)" if env.get("git_dirty") else "")
        )
    return "\n".join(lines)


__all__ = [
    "REFERENCE_S",
    "REGRESSION_EXIT",
    "SCHEMA_V2",
    "SAMPLE_EVERY",
    "TIMING",
    "RepeatDivergenceError",
    "SpeedSampler",
    "at_reference_speed",
    "cell_timing",
    "default_output_path",
    "environment_fingerprint",
    "measure_sweep",
    "reference_work",
    "render_record",
    "run_plan",
    "stats_digest",
    "write_record",
]
