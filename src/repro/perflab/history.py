"""BENCH history: load accumulated ``BENCH_*.json`` files as trends.

The perf lab's long-term memory is the pile of ``BENCH_<date>.json``
records a repo accumulates — one ``repro-bench-v2`` record per
``repro bench`` invocation.  This module turns that pile into aligned
per-cell time series:

* **Run ordering** — runs sort by their recorded creation time, falling
  back to the date in the filename (``BENCH_20260806-2.json`` sorts
  after ``BENCH_20260806.json``), so a day with several runs keeps its
  intra-day order.
* **Environment alignment** — every run carries an environment
  fingerprint; :func:`env_key` reduces it to the fields that change
  what a wall-clock number *means* (CPU count, Python minor version).
  The trend engine compares a run only against prior runs with the same
  key, so a laptop run never gates a CI run.
"""

from __future__ import annotations

import glob
import json
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.perflab.runner import SCHEMA_V2

_FILENAME_DATE = re.compile(r"BENCH_(\d{8})(?:-(\d+))?\.json$")


class HistoryError(ValueError):
    """A BENCH history file could not be read or recognized."""


@dataclass
class BenchRun:
    """One BENCH record in the history."""

    run_id: str  # file basename without .json
    created: str  # ISO timestamp, or a filename-derived surrogate
    environment: dict
    cells: "Dict[str, dict]"  # label -> cell record
    sweep: "Optional[dict]" = None
    path: "Optional[str]" = None
    #: Measured accesses per core; runs of different lengths are not
    #: throughput-comparable (cold-start fractions differ).
    accesses: "Optional[int]" = None

    @property
    def env_key(self) -> str:
        return env_key(self.environment)


def env_key(environment: dict) -> str:
    """The alignment key: runs compare only within the same key.

    A non-scalar engine is part of the key: a batch-kernel run's
    throughput means something different from a scalar run's, so the
    two must never share a rolling baseline even on the same host and
    the same day.  Scalar (and pre-engine records, which carry no
    ``engine`` field) keep the historical key unchanged.
    """
    cpus = environment.get("cpus", "?")
    python = str(environment.get("python", "?"))
    minor = ".".join(python.split(".")[:2])
    key = f"cpus={cpus}/py={minor}"
    engine = environment.get("engine")
    if engine and engine != "scalar":
        key += f"/engine={engine}"
    return key


def _surrogate_created(run_id: str) -> str:
    """An orderable creation surrogate from a BENCH filename."""
    match = _FILENAME_DATE.search(f"{run_id}.json")
    if not match:
        return run_id
    date, suffix = match.group(1), match.group(2) or "1"
    return f"{date[:4]}-{date[4:6]}-{date[6:8]}T00:00:00Z+{int(suffix):04d}"


def upgrade_record(record: dict, run_id: str,
                   path: "Optional[str]" = None) -> BenchRun:
    """Validate one parsed v2 BENCH record into a :class:`BenchRun`."""
    if not isinstance(record, dict):
        raise HistoryError(f"{run_id}: BENCH record must be a JSON object")
    schema = record.get("schema")
    if schema != SCHEMA_V2:
        raise HistoryError(
            f"{run_id}: unknown BENCH schema {schema!r} (expected {SCHEMA_V2})"
        )
    cells = record.get("cells")
    if not isinstance(cells, dict):
        raise HistoryError(f"{run_id}: v2 record has no 'cells' table")
    return BenchRun(
        run_id=run_id,
        created=record.get("created") or _surrogate_created(run_id),
        environment=record.get("environment", {}),
        cells=cells,
        sweep=record.get("sweep"),
        path=path,
        accesses=record.get("accesses_per_core"),
    )


def load_history(paths: "Sequence[str]") -> "List[BenchRun]":
    """Load BENCH files into runs, oldest first."""
    runs: "List[BenchRun]" = []
    for path in paths:
        run_id = os.path.basename(path)
        if run_id.endswith(".json"):
            run_id = run_id[: -len(".json")]
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except OSError as error:
            raise HistoryError(f"cannot read {path}: {error}") from None
        except ValueError as error:
            raise HistoryError(f"{path} is not valid JSON: {error}") from None
        runs.append(upgrade_record(record, run_id, path=path))
    runs.sort(key=lambda run: (run.created, run.run_id))
    return runs


def discover_history(patterns: "Sequence[str]") -> "List[str]":
    """Expand history globs/paths into a sorted, de-duplicated file list."""
    paths: "List[str]" = []
    seen = set()
    for pattern in patterns:
        matches = sorted(glob.glob(pattern)) if any(
            char in pattern for char in "*?["
        ) else [pattern]
        for path in matches:
            real = os.path.abspath(path)
            if real not in seen:
                seen.add(real)
                paths.append(path)
    return paths


@dataclass
class TrendPoint:
    """One run's measurement of one cell."""

    run_id: str
    created: str
    env: str
    throughput: "Optional[float]"
    miss_rate: "Optional[float]" = None
    latency_p95: "Optional[float]" = None
    fingerprint: "Optional[str]" = None
    accesses: "Optional[int]" = None


@dataclass
class CellTrend:
    """One cell's measurements across the history, oldest first."""

    label: str
    points: "List[TrendPoint]" = field(default_factory=list)


def build_trends(runs: "Sequence[BenchRun]") -> "Dict[str, CellTrend]":
    """Per-cell trend series over ``runs`` (which must be oldest-first)."""
    trends: "Dict[str, CellTrend]" = {}
    for run in runs:
        for label, cell in sorted(run.cells.items()):
            trend = trends.setdefault(label, CellTrend(label))
            latency = cell.get("latency") or {}
            trend.points.append(
                TrendPoint(
                    run_id=run.run_id,
                    created=run.created,
                    env=run.env_key,
                    throughput=cell.get("throughput_accesses_per_sec"),
                    miss_rate=cell.get("miss_rate"),
                    latency_p95=latency.get("p95"),
                    fingerprint=cell.get("fingerprint"),
                    accesses=run.accesses,
                )
            )
    return trends


__all__ = [
    "BenchRun",
    "CellTrend",
    "HistoryError",
    "TrendPoint",
    "build_trends",
    "discover_history",
    "env_key",
    "load_history",
    "upgrade_record",
]
