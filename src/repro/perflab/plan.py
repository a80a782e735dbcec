"""Declarative bench plans: the grid a perf-lab run measures.

A *plan* is a TOML or JSON file describing a benchmark campaign —
which (design, workload, bus-model) cells to time, how long each run
is, what to capture per cell, and how strictly each cell is gated
against its own history.  ``plans/default.toml`` is the plan
``repro bench`` runs when given no ``--plan``; CI's tiny smoke plan
lives next to it.

Schema (TOML shown; JSON mirrors it with the same keys)::

    [plan]
    name = "default"            # required; appears in BENCH records
    description = "..."

    [grid]                      # cells = designs x workloads x bus_models
    designs = ["uniform-shared", "private", "cmp-nurapid"]
    workloads = ["oltp"]        # Table 3 names and/or Table 2 mixes
    bus_models = ["atomic"]

    [run]
    accesses_per_core = 40000   # measured accesses per core per repeat
    warmup_per_core = 0         # warm-up accesses per core (not timed)
    repeats = 3                 # timing repeats; best-of wins
    jobs = 0                    # workers for the stats pass (0 = auto)

    [sweep]                     # optional serial-vs-pool wall-clock leg
    enabled = true
    quick = false
    jobs = 0                    # 0 = auto (REPRO_JOBS, floored at 2)

    [batch]                     # opt-in batch-kernel (--engine batch) leg
    enabled = true              # defaults to the table's presence
    designs = []                # empty/omitted fields inherit [grid]
    workloads = []
    bus_models = []
    repeats = 0                 # 0 = inherit run.repeats
    min_speedup = 1.2           # aggregate accesses/sec floor vs the
                                # scalar engine (0 = don't gate)

    [capture]                   # opt-in per-cell capture bundle
    profile = false             # profiler section timings (JSON)
    trace = false               # JSONL event trace + Perfetto export
    metrics = false             # interval metrics series (JSON)
    metrics_every = 10000

    [gate]
    threshold = 0.2             # max fractional throughput drop
    window = 5                  # rolling-baseline window (median)
    miss_rate_increase = 0.0    # allowed absolute miss-rate increase
    min_speedup = 0.0           # sweep speedup floor (0 = don't gate);
                                # never applied on single-CPU hosts

    [gate.cells]                # per-cell threshold overrides
    "oltp/cmp-nurapid/atomic" = 0.15

Everything except ``[plan] name`` has a default, so the minimal plan
is three lines.  Unknown tables, unknown keys, unknown design /
workload / bus-model names, and out-of-range numbers are all rejected
with a :class:`PlanError` naming the offending key — a plan typo must
fail the run, not silently measure the wrong grid.
"""

from __future__ import annotations

import json
import os
import tomllib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import BUS_MODELS, DESIGN_FACTORIES, ExperimentConfig
from repro.workloads.multiprogrammed import MIXES
from repro.workloads.multithreaded import MULTITHREADED

_WORKLOADS = tuple(spec.name for spec in MULTITHREADED)


class PlanError(ValueError):
    """A bench plan failed validation; the message names the key."""


@dataclass(frozen=True)
class PlanCell:
    """One grid cell a plan measures."""

    workload: str
    design: str
    bus_model: str = "atomic"

    @property
    def multiprogrammed(self) -> bool:
        return self.workload in MIXES

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.design}/{self.bus_model}"


@dataclass(frozen=True)
class GatePolicy:
    """Per-cell regression thresholds for the trend engine."""

    #: Default allowed fractional throughput drop vs the rolling baseline.
    threshold: float = 0.2
    #: Rolling-baseline window: median of up to this many prior runs.
    window: int = 5
    #: Allowed absolute miss-rate increase (deterministic metric; the
    #: default tolerates float noise only).
    miss_rate_increase: float = 0.0
    #: Sweep-speedup floor (0 disables); skipped on single-CPU hosts.
    min_speedup: float = 0.0
    #: Cell label -> threshold override.
    cells: "Dict[str, float]" = field(default_factory=dict)

    def threshold_for(self, label: str) -> float:
        return self.cells.get(label, self.threshold)


@dataclass(frozen=True)
class CapturePolicy:
    """What to bundle per cell, beyond the timing numbers."""

    profile: bool = False
    trace: bool = False
    metrics: bool = False
    metrics_every: int = 10_000

    @property
    def any(self) -> bool:
        return self.profile or self.trace or self.metrics


@dataclass(frozen=True)
class SweepPolicy:
    """The optional serial-vs-pool wall-clock measurement."""

    enabled: bool = True
    quick: bool = False
    jobs: int = 0  # 0 = auto


@dataclass(frozen=True)
class BatchPolicy:
    """The optional batch-kernel (``--engine batch``) measurement leg.

    Times the batch engine over its own cell grid against the scalar
    engine run cell-by-cell, checks the two are fingerprint-identical,
    and (optionally) gates on an aggregate-throughput speedup floor.
    Empty ``designs``/``workloads``/``bus_models`` inherit the plan's
    ``[grid]``; ``repeats = 0`` inherits ``run.repeats``.
    """

    enabled: bool = False
    designs: "Sequence[str]" = ()
    workloads: "Sequence[str]" = ()
    bus_models: "Sequence[str]" = ()
    repeats: int = 0
    #: Aggregate accesses/sec floor as a multiple of the scalar engine
    #: (0 disables).  Both sides run serially on one core, so unlike
    #: the sweep-speedup gate this one is meaningful on any host; the
    #: process pool multiplies *on top* of whatever ratio it measures.
    min_speedup: float = 0.0


@dataclass(frozen=True)
class BenchPlan:
    """A validated bench plan, ready to run."""

    name: str
    description: str = ""
    designs: "Sequence[str]" = ("uniform-shared", "private", "cmp-nurapid")
    workloads: "Sequence[str]" = ("oltp",)
    bus_models: "Sequence[str]" = ("atomic",)
    accesses_per_core: int = 40_000
    warmup_per_core: int = 0
    repeats: int = 3
    jobs: int = 0  # stats-pass workers; 0 = auto (REPRO_JOBS, else 1)
    sweep: SweepPolicy = SweepPolicy()
    capture: CapturePolicy = CapturePolicy()
    gate: GatePolicy = GatePolicy()
    batch: BatchPolicy = BatchPolicy()
    #: Where the plan was loaded from (None for in-memory plans).
    path: "Optional[str]" = None

    def cells(self) -> "List[PlanCell]":
        """The grid, expanded in plan order."""
        return [
            PlanCell(workload, design, bus_model)
            for bus_model in self.bus_models
            for workload in self.workloads
            for design in self.designs
        ]

    def batch_cells(self) -> "List[PlanCell]":
        """The batch leg's grid ([batch] fields, inheriting [grid])."""
        return [
            PlanCell(workload, design, bus_model)
            for bus_model in (self.batch.bus_models or self.bus_models)
            for workload in (self.batch.workloads or self.workloads)
            for design in (self.batch.designs or self.designs)
        ]

    @property
    def batch_repeats(self) -> int:
        return self.batch.repeats or self.repeats

    def config(self) -> ExperimentConfig:
        return ExperimentConfig(
            warmup_per_core=self.warmup_per_core,
            measure_per_core=self.accesses_per_core,
        )

    def to_dict(self) -> dict:
        """The plan as it is embedded in a BENCH record."""
        return {
            "name": self.name,
            "description": self.description,
            "path": self.path,
            "grid": {
                "designs": list(self.designs),
                "workloads": list(self.workloads),
                "bus_models": list(self.bus_models),
            },
            "run": {
                "accesses_per_core": self.accesses_per_core,
                "warmup_per_core": self.warmup_per_core,
                "repeats": self.repeats,
            },
            "gate": {
                "threshold": self.gate.threshold,
                "window": self.gate.window,
                "miss_rate_increase": self.gate.miss_rate_increase,
                "min_speedup": self.gate.min_speedup,
                "cells": dict(self.gate.cells),
            },
            "batch": {
                "enabled": self.batch.enabled,
                "designs": list(self.batch.designs or self.designs),
                "workloads": list(self.batch.workloads or self.workloads),
                "bus_models": list(self.batch.bus_models or self.bus_models),
                "repeats": self.batch_repeats,
                "min_speedup": self.batch.min_speedup,
            },
        }


# -- validation helpers ------------------------------------------------


def _require(table: dict, context: str, known: "Sequence[str]") -> None:
    for key in table:
        if key not in known:
            raise PlanError(
                f"{context}: unknown key {key!r} "
                f"(known: {', '.join(sorted(known))})"
            )


def _names(table: dict, key: str, default: "Sequence[str]",
           valid: "Sequence[str]", what: str,
           context: str = "grid") -> "List[str]":
    value = table.get(key, list(default))
    if not isinstance(value, list) or not value or not all(
        isinstance(item, str) for item in value
    ):
        raise PlanError(f"{context}.{key} must be a non-empty list of strings")
    for item in value:
        if item not in valid:
            raise PlanError(
                f"{context}.{key}: unknown {what} {item!r} "
                f"(choose from {', '.join(sorted(valid))})"
            )
    if len(set(value)) != len(value):
        raise PlanError(f"{context}.{key} contains duplicates")
    return value


def _int(table: dict, key: str, default: int, context: str,
         minimum: int = 0) -> int:
    value = table.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise PlanError(f"{context}.{key} must be an integer, got {value!r}")
    if value < minimum:
        raise PlanError(f"{context}.{key} must be >= {minimum}, got {value}")
    return value


def _number(table: dict, key: str, default: float, context: str,
            lo: float = 0.0, hi: "Optional[float]" = None) -> float:
    value = table.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PlanError(f"{context}.{key} must be a number, got {value!r}")
    if value < lo or (hi is not None and value >= hi):
        bound = f"[{lo:g}, {hi:g})" if hi is not None else f">= {lo:g}"
        raise PlanError(f"{context}.{key} must be {bound}, got {value}")
    return float(value)


def _bool(table: dict, key: str, default: bool, context: str) -> bool:
    value = table.get(key, default)
    if not isinstance(value, bool):
        raise PlanError(f"{context}.{key} must be true/false, got {value!r}")
    return value


def plan_from_dict(raw: dict, path: "Optional[str]" = None) -> BenchPlan:
    """Validate a parsed plan document into a :class:`BenchPlan`."""
    if not isinstance(raw, dict):
        raise PlanError(f"plan document must be a table, got {type(raw).__name__}")
    _require(raw, "plan file",
             ("plan", "grid", "run", "sweep", "capture", "gate", "batch"))

    plan_table = raw.get("plan", {})
    _require(plan_table, "[plan]", ("name", "description"))
    name = plan_table.get("name")
    if not isinstance(name, str) or not name:
        raise PlanError("[plan] name is required and must be a non-empty string")
    description = plan_table.get("description", "")
    if not isinstance(description, str):
        raise PlanError("[plan] description must be a string")

    grid = raw.get("grid", {})
    _require(grid, "[grid]", ("designs", "workloads", "bus_models"))
    defaults = BenchPlan(name="_")
    designs = _names(grid, "designs", defaults.designs,
                     tuple(DESIGN_FACTORIES), "design")
    workloads = _names(grid, "workloads", defaults.workloads,
                       _WORKLOADS + tuple(MIXES), "workload or mix")
    bus_models = _names(grid, "bus_models", defaults.bus_models,
                        BUS_MODELS, "bus model")

    run = raw.get("run", {})
    _require(run, "[run]", ("accesses_per_core", "warmup_per_core",
                            "repeats", "jobs"))
    accesses = _int(run, "accesses_per_core", defaults.accesses_per_core,
                    "run", minimum=1)
    warmup = _int(run, "warmup_per_core", defaults.warmup_per_core, "run")
    repeats = _int(run, "repeats", defaults.repeats, "run", minimum=1)
    jobs = _int(run, "jobs", defaults.jobs, "run")

    sweep_table = raw.get("sweep", {})
    _require(sweep_table, "[sweep]", ("enabled", "quick", "jobs"))
    sweep = SweepPolicy(
        enabled=_bool(sweep_table, "enabled", True, "sweep"),
        quick=_bool(sweep_table, "quick", False, "sweep"),
        jobs=_int(sweep_table, "jobs", 0, "sweep"),
    )

    capture_table = raw.get("capture", {})
    _require(capture_table, "[capture]",
             ("profile", "trace", "metrics", "metrics_every"))
    capture = CapturePolicy(
        profile=_bool(capture_table, "profile", False, "capture"),
        trace=_bool(capture_table, "trace", False, "capture"),
        metrics=_bool(capture_table, "metrics", False, "capture"),
        metrics_every=_int(capture_table, "metrics_every", 10_000,
                           "capture", minimum=1),
    )

    batch_table = raw.get("batch", {})
    _require(batch_table, "[batch]",
             ("enabled", "designs", "workloads", "bus_models", "repeats",
              "min_speedup"))
    batch = BatchPolicy(
        # A bare [batch] table means "measure it": enabled defaults to
        # the table's presence, so disabling is always explicit.
        enabled=_bool(batch_table, "enabled", "batch" in raw, "batch"),
        designs=tuple(
            _names(batch_table, "designs", (), tuple(DESIGN_FACTORIES),
                   "design", context="batch")
        ) if "designs" in batch_table else (),
        workloads=tuple(
            _names(batch_table, "workloads", (), _WORKLOADS + tuple(MIXES),
                   "workload or mix", context="batch")
        ) if "workloads" in batch_table else (),
        bus_models=tuple(
            _names(batch_table, "bus_models", (), BUS_MODELS, "bus model",
                   context="batch")
        ) if "bus_models" in batch_table else (),
        repeats=_int(batch_table, "repeats", 0, "batch"),
        min_speedup=_number(batch_table, "min_speedup", 0.0, "batch"),
    )

    gate_table = raw.get("gate", {})
    _require(gate_table, "[gate]",
             ("threshold", "window", "miss_rate_increase", "min_speedup",
              "cells"))
    overrides_table = gate_table.get("cells", {})
    if not isinstance(overrides_table, dict):
        raise PlanError("[gate.cells] must be a table of label -> threshold")
    labels = {
        PlanCell(workload, design, bus_model).label
        for bus_model in bus_models
        for workload in workloads
        for design in designs
    }
    overrides: "Dict[str, float]" = {}
    for label, value in overrides_table.items():
        if label not in labels:
            raise PlanError(
                f"[gate.cells] {label!r} is not a cell of this plan's grid"
            )
        overrides[label] = _number({"_": value}, "_", 0.0, "gate.cells",
                                   lo=0.0, hi=1.0)
    gate = GatePolicy(
        threshold=_number(gate_table, "threshold", defaults.gate.threshold,
                          "gate", lo=0.0, hi=1.0),
        window=_int(gate_table, "window", defaults.gate.window, "gate",
                    minimum=1),
        miss_rate_increase=_number(gate_table, "miss_rate_increase",
                                   defaults.gate.miss_rate_increase, "gate"),
        min_speedup=_number(gate_table, "min_speedup",
                            defaults.gate.min_speedup, "gate"),
        cells=overrides,
    )

    return BenchPlan(
        name=name,
        description=description,
        designs=tuple(designs),
        workloads=tuple(workloads),
        bus_models=tuple(bus_models),
        accesses_per_core=accesses,
        warmup_per_core=warmup,
        repeats=repeats,
        jobs=jobs,
        sweep=sweep,
        capture=capture,
        gate=gate,
        batch=batch,
        path=path,
    )


def load_plan(path: str) -> BenchPlan:
    """Load and validate a plan file (``.toml`` or ``.json``)."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise PlanError(f"cannot read plan {path}: {error}") from None
    if path.endswith(".json"):
        try:
            raw = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise PlanError(f"{path} is not valid JSON: {error}") from None
    else:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as error:
            raise PlanError(f"{path} is not valid UTF-8: {error}") from None
        raw = _parse_toml(text, path)
    return plan_from_dict(raw, path=os.path.abspath(path))


def _parse_toml(text: str, path: str) -> dict:
    """Parse plan TOML with the stdlib ``tomllib``."""
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as error:
        raise PlanError(f"{path} is not valid TOML: {error}") from None


__all__ = [
    "BatchPolicy",
    "BenchPlan",
    "CapturePolicy",
    "GatePolicy",
    "PlanCell",
    "PlanError",
    "SweepPolicy",
    "load_plan",
    "plan_from_dict",
]
