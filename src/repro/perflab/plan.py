"""Declarative bench plans: the grid a perf-lab run measures.

A *plan* is a TOML file describing a benchmark campaign: which
(design, workload, bus-model) cells to time, how long each run is,
whether to add the serial-vs-pool sweep leg, and how strictly each
cell is gated against its own history.  ``plans/default.toml`` is the
plan ``repro bench`` runs when given no ``--plan``; CI's tiny smoke
plan lives next to it.

Schema (all eleven keys)::

    [plan]
    name = "default"            # required; appears in BENCH records
    description = "..."

    [grid]                      # cells = designs x workloads x bus_models
    designs = ["uniform-shared", "private", "cmp-nurapid"]
    workloads = ["oltp"]        # Table 3 names and/or Table 2 mixes
    bus_models = ["atomic"]

    [run]
    accesses_per_core = 40000   # measured accesses per core per repeat
    warmup_per_core = 0         # warm-up per core (timed and counted)
    repeats = 3                 # timed repeats; the median is recorded

    [sweep]
    enabled = true              # serial-vs-pool wall-clock leg

    [gate]
    threshold = 0.2             # max fractional throughput drop

    [gate.cells]                # per-cell threshold overrides
    "oltp/cmp-nurapid/atomic" = 0.15

Everything except ``[plan] name`` has a default, so the minimal plan
is two lines.  Unknown tables, unknown keys, unknown design /
workload / bus-model names, and out-of-range numbers are all rejected
with a :class:`PlanError` naming the offending key — a plan typo must
fail the run, not silently measure the wrong grid.
"""

from __future__ import annotations

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
    """Per-cell throughput thresholds for the trend engine."""

    #: Default allowed fractional throughput drop vs the rolling baseline.
    threshold: float = 0.2
    #: Cell label -> threshold override.
    cells: "Dict[str, float]" = field(default_factory=dict)

    def threshold_for(self, label: str) -> float:
        return self.cells.get(label, self.threshold)


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
    #: Add the serial-vs-pool sweep leg
    #: (:func:`~repro.perflab.runner.measure_sweep`).
    sweep: bool = True
    gate: GatePolicy = GatePolicy()
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
                "cells": dict(self.gate.cells),
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
           valid: "Sequence[str]", what: str) -> "List[str]":
    value = table.get(key, list(default))
    if not isinstance(value, list) or not value or not all(
        isinstance(item, str) for item in value
    ):
        raise PlanError(f"grid.{key} must be a non-empty list of strings")
    for item in value:
        if item not in valid:
            raise PlanError(
                f"grid.{key}: unknown {what} {item!r} "
                f"(choose from {', '.join(sorted(valid))})"
            )
    if len(set(value)) != len(value):
        raise PlanError(f"grid.{key} contains duplicates")
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
    _require(raw, "plan file", ("plan", "grid", "run", "sweep", "gate"))

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
                            "repeats"))
    accesses = _int(run, "accesses_per_core", defaults.accesses_per_core,
                    "run", minimum=1)
    warmup = _int(run, "warmup_per_core", defaults.warmup_per_core, "run")
    repeats = _int(run, "repeats", defaults.repeats, "run", minimum=1)

    sweep_table = raw.get("sweep", {})
    _require(sweep_table, "[sweep]", ("enabled",))
    sweep = _bool(sweep_table, "enabled", defaults.sweep, "sweep")

    gate_table = raw.get("gate", {})
    _require(gate_table, "[gate]", ("threshold", "cells"))
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
        sweep=sweep,
        gate=gate,
        path=path,
    )


def load_plan(path: str) -> BenchPlan:
    """Load and validate a TOML plan file."""
    try:
        with open(path, "rb") as handle:
            raw = tomllib.load(handle)
    except OSError as error:
        raise PlanError(f"cannot read plan {path}: {error}") from None
    except (tomllib.TOMLDecodeError, UnicodeDecodeError) as error:
        raise PlanError(f"{path} is not valid TOML: {error}") from None
    return plan_from_dict(raw, path=os.path.abspath(path))


__all__ = [
    "BenchPlan",
    "GatePolicy",
    "PlanCell",
    "PlanError",
    "load_plan",
    "plan_from_dict",
]
