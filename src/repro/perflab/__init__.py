"""Perf lab: declarative bench plans, capture bundles, trend reports.

The perf lab is what ``repro bench`` runs — a small benchmarking
system:

* :mod:`repro.perflab.plan` — TOML/JSON **bench plans** describing a
  grid of designs x workloads x bus models, run sizing, per-cell
  capture, and per-cell gate thresholds (``plans/default.toml`` is the
  plan ``repro bench`` runs by default);
* :mod:`repro.perflab.runner` — executes a plan through the supervised
  parallel executor into a ``repro-bench-v2`` record with an
  environment fingerprint and opt-in per-cell capture bundles;
* :mod:`repro.perflab.history` — loads accumulated ``BENCH_*.json``
  files into aligned per-cell trends;
* :mod:`repro.perflab.report` — rolling-baseline verdicts, markdown +
  PNG trend reports, and the per-cell regression gate behind
  ``repro bench report`` (exit 5 names the offending cells).
"""

from repro.perflab.history import (
    BenchRun,
    CellTrend,
    HistoryError,
    TrendPoint,
    build_trends,
    discover_history,
    env_key,
    load_history,
    upgrade_record,
)
from repro.perflab.plan import (
    BenchPlan,
    CapturePolicy,
    GatePolicy,
    PlanCell,
    PlanError,
    SweepPolicy,
    load_plan,
    plan_from_dict,
)
from repro.perflab.report import (
    CellVerdict,
    TrendReport,
    evaluate,
    render_markdown,
    write_report,
)
from repro.perflab.runner import (
    REGRESSION_EXIT,
    SCHEMA_V2,
    default_output_path,
    environment_fingerprint,
    measure_sweep,
    render_record,
    run_plan,
    stats_digest,
    sweep_gate_fields,
    write_record,
)

__all__ = [
    "BenchPlan",
    "BenchRun",
    "CapturePolicy",
    "CellTrend",
    "CellVerdict",
    "GatePolicy",
    "HistoryError",
    "PlanCell",
    "PlanError",
    "REGRESSION_EXIT",
    "SCHEMA_V2",
    "SweepPolicy",
    "TrendPoint",
    "TrendReport",
    "build_trends",
    "default_output_path",
    "discover_history",
    "env_key",
    "environment_fingerprint",
    "evaluate",
    "load_history",
    "load_plan",
    "measure_sweep",
    "plan_from_dict",
    "render_markdown",
    "render_record",
    "run_plan",
    "stats_digest",
    "sweep_gate_fields",
    "upgrade_record",
    "write_record",
    "write_report",
]
