"""Perf lab: declarative bench plans, reference-speed records, trend reports.

The perf lab is what ``repro bench`` runs — a small benchmarking
system:

* :mod:`repro.perflab.plan` — TOML **bench plans** describing a grid
  of designs x workloads x bus models, run sizing, the optional sweep
  leg, and per-cell gate thresholds (``plans/default.toml`` is the
  plan ``repro bench`` runs by default);
* :mod:`repro.perflab.runner` — times each cell's repeats at reference
  speed (the host's sampled speed scaled out) into a
  ``repro-bench-v2`` record with an environment fingerprint, taking
  each cell's stats from the timed runs themselves;
* :mod:`repro.perflab.history` — loads accumulated ``BENCH_*.json``
  files into aligned per-cell trends;
* :mod:`repro.perflab.report` — rolling-baseline verdicts, the text
  trend report, and the per-cell regression gate behind
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
    GatePolicy,
    PlanCell,
    PlanError,
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
    REFERENCE_S,
    REGRESSION_EXIT,
    SCHEMA_V2,
    TIMING,
    RepeatDivergenceError,
    SpeedSampler,
    at_reference_speed,
    default_output_path,
    environment_fingerprint,
    measure_sweep,
    reference_work,
    render_record,
    run_plan,
    stats_digest,
    write_record,
)

__all__ = [
    "BenchPlan",
    "BenchRun",
    "CellTrend",
    "CellVerdict",
    "GatePolicy",
    "HistoryError",
    "PlanCell",
    "PlanError",
    "REFERENCE_S",
    "REGRESSION_EXIT",
    "RepeatDivergenceError",
    "SCHEMA_V2",
    "SpeedSampler",
    "TIMING",
    "TrendPoint",
    "TrendReport",
    "at_reference_speed",
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
    "reference_work",
    "render_markdown",
    "render_record",
    "run_plan",
    "stats_digest",
    "upgrade_record",
    "write_record",
    "write_report",
]
