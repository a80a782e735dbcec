"""Trend engine: per-cell verdicts and rendered reports over history.

Takes the runs :mod:`repro.perflab.history` loaded, computes per-cell
throughput / miss-rate deltas against a **rolling baseline** (the
median of up to ``gate.window`` prior comparable runs — same cell,
same environment key, same run length), and renders:

* ``trend.md`` — verdict table for the latest run, sweep-speedup
  status, and per-cell history tables;
* ``throughput.png`` / ``miss_rate.png`` / ``latency_p95.png`` — trend
  curves from the built-in numpy renderer (:mod:`repro.perflab.chartpng`).

Gate semantics:

* each cell's allowed fractional throughput drop comes from the plan —
  ``[gate] threshold`` with ``[gate.cells]`` per-cell overrides — so a
  noisy cell can be gated loosely without loosening the rest;
* miss rate is deterministic, so any increase beyond
  ``gate.miss_rate_increase`` (default 0, i.e. *any* increase) is a
  regression — a model change hiding behind a wall-clock win still
  trips the gate;
* the sweep speedup is gated only when ``gate.min_speedup`` > 0 **and**
  the run's host had more than one CPU (a single-CPU host records its
  speedup but is never judged by it — the skip is stated in the
  verdict);
* cells with no comparable history are ``skipped``, never failed.

A run with any ``regression`` verdict makes ``repro bench report``
exit :data:`~repro.perflab.runner.REGRESSION_EXIT` naming the
offending cells.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.perflab import chartpng
from repro.perflab.history import BenchRun, CellTrend, TrendPoint, build_trends
from repro.perflab.plan import BenchPlan, GatePolicy

#: Default allowed fractional throughput drop when no plan supplies one.
DEFAULT_THRESHOLD = 0.2

#: Tolerance for float round-off on the deterministic miss-rate check.
_MISS_EPS = 1e-9

OK = "ok"
REGRESSION = "regression"
SKIPPED = "skipped"


@dataclass
class CellVerdict:
    """One cell's gate outcome for the latest run."""

    label: str
    status: str  # ok | regression | skipped
    reason: str
    latest: "Optional[float]" = None  # accesses/sec
    baseline: "Optional[float]" = None  # rolling-baseline accesses/sec
    delta: "Optional[float]" = None  # fractional change (+ = faster)
    threshold: "Optional[float]" = None
    miss_delta: "Optional[float]" = None  # absolute miss-rate change

    def line(self) -> str:
        return f"{self.label}: {self.status} — {self.reason}"


@dataclass
class TrendReport:
    """Everything one ``repro bench report`` invocation produced."""

    runs: "List[BenchRun]"
    trends: "Dict[str, CellTrend]"
    verdicts: "List[CellVerdict]" = field(default_factory=list)
    markdown_path: "Optional[str]" = None
    chart_paths: "List[str]" = field(default_factory=list)

    @property
    def regressions(self) -> "List[CellVerdict]":
        return [v for v in self.verdicts if v.status == REGRESSION]


def _comparable(trend: CellTrend, latest: TrendPoint) -> "List[TrendPoint]":
    """Prior points the latest one may be judged against."""
    prior = []
    for point in trend.points:
        if point is latest:
            break
        if point.throughput is None:
            continue
        if point.env != latest.env:
            continue
        if (point.accesses is not None and latest.accesses is not None
                and point.accesses != latest.accesses):
            continue
        prior.append(point)
    return prior


def evaluate(
    runs: "Sequence[BenchRun]",
    trends: "Dict[str, CellTrend]",
    gate: "Optional[GatePolicy]" = None,
) -> "List[CellVerdict]":
    """Per-cell verdicts for the newest run in ``runs`` (oldest-first)."""
    if not runs:
        return []
    gate = gate if gate is not None else GatePolicy(threshold=DEFAULT_THRESHOLD)
    latest_run = runs[-1]
    verdicts: "List[CellVerdict]" = []
    for label in sorted(latest_run.cells):
        trend = trends[label]
        latest = trend.points[-1]
        threshold = gate.threshold_for(label)
        if latest.throughput is None:
            verdicts.append(CellVerdict(
                label, SKIPPED, "latest run recorded no throughput",
                threshold=threshold,
            ))
            continue
        prior = _comparable(trend, latest)[-gate.window:]
        if not prior:
            verdicts.append(CellVerdict(
                label, SKIPPED,
                "no comparable history (same environment and run length)",
                latest=latest.throughput, threshold=threshold,
            ))
            continue
        baseline = statistics.median(point.throughput for point in prior)
        delta = latest.throughput / baseline - 1.0 if baseline else 0.0
        miss_delta = None
        miss_prior = [p.miss_rate for p in prior if p.miss_rate is not None]
        if latest.miss_rate is not None and miss_prior:
            miss_delta = latest.miss_rate - statistics.median(miss_prior)
        verdict = CellVerdict(
            label, OK, "", latest=latest.throughput, baseline=baseline,
            delta=delta, threshold=threshold, miss_delta=miss_delta,
        )
        problems = []
        if -delta > threshold:
            problems.append(
                f"throughput {latest.throughput:,.0f} is {-delta:.1%} below "
                f"the rolling baseline {baseline:,.0f} "
                f"(threshold {threshold:.0%}, window of {len(prior)})"
            )
        if miss_delta is not None and miss_delta > gate.miss_rate_increase + _MISS_EPS:
            problems.append(
                f"miss rate rose {miss_delta:+.4f} vs the rolling baseline "
                f"(allowed {gate.miss_rate_increase:+.4f})"
            )
        if problems:
            verdict.status = REGRESSION
            verdict.reason = "; ".join(problems)
        else:
            verdict.reason = (
                f"{delta:+.1%} vs baseline {baseline:,.0f} "
                f"over {len(prior)} comparable run(s)"
            )
        verdicts.append(verdict)
    verdicts.extend(_sweep_verdicts(latest_run, gate))
    return verdicts


def _sweep_verdicts(run: BenchRun, gate: GatePolicy) -> "List[CellVerdict]":
    sweep = run.sweep
    if not sweep:
        return []
    verdicts: "List[CellVerdict]" = []
    if sweep.get("identical") is False:
        verdicts.append(CellVerdict(
            "sweep/bit-identity", REGRESSION,
            "parallel sweep diverged from serial: "
            + ", ".join(sweep.get("mismatches", ())),
        ))
    if gate.min_speedup > 0:
        eligible = sweep.get("speedup_gate_eligible")
        if eligible is None:  # pre-gating record: infer from cpus if known
            cpus = sweep.get("cpus") or run.environment.get("cpus")
            eligible = cpus is None or cpus > 1
        if not eligible:
            verdicts.append(CellVerdict(
                "sweep/speedup", SKIPPED,
                sweep.get(
                    "speedup_gate_note",
                    "skipped: single-CPU host — speedup recorded, not gated",
                ),
            ))
        elif sweep.get("speedup", 0.0) < gate.min_speedup:
            verdicts.append(CellVerdict(
                "sweep/speedup", REGRESSION,
                f"sweep speedup {sweep.get('speedup')}x is below the "
                f"plan floor {gate.min_speedup:g}x",
            ))
        else:
            verdicts.append(CellVerdict(
                "sweep/speedup", OK,
                f"sweep speedup {sweep.get('speedup')}x "
                f">= floor {gate.min_speedup:g}x",
            ))
    return verdicts


# -- rendering ---------------------------------------------------------


def _chart_series(
    runs: "Sequence[BenchRun]",
    trends: "Dict[str, CellTrend]",
    metric: str,
) -> "Dict[str, List[Tuple[float, float]]]":
    """``{cell label: [(run index, value), ...]}`` for one metric."""
    order = {run.run_id: index for index, run in enumerate(runs)}
    series: "Dict[str, List[Tuple[float, float]]]" = {}
    for label in sorted(trends):
        points = [
            (float(order[p.run_id]), float(getattr(p, metric)))
            for p in trends[label].points
            if getattr(p, metric) is not None and p.run_id in order
        ]
        if points:
            series[label] = points
    return series


def _verdict_table(verdicts: "Sequence[CellVerdict]") -> "List[str]":
    lines = [
        "| cell | latest (acc/s) | baseline | Δ | threshold | miss Δ | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    for v in verdicts:
        lines.append(
            "| {label} | {latest} | {baseline} | {delta} | {threshold} "
            "| {miss} | **{status}** |".format(
                label=v.label,
                latest=f"{v.latest:,.0f}" if v.latest is not None else "—",
                baseline=f"{v.baseline:,.0f}" if v.baseline is not None else "—",
                delta=f"{v.delta:+.1%}" if v.delta is not None else "—",
                threshold=f"{v.threshold:.0%}" if v.threshold is not None else "—",
                miss=f"{v.miss_delta:+.4f}" if v.miss_delta is not None else "—",
                status=v.status,
            )
        )
    return lines


def render_markdown(
    runs: "Sequence[BenchRun]",
    trends: "Dict[str, CellTrend]",
    verdicts: "Sequence[CellVerdict]",
    chart_files: "Sequence[str]" = (),
    plan: "Optional[BenchPlan]" = None,
) -> str:
    """The full trend report as markdown text."""
    latest = runs[-1]
    lines = [
        "# Perf-lab trend report",
        "",
        f"Latest run: **{latest.run_id}** ({latest.created}, "
        f"{latest.env_key}); history depth: {len(runs)} run(s).",
    ]
    if plan is not None:
        lines.append(
            f"Gate: plan **{plan.name}** — default threshold "
            f"{plan.gate.threshold:.0%}, window {plan.gate.window}, "
            f"{len(plan.gate.cells)} per-cell override(s)."
        )
    else:
        lines.append(
            f"Gate: no plan given — default threshold "
            f"{DEFAULT_THRESHOLD:.0%} for every cell."
        )
    lines += ["", "## Verdicts", ""]
    lines += _verdict_table(verdicts)
    regressions = [v for v in verdicts if v.status == REGRESSION]
    lines.append("")
    if regressions:
        lines.append(
            f"**{len(regressions)} regression(s):** "
            + ", ".join(v.label for v in regressions)
        )
        for v in regressions:
            lines.append(f"- `{v.label}`: {v.reason}")
    else:
        lines.append("No regressions against the rolling baselines.")
    if chart_files:
        lines += ["", "## Trend curves", ""]
        for chart in chart_files:
            name = os.path.basename(chart)
            lines.append(f"![{name}]({name})")
        lines += [
            "",
            "Series are colored in cell-label order (legend below):",
            "",
        ]
        for index, label in enumerate(sorted(trends)):
            lines.append(f"{index + 1}. `{label}`")
    lines += ["", "## Per-cell history", ""]
    for label in sorted(trends):
        lines += [f"### `{label}`", ""]
        lines += [
            "| run | environment | acc/s | miss rate | p95 latency |",
            "|---|---|---|---|---|",
        ]
        for point in trends[label].points:
            lines.append(
                "| {run} | {env} | {tput} | {miss} | {p95} |".format(
                    run=point.run_id,
                    env=point.env,
                    tput=f"{point.throughput:,.0f}"
                    if point.throughput is not None else "—",
                    miss=f"{point.miss_rate:.4f}"
                    if point.miss_rate is not None else "—",
                    p95=f"{point.latency_p95:g}cy"
                    if point.latency_p95 is not None else "—",
                )
            )
        lines.append("")
    sweep = latest.sweep
    if sweep:
        lines += ["## Latest sweep", ""]
        lines.append(
            f"{sweep.get('cells', '?')} cells, serial "
            f"{sweep.get('serial_seconds', '?')}s -> "
            f"{sweep.get('jobs', '?')} jobs "
            f"{sweep.get('parallel_seconds', '?')}s "
            f"({sweep.get('speedup', '?')}x, "
            f"{'bit-identical' if sweep.get('identical') else 'MISMATCH'})."
        )
        if not sweep.get("speedup_gate_eligible", True):
            lines.append(sweep.get("speedup_gate_note", ""))
    return "\n".join(lines) + "\n"


def write_report(
    runs: "Sequence[BenchRun]",
    out_dir: str,
    plan: "Optional[BenchPlan]" = None,
) -> TrendReport:
    """Evaluate the gate and write ``trend.md`` + PNG curves to ``out_dir``."""
    if not runs:
        raise ValueError("cannot report on an empty BENCH history")
    runs = list(runs)
    trends = build_trends(runs)
    gate = plan.gate if plan is not None else None
    verdicts = evaluate(runs, trends, gate)
    os.makedirs(out_dir, exist_ok=True)
    charts: "List[str]" = []
    for metric in ("throughput", "miss_rate", "latency_p95"):
        series = _chart_series(runs, trends, metric)
        if series:
            path = os.path.join(out_dir, f"{metric}.png")
            chartpng.write_png(path, chartpng.line_chart(series))
            charts.append(path)
    markdown = render_markdown(runs, trends, verdicts, charts, plan)
    markdown_path = os.path.join(out_dir, "trend.md")
    with open(markdown_path, "w", encoding="utf-8") as handle:
        handle.write(markdown)
    return TrendReport(
        runs=runs, trends=trends, verdicts=verdicts,
        markdown_path=markdown_path, chart_paths=charts,
    )


__all__ = [
    "DEFAULT_THRESHOLD",
    "CellVerdict",
    "OK",
    "REGRESSION",
    "SKIPPED",
    "TrendReport",
    "evaluate",
    "render_markdown",
    "write_report",
]
