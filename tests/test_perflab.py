"""Perf-lab tests: plans, the plan runner, BENCH history, the gate.

Layout mirrors the package: plan parsing/validation, one tiny real
``run_plan`` execution (module-scoped — the record feeds several
tests), history loading (the committed ``BENCH_*.json`` records and
same-day ordering), rolling-baseline verdicts incl. the
injected-regression case CI's perf-lab-smoke job re-checks
end-to-end, the PNG renderer, and the bench satellites (single-CPU
sweep gating, collision-safe output paths).
"""

import glob
import json
import os

import pytest

from repro.perflab import (
    REGRESSION_EXIT,
    BenchPlan,
    CapturePolicy,
    GatePolicy,
    PlanError,
    SweepPolicy,
    build_trends,
    default_output_path,
    load_history,
    load_plan,
    plan_from_dict,
    run_plan,
    stats_digest,
    sweep_gate_fields,
    upgrade_record,
    write_record,
)
from repro.perflab import chartpng, report as trend_report
from repro.perflab.history import HistoryError, discover_history, env_key
from repro.perflab.runner import environment_fingerprint

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PLANS = os.path.join(REPO, "plans")

TINY_PLAN = BenchPlan(
    name="tiny",
    designs=("private", "cmp-nurapid"),
    workloads=("oltp",),
    bus_models=("atomic",),
    accesses_per_core=2_000,
    repeats=1,
    sweep=SweepPolicy(enabled=False),
)


# ---------------------------------------------------------------------------
# Plans


class TestPlanValidation:
    def test_bundled_plans_load(self):
        for name in ("default.toml", "ci-smoke.toml", "warm-grid.toml"):
            plan = load_plan(os.path.join(PLANS, name))
            assert plan.cells()
            assert plan.path and plan.path.endswith(name)

    def test_minimal_plan_is_name_only(self):
        plan = plan_from_dict({"plan": {"name": "mini"}})
        assert plan.name == "mini"
        assert [c.label for c in plan.cells()] == [
            "oltp/uniform-shared/atomic",
            "oltp/private/atomic",
            "oltp/cmp-nurapid/atomic",
        ]

    def test_json_plans_load(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "plan": {"name": "j"},
            "grid": {"designs": ["private"], "workloads": ["MIX1"]},
        }))
        plan = load_plan(str(path))
        assert plan.cells()[0].multiprogrammed

    @pytest.mark.parametrize("raw, fragment", [
        ({}, "name"),
        ({"plan": {"name": "x"}, "typo": {}}, "typo"),
        ({"plan": {"name": "x", "bogus": 1}}, "bogus"),
        ({"plan": {"name": "x"},
          "grid": {"designs": ["no-such-design"]}}, "no-such-design"),
        ({"plan": {"name": "x"},
          "grid": {"workloads": ["oltp", "oltp"]}}, "duplicates"),
        ({"plan": {"name": "x"}, "run": {"repeats": 0}}, "repeats"),
        ({"plan": {"name": "x"}, "run": {"accesses_per_core": -5}},
         "accesses_per_core"),
        ({"plan": {"name": "x"}, "gate": {"threshold": 1.5}}, "threshold"),
        ({"plan": {"name": "x"}, "sweep": {"enabled": "yes"}}, "enabled"),
        ({"plan": {"name": "x"},
          "gate": {"cells": {"oltp/ideal/atomic": 0.1}}}, "ideal"),
    ])
    def test_invalid_plans_name_the_key(self, raw, fragment):
        with pytest.raises(PlanError, match=fragment):
            plan_from_dict(raw)

    @pytest.mark.parametrize("text", [
        "[unclosed\n", "novalue\n", "x = \n", 'x = "unterminated\n',
    ])
    def test_malformed_toml_is_a_plan_error(self, tmp_path, text):
        path = tmp_path / "bad.toml"
        path.write_text(text)
        with pytest.raises(PlanError, match="not valid TOML"):
            load_plan(str(path))

    def test_gate_cell_override_applies(self):
        plan = plan_from_dict({
            "plan": {"name": "g"},
            "gate": {"threshold": 0.3,
                     "cells": {"oltp/cmp-nurapid/atomic": 0.1}},
        })
        assert plan.gate.threshold_for("oltp/cmp-nurapid/atomic") == 0.1
        assert plan.gate.threshold_for("oltp/private/atomic") == 0.3


# ---------------------------------------------------------------------------
# The plan runner


@pytest.fixture(scope="module")
def tiny_record(tmp_path_factory):
    out = tmp_path_factory.mktemp("perflab") / "BENCH_19990101.json"
    record = run_plan(TINY_PLAN, out=str(out))
    write_record(record, str(out))
    return record, str(out)


class TestRunPlan:
    def test_v2_record_shape(self, tiny_record):
        record, path = tiny_record
        assert record["schema"] == "repro-bench-v2"
        assert set(record["cells"]) == {
            "oltp/private/atomic", "oltp/cmp-nurapid/atomic",
        }
        for cell in record["cells"].values():
            assert cell["throughput_accesses_per_sec"] > 0
            assert 0.0 <= cell["miss_rate"] <= 1.0
            assert len(cell["fingerprint"]) == 16
        env = record["environment"]
        assert env["cpus"] >= 1 and env["python"] and env["numpy"]
        assert "throughput_accesses_per_sec" not in record
        on_disk = json.load(open(path, encoding="utf-8"))
        assert on_disk == record

    def test_bit_consistent_with_direct_run(self, tiny_record):
        # The acceptance check: the plan runner's deterministic metrics
        # equal a direct serial simulation of the same cell.
        from repro.experiments.runner import build_design, run_multithreaded

        record, _ = tiny_record
        _, stats = run_multithreaded(
            build_design("cmp-nurapid"), "oltp", TINY_PLAN.config()
        )
        cell = record["cells"]["oltp/cmp-nurapid/atomic"]
        assert cell["fingerprint"] == stats_digest(stats)
        assert cell["miss_rate"] == round(stats.accesses.miss_rate, 6)

    def test_capture_bundle(self, tmp_path):
        plan = BenchPlan(
            name="cap",
            designs=("private",),
            accesses_per_core=1_500,
            repeats=1,
            sweep=SweepPolicy(enabled=False),
            capture=CapturePolicy(profile=True, trace=True, metrics=True,
                                  metrics_every=500),
        )
        out = tmp_path / "BENCH_19990102.json"
        record = run_plan(plan, out=str(out))
        cell = record["cells"]["oltp/private/atomic"]
        bundle = tmp_path / "BENCH_19990102.capture" / "oltp-private-atomic"
        assert cell["capture"]["dir"] == os.path.join(
            "BENCH_19990102.capture", "oltp-private-atomic"
        )
        for name in ("profile.json", "metrics.json", "trace.jsonl",
                     "trace.perfetto.json"):
            assert (bundle / name).is_file(), name
        assert cell["latency"]["p95"] >= cell["latency"]["p50"] > 0

    def test_environment_fingerprint_keys(self):
        env = environment_fingerprint()
        assert set(env) == {"cpus", "python", "numpy", "platform", "git_sha"}


# ---------------------------------------------------------------------------
# History and migration


class TestHistory:
    def test_committed_history_loads_as_v2(self):
        paths = sorted(glob.glob(os.path.join(REPO, "BENCH_*.json")))
        assert paths
        runs = load_history(paths)
        assert len(runs) == len(paths)
        for run in runs:
            assert run.cells
            for cell in run.cells.values():
                assert "throughput_accesses_per_sec" in cell

    def test_unknown_schema_rejected(self):
        for schema in ("repro-bench-v1", "repro-bench-v9"):
            with pytest.raises(HistoryError, match="unknown BENCH schema"):
                upgrade_record({"schema": schema}, "BENCH_x")

    def test_run_ordering_same_day_suffixes(self, tmp_path):
        base = _v2_record({LABEL: 1.0})
        paths = []
        for name in ("BENCH_20260103-2.json", "BENCH_20260103.json",
                     "BENCH_20260102.json"):
            path = tmp_path / name
            path.write_text(json.dumps(base))
            paths.append(str(path))
        runs = load_history(paths)
        assert [run.run_id for run in runs] == [
            "BENCH_20260102", "BENCH_20260103", "BENCH_20260103-2",
        ]

    def test_discover_history_dedupes(self, tmp_path):
        path = tmp_path / "BENCH_20260101.json"
        path.write_text("{}")
        found = discover_history([str(tmp_path / "BENCH_*.json"), str(path)])
        assert found == [str(path)]

    def test_env_key(self):
        assert env_key({"cpus": 4, "python": "3.11.7"}) == "cpus=4/py=3.11"
        assert env_key({}) == "cpus=?/py=?"


# ---------------------------------------------------------------------------
# The gate


def _v2_run(run_id, throughput, miss_rate=0.2, cpus=4, sweep=None,
            accesses=2_000):
    cells = {
        label: {
            "workload": "oltp", "design": label.split("/")[1],
            "bus_model": "atomic", "multiprogrammed": False,
            "throughput_accesses_per_sec": value,
            "miss_rate": miss_rate, "fingerprint": "0" * 16,
        }
        for label, value in throughput.items()
    }
    record = {
        "schema": "repro-bench-v2",
        "created": f"2026-01-{int(run_id[-2:]):02d}T00:00:00Z",
        "environment": {"cpus": cpus, "python": "3.11.7"},
        "accesses_per_core": accesses,
        "cells": cells,
    }
    if sweep is not None:
        record["sweep"] = sweep
    return upgrade_record(record, run_id)


LABEL = "oltp/private/atomic"


class TestGate:
    def test_healthy_history_passes(self):
        runs = [_v2_run(f"BENCH_202601{i:02d}", {LABEL: 100.0 + i})
                for i in range(1, 5)]
        verdicts = trend_report.evaluate(runs, build_trends(runs))
        assert [v.status for v in verdicts] == [trend_report.OK]

    def test_thirty_percent_drop_trips(self):
        runs = [
            _v2_run("BENCH_20260101", {LABEL: 100.0}),
            _v2_run("BENCH_20260102", {LABEL: 102.0}),
            _v2_run("BENCH_20260103", {LABEL: 70.0}),
        ]
        verdicts = trend_report.evaluate(runs, build_trends(runs))
        assert verdicts[0].status == trend_report.REGRESSION
        assert LABEL in verdicts[0].line()
        assert "below the rolling baseline" in verdicts[0].reason

    def test_per_cell_threshold_override(self):
        runs = [
            _v2_run("BENCH_20260101", {LABEL: 100.0}),
            _v2_run("BENCH_20260102", {LABEL: 85.0}),
        ]
        trends = build_trends(runs)
        loose = trend_report.evaluate(runs, trends, GatePolicy(threshold=0.2))
        strict = trend_report.evaluate(
            runs, trends, GatePolicy(threshold=0.2, cells={LABEL: 0.1})
        )
        assert loose[0].status == trend_report.OK
        assert strict[0].status == trend_report.REGRESSION

    def test_environment_mismatch_skips(self):
        runs = [
            _v2_run("BENCH_20260101", {LABEL: 100.0}, cpus=8),
            _v2_run("BENCH_20260102", {LABEL: 10.0}, cpus=1),
        ]
        verdicts = trend_report.evaluate(runs, build_trends(runs))
        assert verdicts[0].status == trend_report.SKIPPED
        assert "no comparable history" in verdicts[0].reason

    def test_run_length_mismatch_skips(self):
        runs = [
            _v2_run("BENCH_20260101", {LABEL: 100.0}, accesses=40_000),
            _v2_run("BENCH_20260102", {LABEL: 10.0}, accesses=2_000),
        ]
        verdicts = trend_report.evaluate(runs, build_trends(runs))
        assert verdicts[0].status == trend_report.SKIPPED

    def test_miss_rate_increase_trips(self):
        runs = [
            _v2_run("BENCH_20260101", {LABEL: 100.0}, miss_rate=0.20),
            _v2_run("BENCH_20260102", {LABEL: 100.0}, miss_rate=0.25),
        ]
        verdicts = trend_report.evaluate(runs, build_trends(runs))
        assert verdicts[0].status == trend_report.REGRESSION
        assert "miss rate rose" in verdicts[0].reason
        tolerant = trend_report.evaluate(
            runs, build_trends(runs), GatePolicy(miss_rate_increase=0.1)
        )
        assert tolerant[0].status == trend_report.OK

    def test_rolling_baseline_is_median_of_window(self):
        # One outlier run must not drag the baseline: 100, 5, 100 -> the
        # median is 100, so a healthy 98 passes.
        runs = [
            _v2_run("BENCH_20260101", {LABEL: 100.0}),
            _v2_run("BENCH_20260102", {LABEL: 5.0}),
            _v2_run("BENCH_20260103", {LABEL: 100.0}),
            _v2_run("BENCH_20260104", {LABEL: 98.0}),
        ]
        verdicts = trend_report.evaluate(runs, build_trends(runs))
        assert verdicts[0].status == trend_report.OK
        assert verdicts[0].baseline == 100.0

    def test_single_cpu_sweep_speedup_not_gated(self):
        sweep = {"identical": True, "speedup": 0.8, "cells": 4, "jobs": 2,
                 "serial_seconds": 1.0, "parallel_seconds": 1.25,
                 **sweep_gate_fields(1)}
        runs = [_v2_run("BENCH_20260101", {LABEL: 100.0}, cpus=1,
                        sweep=sweep)]
        verdicts = trend_report.evaluate(
            runs, build_trends(runs), GatePolicy(min_speedup=1.2)
        )
        sweep_verdicts = [v for v in verdicts if v.label == "sweep/speedup"]
        assert sweep_verdicts[0].status == trend_report.SKIPPED
        assert "single-CPU" in sweep_verdicts[0].reason

    def test_multi_cpu_sweep_speedup_gated(self):
        sweep = {"identical": True, "speedup": 0.8, "cells": 4, "jobs": 2,
                 "serial_seconds": 1.0, "parallel_seconds": 1.25,
                 **sweep_gate_fields(4)}
        runs = [_v2_run("BENCH_20260101", {LABEL: 100.0}, sweep=sweep)]
        verdicts = trend_report.evaluate(
            runs, build_trends(runs), GatePolicy(min_speedup=1.2)
        )
        sweep_verdicts = [v for v in verdicts if v.label == "sweep/speedup"]
        assert sweep_verdicts[0].status == trend_report.REGRESSION

    def test_sweep_divergence_is_always_a_regression(self):
        sweep = {"identical": False, "mismatches": ["oltp/private"],
                 "speedup": 1.5, "cells": 4, "jobs": 2,
                 "serial_seconds": 1.0, "parallel_seconds": 0.66}
        runs = [_v2_run("BENCH_20260101", {LABEL: 100.0}, sweep=sweep)]
        verdicts = trend_report.evaluate(runs, build_trends(runs))
        assert any(
            v.label == "sweep/bit-identity"
            and v.status == trend_report.REGRESSION
            for v in verdicts
        )


# ---------------------------------------------------------------------------
# Reports and charts


class TestReportRendering:
    def test_write_report_renders_markdown_and_pngs(self, tmp_path):
        runs = [
            _v2_run("BENCH_20260101", {LABEL: 100.0}),
            _v2_run("BENCH_20260102", {LABEL: 60.0}),
        ]
        result = trend_report.write_report(runs, str(tmp_path))
        assert result.regressions and result.regressions[0].label == LABEL
        text = open(result.markdown_path, encoding="utf-8").read()
        assert "| oltp/private/atomic |" in text
        assert "**regression**" in text
        assert "1 regression(s)" in text
        for chart in result.chart_paths:
            width, height = chartpng.read_png_size(chart)
            assert width > 0 and height > 0
        names = {os.path.basename(p) for p in result.chart_paths}
        assert {"throughput.png", "miss_rate.png"} <= names

    def test_empty_history_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            trend_report.write_report([], str(tmp_path))


class TestChartPng:
    def test_png_roundtrip(self, tmp_path):
        canvas = chartpng.line_chart(
            {"a": [(0, 1.0), (1, 2.0), (2, 1.5)],
             "b": [(0, 3.0), (1, 2.5)]},
            size=(320, 200),
        )
        assert canvas.shape == (200, 320, 3)
        path = str(tmp_path / "chart.png")
        chartpng.write_png(path, canvas)
        assert chartpng.read_png_size(path) == (320, 200)
        # Both series actually left ink on the canvas.
        assert (canvas != 255).any(axis=2).sum() > 100

    def test_read_png_size_rejects_non_png(self, tmp_path):
        path = tmp_path / "not.png"
        path.write_bytes(b"definitely not a png")
        with pytest.raises(ValueError):
            chartpng.read_png_size(str(path))

    def test_format_tick(self):
        assert chartpng.format_tick(0) == "0"
        assert chartpng.format_tick(226_000) == "226k"
        assert chartpng.format_tick(1_500_000) == "1.5M"
        assert chartpng.format_tick(0.25) == "0.25"


# ---------------------------------------------------------------------------
# Bench satellites


class TestBenchSatellites:
    def test_sweep_gate_fields_single_cpu(self):
        fields = sweep_gate_fields(1)
        assert fields["speedup_gate_eligible"] is False
        assert "single-CPU" in fields["speedup_gate_note"]

    def test_sweep_gate_fields_multi_cpu(self):
        fields = sweep_gate_fields(8)
        assert fields["speedup_gate_eligible"] is True
        assert "speedup_gate_note" not in fields

    def test_default_output_path_collision_safe(self, tmp_path):
        first = default_output_path("20260101", str(tmp_path))
        assert os.path.basename(first) == "BENCH_20260101.json"
        open(first, "w").close()
        second = default_output_path("20260101", str(tmp_path))
        assert os.path.basename(second) == "BENCH_20260101-2.json"
        open(second, "w").close()
        third = default_output_path("20260101", str(tmp_path))
        assert os.path.basename(third) == "BENCH_20260101-3.json"
        # The suffixed names still sort and parse as same-day history.
        for path in (first, second):
            with open(path, "w") as handle:
                json.dump(_v2_record({LABEL: 1.0}), handle)
        runs = load_history([second, first])
        assert [r.run_id for r in runs] == [
            "BENCH_20260101", "BENCH_20260101-2",
        ]


def _engine_run(run_id, throughput, engine=None):
    run = _v2_run(run_id, throughput)
    if engine is not None:
        run.environment["engine"] = engine
    return run


class TestEngineAlignment:
    """Same-day batch-vs-scalar runs must not mix paths or baselines."""

    def test_env_key_distinguishes_batch_engine(self):
        scalar = {"cpus": 4, "python": "3.11.7"}
        assert env_key({**scalar, "engine": "batch"}) == (
            "cpus=4/py=3.11/engine=batch"
        )
        # Scalar and pre-engine records keep the historical key, so the
        # accumulated BENCH history keeps aligning unchanged.
        assert env_key({**scalar, "engine": "scalar"}) == "cpus=4/py=3.11"
        assert env_key(scalar) == "cpus=4/py=3.11"
        assert env_key({**scalar, "engine": None}) == "cpus=4/py=3.11"

    def test_environment_fingerprint_same_day_engines_stay_distinct(
            self, tmp_path):
        """The scalar-then-batch same-day workflow end to end.

        Both runs land on the same date: the second gets a collision
        suffix (distinct run_id), and the engine-aware env key keeps
        the pair in separate baseline groups.
        """
        scalar_path = default_output_path("20260809", str(tmp_path))
        open(scalar_path, "w").close()
        batch_path = default_output_path("20260809", str(tmp_path))
        assert os.path.basename(batch_path) == "BENCH_20260809-2.json"

        environment = environment_fingerprint()
        scalar_env = dict(environment, engine="scalar")
        batch_env = dict(environment, engine="batch")
        assert env_key(scalar_env) == env_key(environment)
        assert env_key(batch_env) != env_key(scalar_env)
        assert env_key(batch_env).endswith("/engine=batch")

    def test_batch_run_never_gates_against_scalar_baseline(self):
        """A slow batch run after fast scalar history must SKIP, not FAIL."""
        runs = [
            _engine_run(f"BENCH_202601{i:02d}", {LABEL: 100.0})
            for i in range(1, 5)
        ]
        runs.append(
            _engine_run("BENCH_20260105", {LABEL: 10.0}, engine="batch")
        )
        verdicts = trend_report.evaluate(runs, build_trends(runs))
        assert [v.status for v in verdicts] == [trend_report.SKIPPED]
        assert "no comparable history" in verdicts[0].reason

    def test_batch_runs_form_their_own_rolling_baseline(self):
        """Batch history gates batch runs: a real drop still fails."""
        runs = [
            _engine_run(f"BENCH_202601{i:02d}", {LABEL: 200.0},
                        engine="batch")
            for i in range(1, 5)
        ]
        runs.append(
            _engine_run("BENCH_20260105", {LABEL: 100.0}, engine="batch")
        )
        verdicts = trend_report.evaluate(runs, build_trends(runs))
        assert [v.status for v in verdicts] == [trend_report.REGRESSION]


# ---------------------------------------------------------------------------
# CLI


class TestCli:
    def test_bench_plan_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["bench", "--plan", "plans/default.toml", "--quick"]
        )
        assert args.plan == "plans/default.toml"
        assert args.func.__name__ == "cmd_bench"

    def test_bench_report_subcommand_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["bench", "report", "--history", "a.json", "b.json",
             "--out-dir", "rpt"]
        )
        assert args.func.__name__ == "cmd_bench_report"
        assert args.history == ["a.json", "b.json"]
        assert args.out_dir == "rpt"

    def test_bench_plan_defaults_to_default_toml(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["bench", "--quick"])
        assert args.func.__name__ == "cmd_bench"
        assert args.plan == os.path.join("plans", "default.toml")

    def test_bench_without_plans_dir_exits_2(
            self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--quick"]) == 2
        err = capsys.readouterr().err
        assert os.path.join("plans", "default.toml") in err
        assert not list(tmp_path.iterdir())

    def test_malformed_plan_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.toml"
        path.write_text('[plan]\nname = "x"\n[grid]\ndesigns = ["nope"]\n')
        assert main(["bench", "--plan", str(path)]) == 2
        assert "nope" in capsys.readouterr().err

    def test_report_without_history_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        missing = str(tmp_path / "BENCH_*.json")
        assert main(["bench", "report", "--history", missing,
                     "--out-dir", str(tmp_path / "rpt")]) == 2
        assert "no BENCH history" in capsys.readouterr().err

    def test_report_exit_5_names_cells(self, tmp_path, capsys):
        from repro.cli import main

        healthy = _v2_record({LABEL: 100.0})
        regressed = _v2_record({LABEL: 65.0})
        path_a = tmp_path / "BENCH_20260101.json"
        path_b = tmp_path / "BENCH_20260102.json"
        path_a.write_text(json.dumps(healthy))
        path_b.write_text(json.dumps(regressed))
        code = main([
            "bench", "report",
            "--history", str(path_a), str(path_b),
            "--out-dir", str(tmp_path / "rpt"),
        ])
        captured = capsys.readouterr()
        assert code == REGRESSION_EXIT
        assert LABEL in captured.err
        assert os.path.isfile(tmp_path / "rpt" / "trend.md")


def _v2_record(throughput):
    """A raw v2 record dict (what _v2_run parses) for CLI round-trips."""
    return {
        "schema": "repro-bench-v2",
        "environment": {"cpus": 4, "python": "3.11.7"},
        "accesses_per_core": 2_000,
        "cells": {
            label: {
                "workload": "oltp", "design": label.split("/")[1],
                "bus_model": "atomic", "multiprogrammed": False,
                "throughput_accesses_per_sec": value,
                "miss_rate": 0.2, "fingerprint": "0" * 16,
            }
            for label, value in throughput.items()
        },
    }
