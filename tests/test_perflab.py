"""Perf-lab tests: plans, the plan runner, BENCH history, the gate.

Layout mirrors the package: plan parsing/validation, one tiny real
``run_plan`` execution (module-scoped — the record feeds several
tests), reference-speed timing (the sampler and the statistic),
history loading (the committed ``BENCH_*.json`` records, which must
pass their own gate, and same-day ordering), rolling-baseline
verdicts incl. the injected-regression case CI's perf-lab-smoke job
re-checks end-to-end, the text report, and collision-safe output
paths.
"""

import contextlib
import dataclasses
import glob
import json
import os
import signal
import time

import pytest

from repro.perflab import (
    REFERENCE_S,
    REGRESSION_EXIT,
    TIMING,
    BenchPlan,
    GatePolicy,
    PlanError,
    RepeatDivergenceError,
    SpeedSampler,
    at_reference_speed,
    build_trends,
    default_output_path,
    load_history,
    load_plan,
    plan_from_dict,
    run_plan,
    stats_digest,
    upgrade_record,
    write_record,
)
from repro.perflab import report as trend_report
from repro.perflab import runner as plan_runner
from repro.perflab.history import HistoryError, discover_history, env_key
from repro.perflab.runner import cell_timing, environment_fingerprint

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PLANS = os.path.join(REPO, "plans")

TINY_PLAN = BenchPlan(
    name="tiny",
    designs=("private", "cmp-nurapid"),
    workloads=("oltp",),
    bus_models=("atomic",),
    accesses_per_core=2_000,
    repeats=1,
    sweep=False,
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
        ({"plan": {"name": "x"}, "batch": {}}, "batch"),
        # Keys the eleven-key schema removed are unknown keys now.
        ({"plan": {"name": "x"}, "run": {"jobs": 2}}, "jobs"),
        ({"plan": {"name": "x"}, "sweep": {"jobs": 2}}, "jobs"),
        ({"plan": {"name": "x"}, "sweep": {"quick": True}}, "quick"),
        ({"plan": {"name": "x"}, "gate": {"window": 5}}, "window"),
        ({"plan": {"name": "x"}, "gate": {"miss_rate_increase": 0.1}},
         "miss_rate_increase"),
        ({"plan": {"name": "x"}, "gate": {"min_speedup": 1.2}},
         "min_speedup"),
        ({"plan": {"name": "x"}, "capture": {"profile": True}}, "capture"),
        ({"plan": {"name": "x"}, "capture": {"trace": True}}, "capture"),
        ({"plan": {"name": "x"}, "capture": {"metrics": True}}, "capture"),
        ({"plan": {"name": "x"}, "capture": {"metrics_every": 500}},
         "capture"),
        # Plans are TOML only: a JSON plan fails naming its file.
        pytest.param('{"plan": {"name": "j"}}', "plan.json", id="json-plan"),
    ])
    def test_invalid_plans_name_the_key(self, raw, fragment, tmp_path):
        with pytest.raises(PlanError, match=fragment):
            if isinstance(raw, str):
                path = tmp_path / "plan.json"
                path.write_text(raw)
                load_plan(str(path))
            else:
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
    record = run_plan(TINY_PLAN)
    write_record(record, str(out))
    return record, str(out)


class TestRunPlan:
    def test_v2_record_shape(self, tiny_record):
        record, path = tiny_record
        assert record["schema"] == "repro-bench-v2"
        assert set(record["cells"]) == {
            "oltp/private/atomic", "oltp/cmp-nurapid/atomic",
        }
        assert record["timing"] == TIMING
        for cell in record["cells"].values():
            assert cell["throughput_accesses_per_sec"] > 0
            assert 0.0 <= cell["miss_rate"] <= 1.0
            assert len(cell["fingerprint"]) == 16
            assert len(cell["repeat_seconds"]) == TINY_PLAN.repeats
            assert len(cell["reference_seconds"]) == TINY_PLAN.repeats
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

    def test_repeat_divergence_names_the_cell(
            self, tmp_path, monkeypatch, capsys):
        # The timed repeats are the only simulations, so a repeat whose
        # stats differ from the first must fail the run, naming the cell.
        from repro.cli import main

        real_run = plan_runner.run_multithreaded
        calls = []

        def diverging_run(design, workload, config):
            calls.append(workload)
            if len(calls) % 2 == 0:
                config = dataclasses.replace(config, seed=config.seed + 1)
            return real_run(design, workload, config)

        monkeypatch.setattr(plan_runner, "run_multithreaded", diverging_run)
        plan = BenchPlan(name="diverge", designs=("private",),
                         accesses_per_core=500, repeats=2, sweep=False)
        with pytest.raises(RepeatDivergenceError,
                           match="oltp/private/atomic: repeat 2"):
            run_plan(plan)

        path = tmp_path / "diverge.toml"
        path.write_text(
            '[plan]\nname = "diverge"\n[grid]\ndesigns = ["private"]\n'
            '[run]\naccesses_per_core = 500\nrepeats = 2\n'
            '[sweep]\nenabled = false\n'
        )
        out = tmp_path / "BENCH_19990103.json"
        assert main(["bench", "--plan", str(path), "--out", str(out)]) == (
            REGRESSION_EXIT
        )
        assert "oltp/private/atomic" in capsys.readouterr().err
        assert not out.exists()

    def test_environment_fingerprint_keys(self):
        env = environment_fingerprint()
        assert set(env) == {
            "cpus", "python", "numpy", "platform", "git_sha", "git_dirty",
        }

    def test_git_dirty_flags_a_modified_tree(self, tmp_path, monkeypatch):
        import subprocess

        def git(*args):
            subprocess.run(["git", *args], cwd=tmp_path, check=True,
                           capture_output=True)

        monkeypatch.chdir(tmp_path)
        assert environment_fingerprint()["git_dirty"] is None
        git("init", "-q")
        (tmp_path / "tracked.txt").write_text("one\n")
        git("add", "tracked.txt")
        git("-c", "user.name=t", "-c", "user.email=t@example.com",
            "commit", "-q", "-m", "one")
        (tmp_path / "untracked.txt").write_text("ignored\n")
        assert environment_fingerprint()["git_dirty"] is False
        (tmp_path / "tracked.txt").write_text("two\n")
        assert environment_fingerprint()["git_dirty"] is True

    def test_records_without_git_dirty_still_report(self):
        path = os.path.join(REPO, "BENCH_20261018.json")
        record = json.load(open(path, encoding="utf-8"))
        assert "git_dirty" not in record["environment"]
        assert "environment:" in plan_runner.render_record(record)
        assert load_history([path])

    def test_warmup_accesses_count_toward_throughput(self, monkeypatch):
        # Warm-up is simulated inside the timed run, so its accesses are
        # counted with the measured ones, as bench/ counts them.
        counted = []
        real_timing = plan_runner.cell_timing
        monkeypatch.setattr(
            plan_runner, "cell_timing",
            lambda accesses, repeats: counted.append(accesses)
            or real_timing(accesses, repeats),
        )
        plan = BenchPlan(name="warm", designs=("private",),
                         accesses_per_core=300, warmup_per_core=200,
                         repeats=1, sweep=False)
        run_plan(plan)
        assert counted == [(200 + 300) * 4]


# ---------------------------------------------------------------------------
# Reference-speed timing


class TestReferenceSpeed:
    def test_fastest_three_quarters_set_the_speed(self):
        # Eight samples: the fastest six (mean 2x the reference loop's
        # time) set the speed; the two slowest, where an interrupt
        # landed, are dropped.
        samples = [2 * REFERENCE_S] * 6 + [40 * REFERENCE_S, 90 * REFERENCE_S]
        assert at_reference_speed(1.0, samples) == pytest.approx(0.5)
        # Fewer than four samples: the fastest one alone.
        assert at_reference_speed(1.0, [4 * REFERENCE_S, 5 * REFERENCE_S]) == (
            pytest.approx(0.25)
        )

    def test_cell_throughput_is_the_median_over_repeats(self):
        # The same raw 2 s, sampled at half, reference and quarter speed,
        # is 1.0, 2.0 and 0.5 s at reference speed.
        repeats = [
            (2.0, [2 * REFERENCE_S]),
            (2.0, [REFERENCE_S]),
            (2.0, [4 * REFERENCE_S]),
        ]
        fields = cell_timing(1_000, repeats)
        assert fields["reference_seconds"] == [1.0, 2.0, 0.5]
        assert fields["repeat_seconds"] == [2.0, 2.0, 2.0]
        # Median of 1000, 500 and 2000 accesses/s, not the best (2000).
        assert fields["throughput_accesses_per_sec"] == 1000.0

    def test_sampler_restores_handler_and_disarms_timer(self):
        # A worker forked after a timed run must inherit no timer, and
        # whoever held SIGALRM before must hold it again.
        def sentinel(signum, frame):
            raise AssertionError("the sampler's timer leaked")

        previous = signal.signal(signal.SIGALRM, sentinel)
        try:
            for fail in (False, True):
                expect = pytest.raises(RuntimeError) if fail else (
                    contextlib.nullcontext())
                with expect:
                    with SpeedSampler() as sampler:
                        deadline = time.perf_counter() + 0.12
                        while time.perf_counter() < deadline:
                            pass
                        if fail:
                            raise RuntimeError("the timed run failed")
                assert len(sampler.samples) >= 2  # entry + timer samples
                assert signal.getsignal(signal.SIGALRM) is sentinel
                assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        finally:
            signal.signal(signal.SIGALRM, previous)

    def test_run_plan_leaves_no_timer_armed(self, tiny_record):
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        handler = signal.getsignal(signal.SIGALRM)
        assert not isinstance(getattr(handler, "__self__", None),
                              SpeedSampler)


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

    def test_committed_history_passes_its_gate(
            self, tmp_path, monkeypatch, capsys):
        # The gate CI runs over the committed records reads them only:
        # nothing may be simulated.
        from repro.cli import main
        from repro.cpu.system import CmpSystem

        def no_simulation(*args, **kwargs):
            raise AssertionError("bench report simulated a cell")

        monkeypatch.setattr(CmpSystem, "__init__", no_simulation)
        monkeypatch.chdir(REPO)
        code = main([
            "bench", "report", "--history", "BENCH_*.json",
            "--plan", os.path.join("plans", "default.toml"),
            "--out-dir", str(tmp_path),
        ])
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "trend.md").is_file()


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
        # Miss rate is deterministic: any rise beyond float round-off
        # regresses, under the default gate and a plan's alike.
        runs = [
            _v2_run("BENCH_20260101", {LABEL: 100.0}, miss_rate=0.20),
            _v2_run("BENCH_20260102", {LABEL: 100.0}, miss_rate=0.2001),
        ]
        for gate in (None, GatePolicy(threshold=0.5)):
            verdicts = trend_report.evaluate(runs, build_trends(runs), gate)
            assert verdicts[0].status == trend_report.REGRESSION
            assert "miss rate rose" in verdicts[0].reason

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
        # The report is text only: trend.md carries each cell's history
        # as bars above its table, and no image is written.
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
        history = text[text.index(f"### `{LABEL}`"):]
        bars = [line for line in history.splitlines() if "#" * 10 in line]
        assert len(bars) == 2
        assert "BENCH_20260101" in bars[0] and bars[0].endswith(" 100")
        assert "BENCH_20260102" in bars[1] and bars[1].endswith(" 60")
        assert bars[0].count("#") > bars[1].count("#")
        assert history.index("BENCH_20260101 ") < history.index("| run |")
        assert os.listdir(tmp_path) == ["trend.md"]

    def test_empty_history_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            trend_report.write_report([], str(tmp_path))


class TestBenchSatellites:
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


def _timed_run(run_id, throughput, timing):
    run = _v2_run(run_id, throughput)
    run.timing = timing
    return run


class TestEngineAlignment:
    """Batch-engine records (three are committed) keep their own baselines."""

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

    @pytest.mark.parametrize("history, latest", [
        (None, TIMING),  # raw wall-clock history, reference-speed run
        (TIMING, None),  # and the reverse
    ])
    def test_raw_and_reference_speed_runs_never_gate_each_other(
            self, history, latest):
        """A slow run after fast history of the other protocol skips."""
        runs = [
            _timed_run(f"BENCH_202601{i:02d}", {LABEL: 500.0}, history)
            for i in range(1, 5)
        ]
        runs.append(_timed_run("BENCH_20260105", {LABEL: 10.0}, latest))
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
