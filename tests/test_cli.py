"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main
from repro.experiments import suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        args_dict = vars(args)
        # Both resolve at use time: design to cmp-nurapid, workload to
        # oltp.  (No argparse defaults so --resume can detect conflicts.)
        assert args_dict["design"] is None
        assert args_dict["workload"] is None
        assert args_dict["check_invariants"] == 0
        assert args_dict["inject_fault"] is None

    def test_mix_and_workload_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--workload", "oltp", "--mix", "MIX1"]
            )

    def test_unknown_design_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--design", "no-such-cache"])


class TestCommands:
    def test_latency_prints_table1(self, capsys):
        code, out = run_cli(capsys, "latency")
        assert code == 0
        assert "shared 8MB 32-way total" in out
        assert "59" in out

    def test_run_small(self, capsys):
        code, out = run_cli(
            capsys,
            "run",
            "--design",
            "uniform-shared",
            "--accesses",
            "1500",
            "--warmup",
            "1500",
        )
        assert code == 0
        assert "throughput" in out

    def test_run_with_chart(self, capsys):
        code, out = run_cli(
            capsys,
            "run",
            "--design",
            "cmp-nurapid",
            "--accesses",
            "1500",
            "--warmup",
            "0",
            "--chart",
        )
        assert code == 0
        assert "legend" in out
        assert "d-group accesses" in out

    def test_compare_two_designs(self, capsys):
        code, out = run_cli(
            capsys,
            "compare",
            "--designs",
            "uniform-shared",
            "ideal",
            "--accesses",
            "1500",
            "--warmup",
            "0",
        )
        assert code == 0
        assert "uniform-shared" in out and "ideal" in out

    def test_compare_on_mix(self, capsys):
        code, out = run_cli(
            capsys,
            "compare",
            "--designs",
            "uniform-shared",
            "private",
            "--mix",
            "MIX4",
            "--accesses",
            "1500",
            "--warmup",
            "0",
        )
        assert code == 0
        assert "MIX4" in out

    def test_experiment_table1(self, capsys):
        code, out = run_cli(capsys, "experiment", "table1")
        assert code == 0
        assert "Table 1" in out

    def test_experiment_unknown(self, capsys):
        code = main(["experiment", "fig99"])
        assert code == 2

    def test_trace_roundtrip(self, tmp_path, capsys):
        trace = tmp_path / "t.txt"
        code, out = run_cli(
            capsys,
            "trace",
            "generate",
            "--workload",
            "barnes",
            "--accesses",
            "400",
            "--warmup",
            "0",
            "--out",
            str(trace),
        )
        assert code == 0
        assert "wrote" in out
        code, out = run_cli(
            capsys, "trace", "run", str(trace), "--design", "private"
        )
        assert code == 0
        assert "throughput" in out


def run_cli_err(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHarnessFlags:
    """The robustness flags: validation, faults, checkpoint/resume."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--accesses", "-5"],
            ["run", "--warmup", "-1"],
            ["run", "--check-invariants", "-2"],
            ["run", "--checkpoint-every", "0"],
            ["run", "--timeout", "-1"],
            ["run", "--inject-fault", "bogus@10"],
            ["run", "--inject-fault", "flip-pointer"],
            ["run", "--inject-fault", "flip-pointer@-3"],
            ["run", "--inject-fault", "flip-pointer@ten"],
            ["run", "--resume", "x.ck", "--workload", "oltp"],
            ["run", "--resume", "x.ck", "--mix", "MIX1"],
            ["run", "--resume", "x.ck", "--design", "private"],
            ["run", "--resume", "/nonexistent/x.ck"],
            ["trace", "generate", "--accesses", "-1", "--out", "t.txt"],
            ["compare", "--accesses", "-1"],
        ],
    )
    def test_malformed_arguments_exit_2_one_line(self, capsys, argv):
        code, out, err = run_cli_err(capsys, *argv)
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "line", ["0 zz R", "9 10 R"], ids=["malformed", "core-outside-machine"]
    )
    def test_trace_run_bad_line_exits_2_one_line(self, tmp_path, capsys, line):
        trace = tmp_path / "bad.trace"
        trace.write_text(f"# comment\n0 40 R\n{line}\n")
        code, out, err = run_cli_err(capsys, "trace", "run", str(trace))
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert f"{trace}: line 3: " in err
        assert "Traceback" not in err

    def test_trace_run_replays_an_eventq_machine_line(self, tmp_path, capsys):
        """Crash windows dumped before the eventq backend was folded
        into the atomic bus name it; they replay on the atomic bus."""
        trace = tmp_path / "old.window"
        trace.write_text(
            "# repro trace\n# machine: cores=4 bus_model=eventq\n"
            "0 40 R\n1 40 W\n2 80 R\n"
        )
        code, out, err = run_cli_err(
            capsys, "trace", "run", str(trace), "--design", "private"
        )
        assert code == 0, err
        assert "throughput" in out

    def test_paranoid_run_passes(self, capsys):
        code, out = run_cli(
            capsys,
            "run", "--design", "private", "--accesses", "800",
            "--warmup", "200", "--check-invariants", "100",
        )
        assert code == 0
        assert "invariants checked every 100 event(s)" in out

    def test_injected_fault_exits_3_with_diagnostic(self, tmp_path, capsys):
        checkpoint = tmp_path / "fault.ck"
        code, out, err = run_cli_err(
            capsys,
            "run", "--design", "cmp-nurapid", "--accesses", "2000",
            "--warmup", "0", "--check-invariants", "1",
            "--inject-fault", "flip-pointer@500",
            "--checkpoint", str(checkpoint),
        )
        assert code == 3
        assert "invariant violation: [" in err
        assert "replayable event window" in err
        window = (tmp_path / "fault.ck.window").read_text().splitlines()
        assert len([line for line in window if not line.startswith("#")]) == 64

    def test_watchdog_exits_4(self, tmp_path, capsys):
        checkpoint = tmp_path / "hang.ck"
        code, out, err = run_cli_err(
            capsys,
            "run", "--design", "private", "--accesses", "100000",
            "--warmup", "0", "--timeout", "0.01",
            "--checkpoint", str(checkpoint),
        )
        assert code == 4
        assert "watchdog timeout" in err

    def test_checkpoint_then_resume_matches(self, tmp_path, capsys):
        checkpoint = tmp_path / "run.ck"
        argv = [
            "run", "--design", "uniform-shared", "--accesses", "1000",
            "--warmup", "500", "--checkpoint", str(checkpoint),
            "--checkpoint-every", "2000",
        ]
        code, full = run_cli(capsys, *argv)
        assert code == 0
        assert checkpoint.exists()
        code, resumed = run_cli(capsys, "run", "--resume", str(checkpoint))
        assert code == 0

        def numbers(text):
            return [
                line for line in text.splitlines()
                if "throughput" in line or "IPC" in line or "%" in line
            ]

        assert numbers(resumed) == numbers(full)

    def test_resume_rejects_garbage_checkpoint(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.ck"
        bogus.write_bytes(b"not a checkpoint")
        code, out, err = run_cli_err(capsys, "run", "--resume", str(bogus))
        assert code == 2
        assert "error:" in err


class TestObservabilityFlags:
    RUN = ("run", "--design", "cmp-nurapid", "--accesses", "800",
           "--warmup", "800")

    def test_trace_flag_writes_valid_jsonl(self, tmp_path, capsys):
        from repro.obs.events import validate_jsonl

        trace = tmp_path / "run.jsonl"
        code, out = run_cli(capsys, *self.RUN, "--trace", str(trace))
        assert code == 0
        assert "trace:" in out
        count, errors = validate_jsonl(str(trace))
        assert errors == []
        assert count > 0

    def test_metrics_flag_json_and_csv(self, tmp_path, capsys):
        import json as json_module

        metrics = tmp_path / "m.json"
        code, out = run_cli(
            capsys, *self.RUN, "--metrics", str(metrics),
            "--metrics-every", "1k",
        )
        assert code == 0
        payload = json_module.loads(metrics.read_text())
        assert payload["sample_every"] == 1000
        assert payload["samples"]

        csv_path = tmp_path / "m.csv"
        code, _ = run_cli(
            capsys, *self.RUN, "--metrics", str(csv_path),
            "--metrics-every", "1k",
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) >= 2  # header + samples

    def test_profile_flag_prints_report(self, capsys):
        code, out = run_cli(capsys, *self.RUN, "--profile")
        assert code == 0
        assert "l2-lookup" in out
        assert "wall clock" in out

    def test_count_suffix_parsing(self):
        args = build_parser().parse_args(
            ["run", "--metrics-every", "10k", "--trace-buffer", "2m"]
        )
        assert args.metrics_every == 10_000
        assert args.trace_buffer == 2_000_000
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--metrics-every", "ten"])

    def test_trace_flags_compose_with_harness(self, tmp_path, capsys):
        from repro.obs.events import read_jsonl

        trace = tmp_path / "harness.jsonl"
        code, out = run_cli(
            capsys, *self.RUN, "--trace", str(trace),
            "--inject-fault", "delay-xbar@100",
        )
        assert code == 0
        kinds = {event.kind for event in read_jsonl(str(trace))}
        assert "fault" in kinds  # injections stream through the tracer

    def test_trace_export_and_validate(self, tmp_path, capsys):
        import json as json_module

        from repro.obs.perfetto import validate_chrome_trace

        trace = tmp_path / "run.jsonl"
        code, _ = run_cli(capsys, *self.RUN, "--trace", str(trace))
        assert code == 0

        code, out = run_cli(capsys, "trace", "validate", str(trace))
        assert code == 0
        assert "all valid" in out

        exported = tmp_path / "run.perfetto.json"
        code, out = run_cli(
            capsys, "trace", "export", str(trace), "--out", str(exported)
        )
        assert code == 0
        assert "perfetto" in out
        payload = json_module.loads(exported.read_text())
        assert validate_chrome_trace(payload) == []

    def test_trace_validate_rejects_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "nope"}\nnot json\n')
        code, out, err = run_cli_err(capsys, "trace", "validate", str(bad))
        assert code == 2
        assert "problem" in err

    def test_trace_export_rejects_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "nope"}\n')
        code, out, err = run_cli_err(
            capsys, "trace", "export", str(bad), "--out",
            str(tmp_path / "out.json"),
        )
        assert code == 2
        assert "error:" in err


#: The report title of every registry entry, as `repro experiment` prints it.
TITLES = {
    "table1": "Table 1: 8 MB cache and bus latencies (cycles)",
    "fig5": "Figure 5: distribution of L2 accesses (commercial average)",
    "fig6": "Figure 6: performance opportunity (commercial average, "
    "normalized to uniform-shared)",
    "fig7": "Figure 7: reuse patterns (commercial average)",
    "fig8": "Figure 8: tag-array access distribution (commercial average)",
    "fig9": "Figure 9: data-array access distribution (commercial average)",
    "fig10": "Figure 10: performance (commercial average, normalized to "
    "uniform-shared)",
    "fig11": "Figure 11: multiprogrammed access distribution (mix average)",
    "fig12": "Figure 12: multiprogrammed performance (mix average, "
    "normalized to uniform-shared)",
    "energy": "Energy extension: dynamic energy per L2 access (oltp)",
    "smp-contrast": "Section 1 contrast: controlled replication on CMP vs "
    "SMP interconnect latencies (apache)",
    "scale": "Scaling: CMP-NuRAPID CR/ISC/CS on N-core mesh machines "
    "(throughput vs private, workload average)",
    "promotion": "Ablation: promotion policy (MIX1)",
    "tag-capacity": "Ablation: private tag capacity (oltp)",
    "replication-use": "Ablation: CR replication threshold (oltp)",
    "ranking": "Ablation: d-group preference staggering (MIX3)",
    "update-protocol": "Ablation: ISC vs update protocol (oltp)",
    "c-migration": "Ablation: C-block migration extension (oltp)",
    "capacity": "Sensitivity: total L2 capacity (oltp)",
    "core-scaling": "Sensitivity: 8-core CMP-NuRAPID (oltp model)",
    "bus-contention": "Sensitivity: bus contention for private caches (oltp)",
}


def _titles(out):
    """The report titles in ``out``: each line underlined with '='."""
    lines = out.splitlines()
    return [
        line for line, under in zip(lines, lines[1:])
        if line and under == "=" * len(line)
    ]


@pytest.fixture
def tiny_quick(monkeypatch):
    """``--quick`` at 300 + 300 accesses per core; returns that config."""
    from repro.experiments.runner import ExperimentConfig

    config = ExperimentConfig(warmup_per_core=300, measure_per_core=300)
    monkeypatch.setattr(ExperimentConfig, "quick", staticmethod(lambda: config))
    return config


class TestExperimentRegistry:
    """`repro experiment` is a lookup in one registry of experiments."""

    @pytest.mark.parametrize(
        "name", [*suite.EXPERIMENTS, *suite.GROUPS]
    )
    def test_every_name_runs_and_prints_its_reports(
        self, capsys, monkeypatch, tiny_quick, name
    ):
        from repro.experiments import parallel

        fills = []
        fill = parallel.run_cells

        def counted_fill(cells, *args, **kwargs):
            fills.append(list(cells))
            return fill(cells, *args, **kwargs)

        for module in (parallel, suite):
            monkeypatch.setattr(module, "run_cells", counted_fill)
        code, out = run_cli(capsys, "experiment", name, "--quick")
        assert code == 0
        assert _titles(out) == [
            TITLES[member] for member in suite.GROUPS.get(name, (name,))
        ]
        # One fill per name: the entries only read what it stored.
        assert fills == [suite.cells(suite.select(name))]

    def test_energy_fills_its_cells_through_the_cache(
        self, capsys, tmp_path, monkeypatch, tiny_quick
    ):
        from repro.experiments import parallel
        from repro.experiments.runner import StatsCache

        path = tmp_path / "energy.cache"
        argv = ("experiment", "energy", "--quick", "--jobs", "2",
                "--cache", str(path))
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert os.listdir(tmp_path) == ["energy.cache"]
        journal = StatsCache(path=str(path))
        cells = suite.EXPERIMENTS["energy"].cells
        assert len(cells) == len(journal) == 3
        assert all(cell.key(tiny_quick) in journal for cell in cells)

        def no_simulation(*args):
            raise AssertionError("a journaled cell was simulated again")

        monkeypatch.setattr(parallel, "_simulate_cell", no_simulation)
        assert run_cli(capsys, *argv) == (0, out)


class TestSupervisionFlags:
    """--cell-timeout/--max-retries plumbing and the chaos/quarantine
    subcommands."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "fig5", "--cell-timeout", "-1"],
            ["experiment", "fig5", "--max-retries", "-2"],
            ["bench", "--cell-timeout", "-0.5", "--quick"],
            ["bench", "--max-retries", "-1", "--quick"],
            ["experiment", "fig5", "--quick", "--jobs", "0"],
            ["bench", "--plan", "plans/ci-smoke.toml", "--quick",
             "--jobs", "0"],
            ["chaos", "--jobs", "0"],
        ],
    )
    def test_malformed_supervision_flags_exit_2(self, capsys, argv):
        code, out, err = run_cli_err(capsys, *argv)
        assert code == 2
        assert "Traceback" not in err

    def test_jobs_environment_variable_is_not_read(
        self, capsys, monkeypatch, tiny_quick
    ):
        argv = ("experiment", "fig6", "--quick", "--jobs", "1")
        code, out = run_cli(capsys, *argv)
        assert code == 0
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert run_cli(capsys, *argv) == (0, out)

    def test_parser_accepts_supervision_flags(self):
        args = build_parser().parse_args(
            ["experiment", "fig5", "--cell-timeout", "600",
             "--max-retries", "3"]
        )
        assert args.cell_timeout == 600.0 and args.max_retries == 3
        args = build_parser().parse_args(["bench", "--cell-timeout", "30"])
        assert args.cell_timeout == 30.0 and args.max_retries == 2
        # Defaults: a serial, unbounded experiment; two bench workers.
        args = build_parser().parse_args(["experiment", "fig5"])
        assert (args.jobs, args.cell_timeout, args.max_retries) == (1, 0.0, 2)
        assert build_parser().parse_args(["bench"]).jobs == 2

    def test_poisoned_experiment_exits_6_and_is_inspectable(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.experiments import parallel

        cache = tmp_path / "stats.cache"
        monkeypatch.setenv(parallel.CHAOS_POISON_ENV, "oltp/private")
        code, out, err = run_cli_err(
            capsys, "experiment", "fig5", "--quick", "--jobs", "2",
            "--cache", str(cache), "--max-retries", "0",
        )
        assert code == parallel.QUARANTINE_EXIT == 6
        assert "quarantined" in err and "oltp/private" in err
        monkeypatch.delenv(parallel.CHAOS_POISON_ENV)

        code, out = run_cli(capsys, "quarantine", str(cache))
        assert code == 0
        assert "oltp/private" in out and "RuntimeError" in out

        code, out = run_cli(capsys, "quarantine", str(cache), "--traceback")
        assert code == 0
        assert "Traceback" in out

    def test_quarantine_missing_journal_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli_err(
            capsys, "quarantine", str(tmp_path / "nope.cache")
        )
        assert code == 2
        assert "no quarantine journal" in err

    def test_chaos_list(self, capsys):
        code, out = run_cli(capsys, "chaos", "--list")
        assert code == 0
        assert "worker-kill" in out and "poison-cell" in out

    def test_chaos_unknown_scenario_exits_2(self, capsys):
        code, out, err = run_cli_err(
            capsys, "chaos", "--scenario", "meteor-strike"
        )
        assert code == 2
        assert "meteor-strike" in err

    def test_chaos_scenario_runs_and_traces(self, capsys, tmp_path):
        trace = tmp_path / "chaos.jsonl"
        code, out = run_cli(
            capsys, "chaos", "--scenario", "poison-cell",
            "--trace", str(trace),
        )
        assert code == 0
        assert "PASS" in out
        from repro.obs.events import read_jsonl

        kinds = {event.kind for event in read_jsonl(str(trace))}
        assert "quarantine" in kinds


class TestMeshCli:
    """The mesh NoC's CLI surface: the scale grid and a mesh run."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["scale", "--cores", "7"], "7"),
            (["table1", "--quick", "--cores", "7"], "scale"),
        ],
        ids=["scale-7", "table1"],
    )
    def test_scale_rejects_unsupported_core_count_exit_2(
        self, capsys, argv, named
    ):
        code, out, err = run_cli_err(capsys, "experiment", *argv)
        assert code == 2
        assert named in err

    def test_scaled_crash_window_replays_on_its_machine(self, tmp_path, capsys):
        """A 16-core mesh cell's crash window names its machine, and
        ``trace run`` replays it there instead of on four cores."""
        from repro.cpu.system import CmpSystem
        from repro.experiments.runner import build_design
        from repro.harness import (
            FaultSpec,
            HarnessConfig,
            InvariantViolation,
            run_events,
        )
        from repro.workloads.multithreaded import make_workload

        window = tmp_path / "scaled.window"
        system = CmpSystem(
            build_design("cmp-nurapid", bus_model="mesh", num_cores=16)
        )
        config = HarnessConfig(
            check_every=1,
            faults=(FaultSpec("flip-pointer", 400),),
            dump_path=str(window),
        )
        chunks = make_workload("oltp", num_cores=16).chunks(accesses_per_core=100)
        with pytest.raises(InvariantViolation) as caught:
            run_events(system, chunks, 0, config)
        assert caught.value.dump_path == str(window)
        code, out, err = run_cli_err(capsys, "trace", "run", str(window))
        assert code == 0, err
        assert "throughput" in out
        assert window.read_text().splitlines()[1] == (
            "# machine: cores=16 bus_model=mesh"
        )

    @pytest.mark.parametrize(
        "machine",
        [
            "cores=x bus_model=mesh",
            "cores=0 bus_model=mesh",
            "cores=16 bus_model=wishbone",
            "cores=16",
            "cores=16 bus_model=mesh design=private",
        ],
    )
    def test_trace_run_bad_machine_line_exits_2_one_line(
        self, tmp_path, capsys, machine
    ):
        trace = tmp_path / "bad.window"
        trace.write_text(f"# repro trace\n# machine: {machine}\n0 40 R\n")
        code, out, err = run_cli_err(capsys, "trace", "run", str(trace))
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert f"{trace}: line 2: malformed machine line" in err

    def test_resumed_scaled_cell_matches_the_uninterrupted_cell(
        self, tmp_path, capsys, monkeypatch
    ):
        """``repro run --resume`` rebuilds a 16-core mesh cell's stream
        from its checkpoint metadata: cuts inside warm-up and inside
        measurement both resume to the uninterrupted cell's numbers."""
        import shutil

        from repro.common.types import MissClass
        from repro.experiments import scale
        from repro.experiments.report import pct
        from repro.experiments.runner import ExperimentConfig
        from repro.harness import runner as harness_runner

        # 16 x 100 warm-up events, then 16 x 150 measured: cut at 1000
        # and 3000, where the cell's periodic checkpoints land.
        config = ExperimentConfig(warmup_per_core=100, measure_per_core=150)
        cuts = {1000: tmp_path / "warm-up.ck", 3000: tmp_path / "measure.ck"}
        save = harness_runner.save_checkpoint

        def save_and_keep_cuts(system, event_index, path, meta):
            save(system, event_index, path, meta)
            if event_index in cuts:
                shutil.copyfile(path, cuts[event_index])

        monkeypatch.setattr(harness_runner, "save_checkpoint", save_and_keep_cuts)
        stats = scale.run_scaled_cell(
            "cmp-nurapid", "oltp", 16, config, check_every=500,
            checkpoint_path=str(tmp_path / "cell.ck"), checkpoint_every=1000,
        )
        monkeypatch.undo()
        mix = [
            pct(stats.accesses.fraction(kind))
            for kind in (MissClass.HIT, MissClass.ROS, MissClass.RWS,
                         MissClass.CAPACITY)
        ]
        for cut in cuts.values():
            code, out, err = run_cli_err(capsys, "run", "--resume", str(cut))
            assert code == 0, err
            assert f"throughput (IPC proxy): {stats.throughput:.4f}" in out
            row = next(
                line.split() for line in out.splitlines()
                if line.startswith("cmp-nurapid ")
            )
            assert row[1:5] == mix, cut.name

    def test_scalar_run_accepts_mesh(self, capsys):
        code, out = run_cli(
            capsys, "run", "--design", "private", "--bus-model", "mesh",
            "--accesses", "1500", "--warmup", "0",
        )
        assert code == 0
        assert "throughput" in out
