"""Command-line interface.

Drives the library without writing Python::

    python -m repro.cli compare --workload oltp
    python -m repro.cli run --design cmp-nurapid --mix MIX1 --chart
    python -m repro.cli run --design cmp-nurapid --check-invariants 100
    python -m repro.cli run --checkpoint run.ck --checkpoint-every 50000
    python -m repro.cli run --resume run.ck
    python -m repro.cli run --inject-fault flip-pointer@1000
    python -m repro.cli run --design private --bus-model mesh
    python -m repro.cli run --design private --inject-fault race-reorder@500
    python -m repro.cli run --trace out.jsonl --metrics m.json --metrics-every 10k
    python -m repro.cli run --profile
    python -m repro.cli experiment fig10 --quick
    python -m repro.cli experiment all --jobs 4 --cell-timeout 600
    python -m repro.cli chaos --list
    python -m repro.cli chaos --scenario worker-kill --scenario poison-cell
    python -m repro.cli quarantine stats.cache
    python -m repro.cli latency
    python -m repro.cli trace generate --workload apache --out trace.txt
    python -m repro.cli trace run trace.txt --design private
    python -m repro.cli trace export out.jsonl --out out.perfetto.json
    python -m repro.cli trace validate out.jsonl

Also installed as the ``repro-sim`` console script.

Exit codes: 0 success; 1 chaos scenario failed; 2 usage error
(malformed or contradictory arguments, unreadable files); 3 invariant
violation detected; 4 watchdog timeout; 5 a bench gate failed (a cell
regressed against its rolling baseline, a cell's timed repeats
simulated different stats, or a pooled sweep's results diverged from
the serial sweep's); 6 a sweep finished but quarantined
one or more poison cells (inspect with ``repro quarantine``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.common.params import SystemParams
from repro.common.rng import DEFAULT_SEED
from repro.common.types import MissClass
from repro.cpu.system import CmpSystem
from repro.experiments import ablations, energy_report, sensitivity, smp_contrast, suite
from repro.experiments.charts import BarGroup, StackedBar, render_grouped_bars, render_stacked_bars
from repro.experiments.report import format_table, pct
from repro.experiments.parallel import QUARANTINE_EXIT, QuarantinedCellError
from repro.experiments.runner import (
    BUS_MODELS,
    DESIGN_FACTORIES,
    ExperimentConfig,
    StatsCache,
    build_design,
    resolve_bus_model,
    run_meta,
    run_stream,
)
from repro.harness import (
    CheckpointError,
    HarnessConfig,
    InvariantViolation,
    WatchdogTimeout,
    load_checkpoint,
    run_events,
)
from repro.harness.faults import (
    FAULT_KINDS,
    RACE_FAULT_KINDS,
    FaultSpecError,
    parse_fault_specs,
)
from repro.latency import cacti, tables
from repro.obs.events import validate_jsonl
from repro.perflab.history import HistoryError
from repro.perflab.plan import PlanError
from repro.obs.metrics import MetricsCollector
from repro.obs.perfetto import export_jsonl
from repro.obs.profiler import Profiler
from repro.obs.tracer import DEFAULT_CAPACITY, Tracer
from repro.workloads import tracefile
from repro.workloads.multiprogrammed import MIXES, make_mix
from repro.workloads.multithreaded import MULTITHREADED, make_workload

_WORKLOAD_NAMES = tuple(spec.name for spec in MULTITHREADED)


class CliError(Exception):
    """A usage error reported as one line on stderr with exit code 2."""


def _workload_name(args) -> str:
    """The selected workload/mix label (default: oltp)."""
    return args.mix or args.workload or "oltp"


def _check_interval(text: str):
    """--check-invariants value: an event interval, or the word 'full'."""
    if text.strip().lower() == "full":
        return "full"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'full', got {text!r}"
        ) from None


def _count(text: str) -> int:
    """Parse an event count with an optional k/m suffix (``10k``, ``2m``)."""
    raw = text.strip().lower().replace("_", "")
    multiplier = 1
    if raw.endswith("k"):
        multiplier, raw = 1_000, raw[:-1]
    elif raw.endswith("m"):
        multiplier, raw = 1_000_000, raw[:-1]
    try:
        value = int(raw) * multiplier
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer with optional k/m suffix, got {text!r}"
        ) from None
    return value


def _build_obs(args):
    """Construct the run's (tracer, metrics, profiler) from its flags."""
    tracer = (
        Tracer(capacity=args.trace_buffer, sink=args.trace)
        if args.trace
        else None
    )
    metrics = (
        MetricsCollector(sample_every=args.metrics_every)
        if args.metrics
        else None
    )
    profiler = Profiler() if args.profile else None
    return tracer, metrics, profiler


def _finish_obs(tracer, metrics, profiler, args) -> None:
    """Export/close the observability outputs after a completed run."""
    if metrics is not None:
        series = metrics.finish()
        if args.metrics.endswith(".csv"):
            series.to_csv(args.metrics)
        else:
            series.to_json(args.metrics)
        print(f"metrics: {len(series)} sample(s) -> {args.metrics}")
    if tracer is not None:
        tracer.close()
        print(
            f"trace: {tracer.emitted} event(s) -> {args.trace} "
            f"(ring kept last {len(tracer.ring)})"
        )
    if profiler is not None:
        print()
        print(profiler.report())


def _fresh_system(args, design_name: str, tracer=None, metrics=None):
    """A new machine for ``design_name`` and its run's checkpoint
    metadata (:func:`run_meta`), from the workload flags."""
    bus_model = getattr(args, "bus_model", None)
    system = CmpSystem(
        build_design(design_name, bus_model=bus_model),
        tracer=tracer,
        metrics=metrics,
    )
    meta = run_meta(
        design_name,
        args.workload,
        mix=args.mix,
        seed=args.seed,
        warmup=args.warmup,
        accesses=args.accesses,
        bus_model=resolve_bus_model(bus_model),
    )
    return system, meta


def _validate_workload_args(args) -> None:
    """Reject malformed run lengths with a one-line usage error."""
    if getattr(args, "accesses", 0) < 0:
        raise CliError(f"--accesses must be >= 0, got {args.accesses}")
    if getattr(args, "warmup", 0) < 0:
        raise CliError(f"--warmup must be >= 0, got {args.warmup}")


def _validate_run_args(args) -> None:
    _validate_workload_args(args)
    if args.check_invariants != "full" and args.check_invariants < 0:
        raise CliError(
            f"--check-invariants must be >= 0 or 'full', "
            f"got {args.check_invariants}"
        )
    if args.checkpoint_every <= 0:
        raise CliError(
            f"--checkpoint-every must be positive, got {args.checkpoint_every}"
        )
    if args.timeout < 0:
        raise CliError(f"--timeout must be >= 0, got {args.timeout}")
    if args.resume and (args.workload or args.mix):
        raise CliError(
            "--resume restores the checkpoint's workload; "
            "drop --workload/--mix"
        )
    if args.resume and args.design:
        raise CliError(
            "--resume restores the checkpoint's design; drop --design"
        )
    if args.resume and args.bus_model:
        raise CliError(
            "--resume restores the checkpoint's interconnect backend; "
            "drop --bus-model"
        )
    race_kinds = [
        spec.split("@", 1)[0]
        for spec in (args.inject_fault or ())
        if spec.split("@", 1)[0] in RACE_FAULT_KINDS
    ]
    if race_kinds and not args.resume:
        if resolve_bus_model(args.bus_model) == "mesh":
            raise CliError(
                f"race faults ({', '.join(sorted(set(race_kinds)))}) perturb "
                "the bus's event schedule and are not supported on the "
                "mesh NoC (--bus-model mesh)"
            )


def _run_harnessed(args, tracer=None, metrics=None, profiler=None):
    """Run (or resume) under the harness settings the flags give (all
    off by default: a plain run); returns (design name, label, runner)."""
    if args.resume:
        checkpoint = load_checkpoint(args.resume)
        system, meta = checkpoint.system, dict(checkpoint.meta)
        if tracer is not None:
            system.attach_tracer(tracer)
        if metrics is not None:
            system.attach_metrics(metrics)
        start_index = checkpoint.event_index
    else:
        system, meta = _fresh_system(
            args, args.design or "cmp-nurapid", tracer, metrics
        )
        start_index = 0
    if profiler is not None:
        profiler.instrument(system)
    try:
        chunks, warmup_events = run_stream(meta)
    except KeyError as missing:
        raise CliError(
            f"checkpoint metadata is missing {missing}; was it written by "
            "this simulator?"
        ) from None
    check_full = args.check_invariants == "full"
    config = HarnessConfig(
        check_every=1 if check_full else args.check_invariants,
        check_full=check_full,
        checkpoint_path=args.checkpoint or args.resume,
        checkpoint_every=args.checkpoint_every,
        timeout_seconds=args.timeout,
        faults=parse_fault_specs(args.inject_fault or ()),
        seed=meta.get("seed", DEFAULT_SEED),
    )
    runner = run_events(
        system,
        chunks,
        warmup_events,
        config,
        start_index=start_index,
        meta=meta,
        stats_reset=bool(meta.get("stats_reset")),
        profiler=profiler,
    )
    label = meta.get("mix") or meta.get("workload") or "oltp"
    return meta.get("design", "cmp-nurapid"), label, runner


def _print_harness_summary(runner) -> None:
    config = runner.config
    notes = []
    if config.check_every:
        notes.append(f"invariants checked every {config.check_every} event(s)")
    if runner.injector is not None:
        applied = sum(1 for record in runner.injector.log if record.data["applied"])
        notes.append(
            f"faults applied: {applied}/{len(runner.injector.log)}"
        )
        for record in runner.injector.log:
            data = record.data
            status = "applied" if data["applied"] else "skipped"
            notes.append(
                f"  {data['fault']}@{data['at_index']} "
                f"[{status}] {data['description']}"
            )
    if config.checkpoint_path:
        notes.append(
            f"checkpoint: {config.checkpoint_path} "
            f"(every {config.checkpoint_every} events, "
            f"last at event {runner.event_index})"
        )
    if notes:
        print()
        print("harness:")
        for note in notes:
            print(f"  {note}")


def _stats_row(name: str, stats, baseline_throughput: "Optional[float]"):
    acc = stats.accesses
    rel = (
        f"{stats.throughput / baseline_throughput:.3f}"
        if baseline_throughput
        else "1.000"
    )
    return [
        name,
        pct(acc.fraction(MissClass.HIT)),
        pct(acc.fraction(MissClass.ROS)),
        pct(acc.fraction(MissClass.RWS)),
        pct(acc.fraction(MissClass.CAPACITY)),
        rel,
    ]


def cmd_run(args) -> int:
    _validate_run_args(args)
    tracer, metrics, profiler = _build_obs(args)
    try:
        design_name, label, runner = _run_harnessed(
            args, tracer=tracer, metrics=metrics, profiler=profiler
        )
        # One final snapshot so a finished run's checkpoint is current.
        runner.checkpoint()
        stats = runner.system.stats()
    except BaseException:
        # A failed run still flushes the trace sink: the recorded
        # prefix (and the harness's crash-window events) are the repro.
        if tracer is not None:
            tracer.close()
        raise
    print(f"design: {design_name}")
    print(f"workload: {label}")
    print()
    print(
        format_table(
            ["design", "hits", "ROS", "RWS", "capacity", "rel. perf"],
            [_stats_row(design_name, stats, None)],
        )
    )
    print()
    print(f"throughput (IPC proxy): {stats.throughput:.4f}")
    print(f"aggregate per-core IPC: {stats.aggregate_ipc:.4f}")
    dgroups = stats.dgroups
    if dgroups.total:
        dist = dgroups.distribution()
        print(
            "d-group accesses: "
            f"closest {pct(dist['closest'])}, farther {pct(dist['farther'])}, "
            f"miss {pct(dist['miss'])}"
        )
    if args.chart:
        bar = StackedBar(
            design_name,
            {
                "hit": stats.accesses.fraction(MissClass.HIT),
                "ros": stats.accesses.fraction(MissClass.ROS),
                "rws": stats.accesses.fraction(MissClass.RWS),
                "capacity": stats.accesses.fraction(MissClass.CAPACITY),
            },
        )
        print()
        print(render_stacked_bars([bar], baseline=0.0))
    _print_harness_summary(runner)
    _finish_obs(tracer, metrics, profiler, args)
    return 0


def cmd_compare(args) -> int:
    _validate_workload_args(args)
    rows = []
    chart_groups = {}
    baseline = None
    for name in args.designs:
        system, meta = _fresh_system(args, name)
        run_events(system, *run_stream(meta))
        stats = system.stats()
        if baseline is None:
            baseline = stats.throughput
        rows.append(_stats_row(name, stats, baseline))
        chart_groups[name] = stats.throughput / baseline if baseline else 0.0
    print(f"workload: {_workload_name(args)}")
    print()
    print(
        format_table(
            ["design", "hits", "ROS", "RWS", "capacity", "rel. perf"], rows
        )
    )
    if args.chart:
        print()
        print(
            render_grouped_bars([BarGroup(_workload_name(args), chart_groups)])
        )
    return 0


def _resolve_supervision(args) -> "tuple[float, int]":
    """Validate --cell-timeout/--max-retries (and their env vars)."""
    from repro.experiments import parallel

    try:
        return (
            parallel.resolve_cell_timeout(args.cell_timeout),
            parallel.resolve_max_retries(args.max_retries),
        )
    except ValueError as error:
        raise CliError(str(error)) from None


def cmd_experiment(args) -> int:
    from repro.experiments import parallel

    config = ExperimentConfig.quick() if args.quick else ExperimentConfig()
    name = args.name
    try:
        jobs = parallel.resolve_jobs(args.jobs)
    except ValueError as error:
        raise CliError(str(error)) from None
    cell_timeout, max_retries = _resolve_supervision(args)
    if name == "all":
        print(
            suite.run_suite(
                config, cache_path=args.cache, jobs=jobs,
                cell_timeout=cell_timeout, max_retries=max_retries,
            ).render()
        )
        return 0
    cache = StatsCache(path=args.cache or None)
    # Fill a figure's grid first, in one pool at --jobs > 1; its run_fn
    # below then reads every cell out of the shared cache.
    report = parallel.run_cells(
        parallel.experiment_cells(name), config, cache, jobs=jobs,
        cell_timeout=cell_timeout, max_retries=max_retries,
    )
    if report.retried or report.quarantined or report.fallback_reason:
        print(f"parallel: {report.summary()}", file=sys.stderr)
    report.raise_quarantined()
    if name == "scale":
        from repro.experiments import scale

        cores = tuple(args.cores) if args.cores else scale.DEFAULT_CORES
        for count in cores:
            if count not in scale.SUPPORTED_CORES:
                raise CliError(
                    f"--cores {count} is unsupported; the mesh scales to "
                    f"{', '.join(str(n) for n in scale.SUPPORTED_CORES)}"
                )
        result = scale.run(
            config, cache=cache, cores=cores, jobs=jobs,
            cell_timeout=cell_timeout, max_retries=max_retries,
        )
        print(result.report.render())
        print()
        print(scale.render_full(result))
        return 0
    if name == "energy":
        print(energy_report.run(config).report.render())
        return 0
    if name == "smp-contrast":
        print(smp_contrast.run(config).report.render())
        return 0
    if name in sensitivity.ALL_SENSITIVITIES:
        print(sensitivity.ALL_SENSITIVITIES[name](config).report.render())
        return 0
    if name in ablations.ALL_ABLATIONS:
        print(ablations.ALL_ABLATIONS[name](config).report.render())
        return 0
    if name in suite.EXPERIMENTS:
        run_fn, render_full = suite.EXPERIMENTS[name]
        if name == "table1":
            result = run_fn()
        else:
            result = run_fn(config, cache=cache)
        print(result.report.render())
        if render_full is not None:
            print()
            print(render_full(result))
        return 0
    known = sorted(
        set(suite.EXPERIMENTS)
        | set(ablations.ALL_ABLATIONS)
        | set(sensitivity.ALL_SENSITIVITIES)
        | {"energy", "smp-contrast", "scale", "all"}
    )
    print(f"unknown experiment {name!r}; choose from: {', '.join(known)}", file=sys.stderr)
    return 2


def cmd_bench(args) -> int:
    """Run a bench plan (``repro bench``) into a v2 BENCH record."""
    from repro import perflab

    cell_timeout, max_retries = _resolve_supervision(args)
    plan = perflab.load_plan(args.plan)
    out = args.out or perflab.default_output_path()
    try:
        record = perflab.run_plan(
            plan,
            quick=args.quick,
            jobs=args.jobs,
            cell_timeout=cell_timeout,
            max_retries=max_retries,
        )
    except perflab.RepeatDivergenceError as error:
        print(f"error: timed repeats diverged: {error}", file=sys.stderr)
        return perflab.REGRESSION_EXIT
    print(perflab.render_record(record))
    perflab.write_record(record, out)
    print(f"wrote {out}")
    sweep = record.get("sweep")
    if sweep is not None and not sweep["identical"]:
        print(
            "error: parallel sweep results diverged from serial: "
            + ", ".join(sweep["mismatches"]),
            file=sys.stderr,
        )
        return perflab.REGRESSION_EXIT
    return 0


def cmd_bench_report(args) -> int:
    """Trend engine: ``repro bench report`` over BENCH_*.json history."""
    from repro import perflab

    plan = perflab.load_plan(args.plan) if args.plan else None
    paths = perflab.discover_history(args.history or ["BENCH_*.json"])
    if not paths:
        raise CliError(
            "no BENCH history found; pass files or globs with --history"
        )
    runs = perflab.load_history(paths)
    report = perflab.write_report(runs, args.out_dir, plan=plan)
    print(
        f"trend report over {len(runs)} run(s) "
        f"({runs[0].run_id} .. {runs[-1].run_id}) -> {report.markdown_path}"
    )
    for verdict in report.verdicts:
        print(f"  {verdict.line()}")
    if report.regressions:
        names = ", ".join(v.label for v in report.regressions)
        print(
            f"error: {len(report.regressions)} cell(s) regressed against "
            f"their rolling baselines: {names}",
            file=sys.stderr,
        )
        return perflab.REGRESSION_EXIT
    return 0


def cmd_chaos(args) -> int:
    from repro.experiments import parallel
    from repro.harness import chaos

    if args.list:
        width = max(len(name) for name in chaos.SCENARIOS)
        for name, (description, _) in chaos.SCENARIOS.items():
            print(f"{name:<{width}}  {description}")
        return 0
    try:
        jobs = max(parallel.resolve_jobs(args.jobs), 2)
    except ValueError as error:
        raise CliError(str(error)) from None
    tracer = Tracer(capacity=args.trace_buffer, sink=args.trace) if args.trace else None
    try:
        report = chaos.run_chaos(
            names=args.scenario or None, jobs=jobs, tracer=tracer, out=print
        )
    except ValueError as error:
        raise CliError(str(error)) from None
    finally:
        if tracer is not None:
            tracer.close()
            print(f"trace: {tracer.emitted} supervision event(s) -> {args.trace}")
    print()
    print(report.render().splitlines()[-1])
    return 0 if report.passed else 1


def cmd_quarantine(args) -> int:
    from repro.experiments import parallel

    path = args.path
    if not path.endswith(".quarantine"):
        path = parallel.quarantine_path(path)
    if not os.path.exists(path):
        raise CliError(f"no quarantine journal at {path}")
    records = parallel.load_quarantine(path)
    if not records:
        print(f"{path}: no quarantined cells")
        return 0
    for record in records:
        label = record.get("label", "?")
        attempts = record.get("attempts", "?")
        print(f"{label}: quarantined after {attempts} attempt(s)")
        for failure in record.get("failures", ()):
            print(f"  [{failure.get('kind', '?')}] {failure.get('detail', '')}")
            if args.traceback and failure.get("traceback"):
                for line in failure["traceback"].rstrip().splitlines():
                    print(f"    {line}")
    print(f"{len(records)} quarantined cell(s) in {path}")
    return 0


def cmd_latency(args) -> int:
    print(
        format_table(
            ["component", "Table 1 (cycles)"],
            [(row.component, row.latency) for row in tables.table1_rows()],
        )
    )
    print()
    derived = cacti.derive_table1()
    print(
        format_table(
            ["structure", "re-derived (cycles)"],
            sorted(derived.items()),
        )
    )
    return 0


def cmd_trace_generate(args) -> int:
    _validate_workload_args(args)
    if args.mix:
        workload = make_mix(args.mix, seed=args.seed)
    else:
        workload = make_workload(args.workload or "oltp", seed=args.seed)
    events = workload.events(accesses_per_core=args.accesses)
    count = tracefile.write_trace(events, args.out)
    print(f"wrote {count} events to {args.out}")
    return 0


def cmd_trace_run(args) -> int:
    """Replay a trace file on the machine its header names.

    Without a machine line (``trace generate``'s output) the trace runs
    on the default 4-core machine and ``REPRO_BUS_MODEL``'s backend.
    """
    try:
        machine = tracefile.read_machine(args.trace, resolve_bus_model)
        num_cores, bus_model = machine or (None, None)
        try:
            design = build_design(
                args.design, bus_model=bus_model, num_cores=num_cores
            )
        except ValueError as error:
            raise CliError(f"{args.trace}: {error}") from None
        system = CmpSystem(
            design, None if machine is None else SystemParams(num_cores=num_cores)
        )
        system.run(tracefile.read_trace(args.trace, system.params.num_cores))
    except tracefile.TraceFormatError as error:
        raise CliError(f"{args.trace}: {error}") from None
    stats = system.stats()
    print(
        format_table(
            ["design", "hits", "ROS", "RWS", "capacity", "rel. perf"],
            [_stats_row(args.design, stats, None)],
        )
    )
    print(f"throughput (IPC proxy): {stats.throughput:.4f}")
    return 0


def cmd_trace_export(args) -> int:
    if args.format != "perfetto":
        raise CliError(f"unknown export format {args.format!r}")
    try:
        payload = export_jsonl(args.trace, args.out)
    except ValueError as error:
        raise CliError(str(error)) from None
    count = sum(1 for entry in payload["traceEvents"] if entry.get("ph") != "M")
    print(f"wrote {count} trace event(s) to {args.out} (open in ui.perfetto.dev)")
    return 0


def cmd_trace_validate(args) -> int:
    count, errors = validate_jsonl(args.trace)
    if errors:
        for problem in errors:
            print(f"{args.trace}: {problem}", file=sys.stderr)
        print(
            f"{args.trace}: {len(errors)} problem(s) in {count} record(s)",
            file=sys.stderr,
        )
        return 2
    print(f"{args.trace}: {count} record(s), all valid")
    return 0


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace",
        metavar="PATH",
        help="stream every structured event to PATH as JSONL",
    )
    group.add_argument(
        "--trace-buffer",
        type=_count,
        default=DEFAULT_CAPACITY,
        metavar="N",
        help=f"tracer ring-buffer capacity (default: {DEFAULT_CAPACITY})",
    )
    group.add_argument(
        "--metrics",
        metavar="PATH",
        help="write interval metric samples to PATH "
        "(CSV if it ends in .csv, JSON otherwise)",
    )
    group.add_argument(
        "--metrics-every",
        type=_count,
        default=10_000,
        metavar="N",
        help="events between metric samples; k/m suffixes ok "
        "(default: 10k)",
    )
    group.add_argument(
        "--profile",
        action="store_true",
        help="time the simulator's hot paths and print a report",
    )


def _add_supervision_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("worker supervision")
    group.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per sweep cell attempt; a worker past "
        "it is SIGKILLed and the cell retried (default: the "
        "REPRO_CELL_TIMEOUT environment variable, else 0 = unbounded)",
    )
    group.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="extra attempts per failing sweep cell before it is "
        "quarantined and skipped (default: the REPRO_MAX_RETRIES "
        "environment variable, else 2)",
    )


def _add_workload_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    # No argparse default: subparser mutually-exclusive groups do not
    # enforce exclusivity against defaulted members (CPython quirk);
    # the default is resolved in _workload_name instead.
    group.add_argument(
        "--workload",
        choices=_WORKLOAD_NAMES,
        help="Table 3 multithreaded workload (default: oltp)",
    )
    group.add_argument(
        "--mix", choices=sorted(MIXES), help="Table 2 multiprogrammed mix"
    )
    parser.add_argument(
        "--accesses",
        type=int,
        default=60_000,
        help="measured accesses per core (default: 60000)",
    )
    parser.add_argument(
        "--warmup",
        type=int,
        default=60_000,
        help="warm-up accesses per core (default: 60000)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="CMP-NuRAPID reproduction (ISCA 2005) simulator CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one design on one workload")
    # No argparse default: --resume restores the design from the
    # checkpoint, and a defaulted --design would be indistinguishable
    # from an explicit (conflicting) one.  cmd_run falls back to
    # cmp-nurapid when neither is given.
    run_parser.add_argument("--design", choices=sorted(DESIGN_FACTORIES))
    # No argparse default: None falls back to the REPRO_BUS_MODEL
    # environment variable and then "atomic" (resolve_bus_model), and
    # --resume must be able to tell "explicit" from "unset".
    run_parser.add_argument(
        "--bus-model",
        choices=BUS_MODELS,
        help="interconnect backend: atomic (default; the paper's snoopy "
        "bus) or mesh (2D mesh NoC with directory coherence)",
    )
    _add_workload_options(run_parser)
    _add_obs_options(run_parser)
    run_parser.add_argument("--chart", action="store_true")
    harness_group = run_parser.add_argument_group("robustness harness")
    harness_group.add_argument(
        "--check-invariants",
        type=_check_interval,
        default=0,
        metavar="N|full",
        help="run the model invariant checker every N events "
        "(1 = paranoid mode, 0 = off; checks rescan only entries "
        "touched since the last check).  'full' checks every event "
        "with complete state rescans",
    )
    harness_group.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="periodically snapshot full simulator state to PATH",
    )
    harness_group.add_argument(
        "--checkpoint-every",
        type=int,
        default=50_000,
        metavar="K",
        help="events between checkpoints (default: 50000)",
    )
    harness_group.add_argument(
        "--resume",
        metavar="PATH",
        help="resume a killed run from its checkpoint (bit-identical)",
    )
    harness_group.add_argument(
        "--inject-fault",
        action="append",
        metavar="KIND@INDEX",
        help="inject a fault, e.g. flip-pointer@1000 (repeatable); "
        f"kinds: {', '.join(FAULT_KINDS)}",
    )
    harness_group.add_argument(
        "--timeout",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="wall-clock watchdog budget (0 = off)",
    )
    run_parser.set_defaults(func=cmd_run)

    compare_parser = sub.add_parser(
        "compare", help="run several designs on one workload"
    )
    compare_parser.add_argument(
        "--designs",
        nargs="+",
        choices=sorted(DESIGN_FACTORIES),
        default=[
            "uniform-shared",
            "non-uniform-shared",
            "private",
            "ideal",
            "cmp-nurapid",
        ],
    )
    _add_workload_options(compare_parser)
    compare_parser.add_argument("--chart", action="store_true")
    compare_parser.set_defaults(func=cmd_compare)

    experiment_parser = sub.add_parser(
        "experiment", help="reproduce a table/figure/ablation"
    )
    experiment_parser.add_argument(
        "name",
        help="table1, fig5..fig12, an ablation name, 'energy', "
        "'scale', or 'all'",
    )
    experiment_parser.add_argument("--quick", action="store_true")
    experiment_parser.add_argument(
        "--cores",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="core counts for 'experiment scale' (default: 8 16; "
        "64 is supported but slow); each N-core cell runs on the "
        "2D-mesh NoC with directory coherence",
    )
    experiment_parser.add_argument(
        "--cache",
        metavar="PATH",
        help="persist per-(workload, design) stats to PATH so an "
        "interrupted sweep resumes instead of re-simulating",
    )
    experiment_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="fan uncached (workload, design) cells across N worker "
        "processes (default: the REPRO_JOBS environment variable, "
        "else 1); results are bit-identical to a serial run",
    )
    _add_supervision_options(experiment_parser)
    experiment_parser.set_defaults(func=cmd_experiment)

    bench_parser = sub.add_parser(
        "bench",
        help="run a declarative bench plan (reference-speed throughput "
        "and miss rate per cell, optional sweep leg) into a v2 "
        "BENCH_<date>.json record; 'bench report' renders trend reports "
        "over BENCH_*.json history",
    )
    bench_parser.add_argument(
        "--plan",
        default=os.path.join("plans", "default.toml"),
        metavar="FILE",
        help="TOML bench plan to run (default: "
        "plans/default.toml in the current directory)",
    )
    bench_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="workers for the plan's sweep leg (default: REPRO_JOBS, "
        "floored at 2); cells are always timed one at a time",
    )
    bench_parser.add_argument(
        "--quick",
        action="store_true",
        help="shorter runs sized for CI smoke jobs",
    )
    bench_parser.add_argument(
        "--out",
        metavar="PATH",
        help="result JSON path (default: BENCH_<date>.json)",
    )
    _add_supervision_options(bench_parser)
    bench_parser.set_defaults(func=cmd_bench)
    bench_sub = bench_parser.add_subparsers(dest="bench_command")
    report_parser = bench_sub.add_parser(
        "report",
        help="render a text trend report (trend.md) over accumulated "
        "BENCH_*.json files and gate the latest run per cell (exit 5 "
        "names regressed cells)",
    )
    report_parser.add_argument(
        "--history",
        nargs="+",
        metavar="PATH",
        help="BENCH json files or globs "
        "(default: BENCH_*.json in the current directory)",
    )
    report_parser.add_argument(
        "--out-dir",
        default=os.path.join("benchmarks", "reports"),
        metavar="DIR",
        help="where trend.md goes (default: benchmarks/reports)",
    )
    report_parser.add_argument(
        "--plan",
        metavar="FILE",
        help="bench plan supplying per-cell gate thresholds "
        "(default: 20%% for every cell)",
    )
    report_parser.set_defaults(func=cmd_bench_report)

    chaos_parser = sub.add_parser(
        "chaos",
        help="inject orchestration faults (worker kills, hangs, journal "
        "corruption, poison cells) into small sweeps and assert they "
        "converge bit-identically",
    )
    chaos_parser.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="run one scenario (repeatable; default: all). "
        "See --list for names",
    )
    chaos_parser.add_argument(
        "--list",
        action="store_true",
        help="list the chaos scenarios and exit",
    )
    chaos_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="workers per scenario sweep (default: REPRO_JOBS, else 2; "
        "floored at 2 so faults race a healthy worker)",
    )
    chaos_parser.add_argument(
        "--trace",
        metavar="PATH",
        help="stream the supervision events (retry, worker-death, "
        "quarantine) to PATH as JSONL for 'trace export'",
    )
    chaos_parser.add_argument(
        "--trace-buffer",
        type=_count,
        default=DEFAULT_CAPACITY,
        metavar="N",
        help=f"tracer ring-buffer capacity (default: {DEFAULT_CAPACITY})",
    )
    chaos_parser.set_defaults(func=cmd_chaos)

    quarantine_parser = sub.add_parser(
        "quarantine",
        help="inspect the poison-cell journal a sweep left next to its "
        "stats cache",
    )
    quarantine_parser.add_argument(
        "path",
        help="stats-cache path (the .quarantine journal is derived) or "
        "the journal itself",
    )
    quarantine_parser.add_argument(
        "--traceback",
        action="store_true",
        help="print each failure's full worker traceback",
    )
    quarantine_parser.set_defaults(func=cmd_quarantine)

    latency_parser = sub.add_parser("latency", help="print Table 1 latencies")
    latency_parser.set_defaults(func=cmd_latency)

    trace_parser = sub.add_parser("trace", help="trace-file utilities")
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    generate = trace_sub.add_parser("generate", help="write a synthetic trace")
    _add_workload_options(generate)
    generate.add_argument("--out", required=True)
    generate.set_defaults(func=cmd_trace_generate)
    run_trace = trace_sub.add_parser("run", help="run a trace file")
    run_trace.add_argument("trace")
    run_trace.add_argument(
        "--design", choices=sorted(DESIGN_FACTORIES), default="cmp-nurapid"
    )
    run_trace.set_defaults(func=cmd_trace_run)
    export = trace_sub.add_parser(
        "export", help="convert a recorded JSONL trace for a viewer"
    )
    export.add_argument("trace", help="JSONL trace recorded with run --trace")
    export.add_argument("--out", required=True)
    export.add_argument(
        "--format",
        choices=("perfetto",),
        default="perfetto",
        help="output format (perfetto = Chrome trace-event JSON)",
    )
    export.set_defaults(func=cmd_trace_export)
    validate = trace_sub.add_parser(
        "validate", help="check a JSONL trace against the event schema"
    )
    validate.add_argument("trace")
    validate.set_defaults(func=cmd_trace_validate)

    return parser


def main(argv: "Optional[Sequence[str]]" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as violation:
        print(f"invariant violation: {violation}", file=sys.stderr)
        if violation.dump_path:
            print(
                f"replayable event window: {violation.dump_path}",
                file=sys.stderr,
            )
        return 3
    except WatchdogTimeout as timeout:
        print(f"watchdog timeout: {timeout}", file=sys.stderr)
        if timeout.dump_path:
            print(
                f"replayable event window: {timeout.dump_path}",
                file=sys.stderr,
            )
        return 4
    except QuarantinedCellError as error:
        print(f"error: {error}", file=sys.stderr)
        return QUARANTINE_EXIT
    except (CliError, FaultSpecError, CheckpointError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (PlanError, HistoryError) as error:
        # A malformed plan or unreadable BENCH history is a usage
        # error, same as any other bad input file.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        # Unreadable trace/checkpoint/output paths are usage errors,
        # not tracebacks.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
