"""Benchmark runner: four simulator sweeps, timed end to end and split by layer.

Suite mode runs every workload, each in a fresh single-threaded
subprocess, and prints every end-to-end metric by name with its unit::

    python bench/run.py [--seed N] [--out results.json]
    python bench/run.py --trace trace.json      # plus per-layer metrics

Each workload is measured for ``--seconds``: passes over all its cells
repeat until the time is up.  Single-workload mode measures one workload
and prints one JSON result as its last line::

    python bench/run.py --workload fig10-scalar --seed 1 --seconds 24 --trace 0

End-to-end times are *seconds at reference speed*.  Shared hosts drift
in speed by up to 2x over seconds to minutes, so untraced passes sample
the host's speed every ``SAMPLE_EVERY`` seconds by timing a fixed loop
(:func:`tracer.reference_work`), and each cell's time is scaled by
``tracer.REFERENCE_S`` over the speed sampled during that cell.  The
samples themselves are excluded from every time.  Each metric is the
median over the untraced passes.

``--trace`` takes 0 (end-to-end metrics), 1 (per-layer metrics, the
median over traced passes, which alternate with untraced ones and take
no samples) or a path (as 1, and the coarse spans are written there as
Chrome trace-event JSON for Perfetto).

Every cell's stats are reduced to a digest (sha256 of
``SimulationStats.fingerprint()`` as sorted-key JSON, 16 hex characters)
and checked against ``bench/expected.json``.  At a seed with no committed
digests, a workload is checked against its reference pass (the other
engine, or the atomic bus); cells with no reference are reported as
unverified.  ``--write-expected SEED`` commits digests for a seed.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported: one thread per run.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import repro
    from repro.common.rng import DEFAULT_SEED
except ImportError as error:
    sys.stderr.write(f"bench: cannot import the simulator from {ROOT / 'src'}: {error}\n")
    sys.exit(2)
if not Path(repro.__file__).resolve().is_relative_to(ROOT):
    sys.stderr.write(f"bench: imported repro from {repro.__file__}, outside {ROOT}\n")
    sys.exit(2)

import tracer
from workloads import WORKLOADS, Workload

EXPECTED_PATH = BENCH_DIR / "expected.json"
DEFAULT_SECONDS = 24.0
#: Seconds between reference samples of the host's speed in untraced passes.
SAMPLE_EVERY = 0.025
#: Scratch directories go in the checkout: the benchmark writes nowhere else.
SCRATCH_PREFIX = ".bench-tmp-"

#: End-to-end metric name -> unit.  ``fail_rate`` is reported in results
#: files and suite output; single-workload results carry it as
#: ``failed``/``attempted``.
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "accesses_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def digest(stats) -> str:
    payload = json.dumps(stats.fingerprint(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def load_expected() -> dict:
    if not EXPECTED_PATH.exists():
        return {"seeds": {}}
    return json.loads(EXPECTED_PATH.read_text())


def run_pass(function, seed: int, length, probe, scratch_root: str):
    """One pass in a fresh scratch directory; returns (result, wall_s)."""
    with tempfile.TemporaryDirectory(dir=scratch_root) as scratch, probe.install():
        start = probe.clock()
        with probe.span("workload"):
            result = function(seed, length, probe, scratch)
        wall = probe.clock() - start
    return result, wall


def sample_speed(samples: "list[float]") -> float:
    """The mean of the fastest three quarters of ``samples``: a sample that
    an interrupt or a preemption lands in reads slow, not the host."""
    return statistics.mean(sorted(samples)[: max(1, len(samples) * 3 // 4)])


def at_reference_speed(times: dict, samples: dict) -> float:
    """Per-cell ``times`` summed, each scaled by ``REFERENCE_S`` over the
    speed sampled during its cell (during the whole pass, if none was)."""
    everywhere = [s for cell_samples in samples.values() for s in cell_samples]
    return sum(
        seconds * tracer.REFERENCE_S / sample_speed(samples.get(cell) or everywhere)
        for cell, seconds in times.items()
    )


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            expected: dict, scratch_root: str) -> dict:
    """Run ``workload`` for ``seconds`` and check its outputs; returns its record.

    Passes repeat while the longest pass so far still fits before the
    deadline; at least one untraced pass runs, plus one traced pass when
    ``trace`` is set (traced and untraced passes alternate).
    """
    deadline = time.perf_counter() + seconds
    passes = []
    per_layer = []
    trace_export = None
    while True:
        traced = trace and sum(p["traced"] for p in passes) < sum(
            not p["traced"] for p in passes
        )
        probe = tracer.Tracer() if traced else tracer.Timer(SAMPLE_EVERY)
        began = time.perf_counter()
        result, wall = run_pass(workload.run, seed, workload.length, probe, scratch_root)
        if not passes:
            # Later passes start among the first one's uncollected garbage.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if traced:
            per_layer.append(tracer.per_layer_metrics(
                probe, wall, result.accesses, result.cpu_accesses
            ))
            if trace_export is None:
                trace_export = probe.export()
        passes.append({
            "traced": traced,
            "wall_s": wall,
            "setup_s": sum(probe.setup_s.values()),
            "samples": sum(len(s) for s in probe.reference_s.values()),
            "reference_wall_s": None if traced else at_reference_speed(
                probe.cell_s, probe.reference_s),
            "reference_setup_s": None if traced else at_reference_speed(
                probe.setup_s, probe.reference_s),
            "accesses": result.accesses,
            "elapsed_s": time.perf_counter() - began,
            "digests": {cell: digest(s) for cell, s in result.stats.items()},
            "errors": result.errors,
        })
        enough = any(not p["traced"] for p in passes) and (
            not trace or any(p["traced"] for p in passes)
        )
        longest = max(p["elapsed_s"] for p in passes)
        if enough and time.perf_counter() + longest > deadline:
            break

    target = expected["seeds"].get(str(seed), {}).get(workload.name)
    check = "committed digests"
    if target is None and workload.reference is not None:
        check = f"reference {workload.reference.__name__}"
        reference, _ = run_pass(
            workload.reference, seed, workload.length, tracer.Timer(), scratch_root
        )
        target = {cell: digest(s) for cell, s in reference.stats.items()}
    elif target is None:
        check = "none"

    attempted = failed = 0
    errors = {}
    for record in passes:
        for cell in workload.cells:
            attempted += 1
            if cell in record["errors"]:
                errors[cell] = record["errors"][cell]
                failed += 1
            elif target is not None and record["digests"].get(cell) != target.get(cell):
                errors[cell] = (
                    f"digest {record['digests'].get(cell)} != {target.get(cell)} ({check})"
                )
                failed += 1
            elif record["digests"].get(cell) != passes[0]["digests"].get(cell):
                errors[cell] = "digest differs between passes"
                failed += 1

    untraced = [p for p in passes if not p["traced"]]
    wall_s = statistics.median(p["reference_wall_s"] for p in untraced)
    setup_s = statistics.median(p["reference_setup_s"] for p in untraced)
    values = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "accesses_per_s": passes[0]["accesses"] / (wall_s - setup_s),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    metrics["fail_rate"] = {"value": failed / attempted, "unit": "ratio"}
    if per_layer:
        traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
        untraced_wall = statistics.median(p["wall_s"] for p in untraced)
        for key, unit in tracer.PER_LAYER_UNITS.items():
            if key == "trace.overhead_share":
                value = traced_wall / untraced_wall - 1
            else:
                value = statistics.median(m[key] for m in per_layer)
            metrics[key] = {"value": value, "unit": unit}
    record = {
        "workload": workload.name,
        "seed": seed,
        "length": list(workload.length),
        "check": check,
        "attempted": attempted,
        "failed": failed,
        "unverified": [] if target is not None else list(workload.cells),
        "errors": errors,
        "metrics": metrics,
        "digests": passes[0]["digests"],
        "passes": [
            {k: p[k] for k in ("traced", "wall_s", "setup_s", "samples", "reference_wall_s",
                               "reference_setup_s", "accesses")}
            for p in passes
        ],
    }
    if trace_export is not None:
        record["trace"] = trace_export
    return record


def environment() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
        "loadavg": list(os.getloadavg()),
    }


def append_run(path: Path, run: dict) -> None:
    """Append one run to a results file (created if missing)."""
    results = json.loads(path.read_text()) if path.exists() else {"runs": []}
    results["runs"].append(run)
    path.write_text(json.dumps(results, indent=1) + "\n")


def parse_trace(value: str) -> "tuple[bool, Path | None]":
    if value in ("0", "1"):
        return value == "1", None
    return True, Path(value)


def write_chrome_trace(path: Path, tracks: dict) -> None:
    path.write_text(json.dumps(tracer.chrome_trace(tracks)) + "\n")


def format_value(value: float) -> str:
    if float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.4g}"


def print_report(records: "dict[str, dict]", trace: bool) -> None:
    """Metric tables (one metric per row, one workload per column) and checks."""
    columns = list(records)
    tables = [("End to end", {**END_TO_END_UNITS, "fail_rate": "ratio"})]
    if trace:
        tables.append(("Per layer (traced passes)", tracer.PER_LAYER_UNITS))
    for title, units in tables:
        labels = [f"{m} ({unit})" for m, unit in units.items()]
        width = max(len(label) for label in labels)
        print(f"\n{title}")
        print(f"  {'metric':<{width}}" + "".join(f" {c:>16}" for c in columns))
        print(f"  {'-' * width}" + f" {'-' * 16}" * len(columns))
        for label, metric in zip(labels, units):
            print(f"  {label:<{width}}" + "".join(
                f" {format_value(records[w]['metrics'][metric]['value']):>16}"
                for w in columns
            ))
    print()
    for name, record in records.items():
        line = f"{name}: check {record['check']}, {record['failed']}/{record['attempted']} failed"
        if record["unverified"]:
            line += f", {len(record['unverified'])} cells unverified"
        print(line)


def single(args, trace: bool, chrome_path) -> int:
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=SCRATCH_PREFIX, dir=ROOT) as scratch_root:
        record = measure(workload, args.seed, args.seconds, trace, load_expected(),
                         scratch_root)
    if chrome_path is not None:
        write_chrome_trace(chrome_path, {workload.name: record["trace"]})
    if args.out is not None:
        # Traced records keep their trace, so suite mode can merge them.
        append_run(args.out, {
            "env": environment(), "seed": args.seed, "seconds": args.seconds,
            "workloads": {workload.name: record},
        })
    for index, p in enumerate(record["passes"], start=1):
        kind = "traced" if p["traced"] else "untraced"
        line = f"pass {index} ({kind}): wall {p['wall_s']:.3f} s, setup {p['setup_s']:.3f} s"
        if not p["traced"]:
            line += (f"; at reference speed {p['reference_wall_s']:.3f} s and "
                     f"{p['reference_setup_s']:.3f} s ({p['samples']} samples)")
        print(line)
    print(f"check: {record['check']}; {record['failed']}/{record['attempted']} cells failed")
    if record["unverified"]:
        print(f"unverified: {len(record['unverified'])} cells with no committed digest "
              f"or reference at seed {args.seed}: {', '.join(record['unverified'])}")
    for cell, message in record["errors"].items():
        print(f"failed: {cell}: {message}")
    names = tracer.PER_LAYER_UNITS if trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: record["metrics"][name] for name in names},
    }))
    return 0


def suite(args, trace: bool, chrome_path) -> int:
    records = {}
    with tempfile.TemporaryDirectory(prefix=SCRATCH_PREFIX, dir=ROOT) as scratch_root:
        for name in WORKLOADS:
            out = Path(scratch_root) / f"{name}.json"
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", repr(args.seconds),
                "--trace", "1" if trace else "0", "--out", str(out),
            ]
            print(f"== {name}", flush=True)
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            for line in child.stdout.splitlines()[:-1]:
                print(f"  {line}")
            if child.returncode != 0 or not out.exists():
                print(f"  {name}: exited with code {child.returncode}")
                return 1
            records[name] = json.loads(out.read_text())["runs"][0]["workloads"][name]

    print_report(records, trace)
    if chrome_path is not None:
        write_chrome_trace(chrome_path, {w: r["trace"] for w, r in records.items()})
    for record in records.values():
        record.pop("trace", None)
    if args.out is not None:
        append_run(args.out, {
            "env": environment(), "seed": args.seed, "seconds": args.seconds,
            "workloads": records,
        })
    return 0 if all(r["failed"] == 0 for r in records.values()) else 1


def write_expected(args) -> int:
    """Commit digests for every cell of every workload at one seed."""
    seed = args.write_expected
    expected = load_expected()
    if str(seed) in expected["seeds"] and not args.force:
        print(f"bench: {EXPECTED_PATH} already holds seed {seed}; "
              "pass --force to replace it", file=sys.stderr)
        return 1
    computed = {}
    with tempfile.TemporaryDirectory(prefix=SCRATCH_PREFIX, dir=ROOT) as scratch_root:
        for name, workload in WORKLOADS.items():
            runs = [workload.run] + ([workload.reference] if workload.reference else [])
            digests = []
            for function in runs:
                result, _ = run_pass(function, seed, workload.length, tracer.Timer(),
                                     scratch_root)
                for cell, message in result.errors.items():
                    print(f"bench: {name} {cell}: {message}", file=sys.stderr)
                if result.errors:
                    return 1
                digests.append({cell: digest(s) for cell, s in result.stats.items()})
            if digests[-1] != digests[0]:
                print(f"bench: {name} disagrees with its reference "
                      f"{workload.reference.__name__}; not writing", file=sys.stderr)
                return 1
            computed[name] = digests[0]
    expected["seeds"][str(seed)] = computed
    expected["digest"] = ("sha256 of SimulationStats.fingerprint() as sorted-key JSON, "
                          "first 16 hex characters")
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(len(d) for d in computed.values())} digests for seed "
          f"{seed} to {EXPECTED_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="measure one workload (default: the whole suite)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measure each workload this long (at least one pass)")
    parser.add_argument("--trace", default="0", metavar="0|1|PATH")
    parser.add_argument("--out", type=Path, help="append this run to a results file")
    parser.add_argument("--write-expected", type=int, metavar="SEED")
    parser.add_argument("--force", action="store_true",
                        help="let --write-expected replace a committed seed")
    args = parser.parse_args(argv)
    if args.write_expected is not None:
        return write_expected(args)
    trace, chrome_path = parse_trace(args.trace)
    if args.workload is not None:
        return single(args, trace, chrome_path)
    return suite(args, trace, chrome_path)


if __name__ == "__main__":
    sys.exit(main())
