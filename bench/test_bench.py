"""Checks of the benchmark itself, at tiny run lengths: ``python -m pytest bench/``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run as bench  # noqa: E402 - also puts the simulator on the path
import tracer  # noqa: E402
from repro.obs.perfetto import validate_chrome_trace  # noqa: E402

SEED = 11
#: Per-core (warm-up, measured) accesses; scale16-mesh's 16 x 320 events
#: reach one invariant check.
TINY = {
    "fig10-scalar": (100, 200),
    "fig10-batch": (100, 200),
    "mix-cold-eventq": (0, 300),
    "scale16-mesh": (0, 320),
}
NO_DIGESTS = {"seeds": {}}
#: Every per-layer self-time metric; with the unattributed time they cover the wall.
LAYER_SECONDS = (
    "workloads.gen_s", "cpu.init_s", "cpu.run_self_s", "caches.l2_self_s",
    "core.nurapid_self_s", "interconnect.bus_self_s", "interconnect.crossbar_self_s",
    "interconnect.eventq_self_s", "interconnect.mesh_self_s",
    "coherence.directory_self_s", "kernel.init_s", "kernel.tape_s", "kernel.run_self_s",
    "harness.check_s", "harness.checkpoint_s", "experiments.build_s",
    "experiments.cache_insert_s",
)


def tiny(name: str):
    return dataclasses.replace(bench.WORKLOADS[name], length=TINY[name])


@pytest.fixture(scope="module")
def scratch(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("scratch"))


@pytest.fixture(scope="module")
def untraced(scratch):
    return {name: bench.measure(tiny(name), SEED, 0, False, NO_DIGESTS, scratch)
            for name in TINY}


@pytest.fixture(scope="module")
def traced(scratch):
    return {name: bench.measure(tiny(name), SEED, 0, True, NO_DIGESTS, scratch)
            for name in TINY}


def test_report_prints_every_end_to_end_metric_with_its_unit(untraced, capsys):
    bench.print_report(untraced, trace=False)
    out = capsys.readouterr().out
    for metric, unit in {**bench.END_TO_END_UNITS, "fail_rate": "ratio"}.items():
        assert f"{metric} ({unit})" in out
    for name in TINY:
        assert name in out


def test_every_cell_is_checked_and_none_fails(untraced):
    assert set(untraced) == set(bench.WORKLOADS)
    for name, record in untraced.items():
        assert record["metrics"]["fail_rate"]["value"] == 0, record["errors"]
        assert record["attempted"] >= len(bench.WORKLOADS[name].cells)
    # No committed digests: the two engines and the two buses check each
    # other, and the mesh cells, with no second implementation, say so.
    assert untraced["fig10-scalar"]["check"] == "reference fig10_batch_pass"
    assert untraced["mix-cold-eventq"]["check"] == "reference mix_cold_atomic_pass"
    assert untraced["scale16-mesh"]["unverified"] == list(bench.WORKLOADS["scale16-mesh"].cells)


def test_corrupted_digest_fails_cells(untraced, scratch):
    digests = dict(untraced["fig10-scalar"]["digests"])
    corrupted = next(iter(digests))
    digests[corrupted] = "0" * 16
    expected = {"seeds": {str(SEED): {"fig10-scalar": digests}}}
    record = bench.measure(tiny("fig10-scalar"), SEED, 0, False, expected, scratch)
    assert record["check"] == "committed digests"
    assert record["failed"] == 1 and list(record["errors"]) == [corrupted]


def test_layers_and_unattributed_time_cover_the_traced_wall(traced):
    for name, record in traced.items():
        metrics = {k: v["value"] for k, v in record["metrics"].items()}
        assert set(tracer.PER_LAYER_UNITS) <= set(metrics)
        wall = next(p["wall_s"] for p in record["passes"] if p["traced"])
        covered = sum(metrics[m] for m in LAYER_SECONDS)
        covered += metrics["trace.unattributed_share"] * wall
        assert covered == pytest.approx(wall, rel=0.01), name
        assert metrics["trace.unattributed_share"] <= 0.05, name


def test_chrome_trace_is_valid_and_every_parent_exists(traced):
    payload = tracer.chrome_trace({name: r["trace"] for name, r in traced.items()})
    assert validate_chrome_trace(payload) == []
    spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    assert {s["name"] for s in spans} >= {"workload", "cell", "build", "system", "run",
                                          "generate", "tape", "kernel_run", "check",
                                          "checkpoint", "cache_insert"}
    assert all(s["args"]["layers"] for s in spans if s["name"] == "cell")
    ids = {(s["tid"], s["args"]["id"]) for s in spans}
    for span in spans:
        parent = span["args"]["parent"]
        assert parent is None or (span["tid"], parent) in ids


def test_install_restores_every_patched_name():
    import repro.experiments.runner as runner
    import repro.experiments.scale as scale
    from repro.core.nurapid import NurapidCache
    from repro.interconnect.mesh import MeshNoC

    before = (runner.CmpSystem, scale.build_design, runner.make_mix,
              NurapidCache.access, MeshNoC.__dict__.get("issue"))
    with tracer.Tracer().install():
        assert runner.CmpSystem is not before[0]
    after = (runner.CmpSystem, scale.build_design, runner.make_mix,
             NurapidCache.access, MeshNoC.__dict__.get("issue"))
    assert after == before


def test_compare_refuses_runs_that_cannot_be_paired():
    def results(seed=1, seconds=24.0, length=(10, 10), runs=2):
        run = {"seed": seed, "seconds": seconds,
               "workloads": {"w": {"length": list(length), "metrics": {}}}}
        return {"runs": [run] * runs}

    assert compare.check_comparable(results(), results()) is None
    for other in (results(seed=2), results(seconds=12.0), results(length=(0, 20)),
                  results(runs=3)):
        assert compare.check_comparable(results(), other) is not None


def test_single_workload_prints_the_result_line_last():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "scale16-mesh",
         "--seed", str(bench.DEFAULT_SEED), "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == bench.END_TO_END_UNITS
    assert "check: committed digests" in done.stdout


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fig10-scalar", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
