"""The scale experiment: N-core mesh cells, checkpoints, and resume.

The acceptance bar for ``repro experiment scale`` is that the 8/16-core
CR/ISC/CS grid runs end-to-end *under the harness*: incremental
invariant checking, periodic checkpoints next to a persistent stats
cache, and bit-identical resume whether the rerun replays the stats
journal, the per-cell snapshots, or nothing at all.  These tests pin
that contract at CI-cheap sizes (8 cores, a few hundred accesses per
core) — the trajectory logic is size-independent.
"""

import multiprocessing
import os

import pytest

from repro.experiments import scale
from repro.experiments.runner import ExperimentConfig, StatsCache
from repro.harness import runner as harness_runner

#: 5,600 events per 8-core cell: one invariant check at the default
#: cadence (every 5,000 events), then the final snapshot.
CONFIG = ExperimentConfig(warmup_per_core=300, measure_per_core=400, seed=42)


def tiny_run(cache, jobs=1):
    return scale.run(CONFIG, cache=cache, cores=(8,), jobs=jobs)


def fingerprints(result):
    return {
        (count, workload, design): stats.fingerprint()
        for count, by_workload in result.stats.items()
        for workload, by_design in by_workload.items()
        for design, stats in by_design.items()
    }


def test_unsupported_core_count_rejected():
    with pytest.raises(ValueError, match="32"):
        scale.run(CONFIG, cores=(32,))


def test_scale_run_fills_grid_and_checkpoints(tmp_path):
    """One serial pass: full grid, relative table, one snapshot per cell."""
    journal = str(tmp_path / "stats.cache")
    result = tiny_run(StatsCache(journal))
    grid = fingerprints(result)
    assert len(grid) == len(scale.WORKLOADS) * len(scale.DESIGNS)
    for workload in scale.WORKLOADS:
        by_design = result.relative[8][workload]
        assert by_design[scale.BASELINE] == pytest.approx(1.0)
        assert set(by_design) == set(scale.DESIGNS)
    snapshots = os.listdir(f"{journal}.scale-ckpt")
    assert len(snapshots) == len(grid)
    assert f"oltp-{scale.BASELINE}-c8.ckpt" in snapshots
    rendered = result.report.render() + scale.render_full(result)
    for design in scale.DESIGNS:
        assert design in rendered


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched checker reaches the workers only through fork",
)
def test_pooled_cells_run_under_the_harness(tmp_path, monkeypatch):
    """``jobs`` > 1 runs each cell harnessed, as one job does: the
    workers check invariants and snapshot, and the stats are the
    serial run's."""
    log = tmp_path / "checks.log"
    check = harness_runner.check_system_incremental

    def logged_check(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        return check(*args, **kwargs)

    # Workers fork from this process, so they inherit the patch and
    # count their checks in the file.
    monkeypatch.setattr(harness_runner, "check_system_incremental", logged_check)
    journal = str(tmp_path / "stats.cache")
    pooled = fingerprints(tiny_run(StatsCache(journal), jobs=2))
    checkers = log.read_text(encoding="utf-8").split() if log.exists() else []
    # Each cell ran in a worker of its own, which checked at least once.
    assert len(set(checkers)) == len(pooled)
    assert str(os.getpid()) not in checkers
    assert len(os.listdir(f"{journal}.scale-ckpt")) == len(pooled)
    assert pooled == fingerprints(tiny_run(StatsCache()))


def test_rerun_replays_journal_without_resimulating(tmp_path, monkeypatch):
    """A cached rerun is bit-identical and never touches the simulator."""
    journal = str(tmp_path / "stats.cache")
    first = fingerprints(tiny_run(StatsCache(journal)))

    def boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("cache miss forced a re-simulation")

    monkeypatch.setattr(scale, "run_scaled_cell", boom)
    second = fingerprints(tiny_run(StatsCache(journal)))
    assert first == second


def test_lost_journal_resumes_from_snapshots(tmp_path):
    """Journal gone, snapshots intact: the rerun resumes bit-identically."""
    journal = str(tmp_path / "stats.cache")
    first = fingerprints(tiny_run(StatsCache(journal)))
    os.remove(journal)
    assert os.path.isdir(f"{journal}.scale-ckpt")
    second = fingerprints(tiny_run(StatsCache(journal)))
    assert first == second


def test_mismatched_snapshot_meta_starts_fresh(tmp_path):
    """A snapshot from a different cell configuration is ignored."""
    path = str(tmp_path / "cell.ckpt")
    scale.run_scaled_cell("private", "oltp", 8, CONFIG,
                          check_every=500, checkpoint_path=path,
                          checkpoint_every=1_000)
    other = ExperimentConfig(warmup_per_core=100, measure_per_core=200,
                             seed=7)
    resumed = scale.run_scaled_cell("private", "oltp", 8, other,
                                    check_every=500, checkpoint_path=path,
                                    checkpoint_every=1_000)
    fresh = scale.run_scaled_cell("private", "oltp", 8, other,
                                  check_every=500)
    assert resumed.fingerprint() == fresh.fingerprint()
