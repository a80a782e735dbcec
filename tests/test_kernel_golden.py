"""Golden batch-kernel grid: committed fingerprints must keep holding.

``tests/data/kernel/expected.json`` pins the batch engine's
fingerprint for a small cell grid spanning both workload families,
replication-sensitive designs, both bus models, and two seeds.  The
differential suite proves batch == scalar *within* a build; this
corpus anchors the shared trajectory *across* builds — a failure here
means simulated behaviour drifted since the fixtures were committed.
Either fix the regression or consciously regenerate with
``tests/data/kernel/generate.py`` alongside the model change.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.runner import ExperimentConfig
from repro.kernel import run_batch
from tests.data.kernel.generate import (
    ACCESSES,
    CELLS,
    COLD_CELLS,
    SEEDS,
    WARMUP,
    cell_key,
)

DATA = Path(__file__).resolve().parent / "data" / "kernel"
EXPECTED = json.loads((DATA / "expected.json").read_text())


def test_corpus_is_complete():
    """Every generator cell has a committed fingerprint, and only those."""
    assert EXPECTED, "expected.json is empty — regenerate the corpus"
    want = {
        cell_key(*cell, seed) for cell in CELLS for seed in SEEDS
    } | {
        cell_key(*cell, seed, cold=True)
        for cell in COLD_CELLS
        for seed in SEEDS
    }
    assert set(EXPECTED) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_grid_matches_golden_fingerprints(seed):
    config = ExperimentConfig(
        warmup_per_core=WARMUP, measure_per_core=ACCESSES, seed=seed
    )
    results = run_batch(list(CELLS), config)
    assert len(results) == len(CELLS)
    mismatches = []
    for (workload, design, mp, bus), stats in results.items():
        key = cell_key(workload, design, mp, bus, seed)
        if stats.fingerprint() != EXPECTED[key]:
            mismatches.append(key)
    assert not mismatches, f"fingerprint drift in: {', '.join(mismatches)}"


@pytest.mark.parametrize("seed", SEEDS)
def test_cold_grid_matches_golden_fingerprints(seed):
    """warmup=0 cells: the cold-start trajectory, pinned."""
    config = ExperimentConfig(
        warmup_per_core=0, measure_per_core=ACCESSES, seed=seed
    )
    results = run_batch(list(COLD_CELLS), config)
    assert len(results) == len(COLD_CELLS)
    mismatches = []
    for (workload, design, mp, bus), stats in results.items():
        key = cell_key(workload, design, mp, bus, seed, cold=True)
        if stats.fingerprint() != EXPECTED[key]:
            mismatches.append(key)
    assert not mismatches, f"fingerprint drift in: {', '.join(mismatches)}"
