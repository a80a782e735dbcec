"""Golden cell grid: committed fingerprints must keep holding.

``tests/data/cells/expected.json`` pins the statistics fingerprint of a
small grid of 4-core paper cells spanning both workload families,
replication-sensitive designs, both snooping bus models, two seeds and
warmup-0 cold cells.  The differential suites prove backends and
execution paths agree *within* a build; this corpus anchors the
trajectory *across* builds — a failure here means simulated behaviour
drifted since the fixtures were committed.  Either fix the regression
or consciously regenerate with ``tests/data/cells/generate.py``
alongside the model change.
"""

import json
from pathlib import Path

import pytest

from tests.data.cells.generate import (
    CELLS,
    COLD_CELLS,
    SEEDS,
    cell_config,
    cell_fingerprint,
    cell_key,
)

DATA = Path(__file__).resolve().parent / "data" / "cells"
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


def _drifted(cells, seed, cold):
    config = cell_config(seed, cold)
    return [
        cell_key(*cell, seed, cold=cold)
        for cell in cells
        if cell_fingerprint(*cell, config)
        != EXPECTED[cell_key(*cell, seed, cold=cold)]
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_grid_matches_golden_fingerprints(seed):
    mismatches = _drifted(CELLS, seed, cold=False)
    assert not mismatches, f"fingerprint drift in: {', '.join(mismatches)}"


@pytest.mark.parametrize("seed", SEEDS)
def test_cold_grid_matches_golden_fingerprints(seed):
    """warmup=0 cells: the cold-start trajectory, pinned."""
    mismatches = _drifted(COLD_CELLS, seed, cold=True)
    assert not mismatches, f"fingerprint drift in: {', '.join(mismatches)}"
