"""Regenerate the golden fingerprint grid of 4-core paper cells.

Run from the repository root::

    PYTHONPATH=src python tests/data/cells/generate.py

The script runs a small but representative cell grid (multithreaded and
multiprogrammed workloads, replication-sensitive designs, both snooping
bus models, two seeds), one cell at a time through ``build_design``
plus ``run_multithreaded`` or ``run_mix``, and records every cell's
:meth:`~repro.common.stats.SimulationStats.fingerprint` in
``expected.json``.  ``test_cell_golden.py`` then asserts that the
current build still reproduces every committed fingerprint bit for bit.

A failure there means the model changed simulated behaviour since the
fixtures were committed.  Regenerate only for a legitimate model
change, and commit the refreshed ``expected.json`` with the change that
caused it.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.runner import (
    ExperimentConfig,
    build_design,
    run_mix,
    run_multithreaded,
)

HERE = Path(__file__).resolve().parent

#: (workload, design, multiprogrammed, bus_model) cells, run per seed.
CELLS = (
    ("oltp", "uniform-shared", False, "atomic"),
    ("oltp", "private", False, "atomic"),
    ("oltp", "cmp-nurapid", False, "eventq"),
    ("apache", "cmp-nurapid-cr", False, "eventq"),
    ("ocean", "cmp-nurapid-isc", False, "atomic"),
    ("MIX1", "private", True, "atomic"),
    ("MIX3", "cmp-nurapid", True, "eventq"),
)

#: warmup=0 cells: the cold-start trajectory, an all-miss prefix from
#: the stream's first event, is behaviour worth pinning across builds
#: too.
COLD_CELLS = (
    ("oltp", "cmp-nurapid", False, "atomic"),
    ("apache", "cmp-nurapid-cs", False, "atomic"),
    ("ocean", "cmp-nurapid-cr", False, "eventq"),
    ("MIX2", "cmp-nurapid-isc", True, "atomic"),
)

SEEDS = (42, 7)

ACCESSES = 600
WARMUP = 300


def cell_key(workload, design, multiprogrammed, bus_model, seed, cold=False):
    kind = "mix" if multiprogrammed else "mt"
    key = f"{workload}/{design}/{kind}/{bus_model}/seed={seed}"
    return key + "/cold" if cold else key


def cell_config(seed, cold=False):
    return ExperimentConfig(
        warmup_per_core=0 if cold else WARMUP,
        measure_per_core=ACCESSES,
        seed=seed,
    )


def cell_fingerprint(workload, design, multiprogrammed, bus_model, config):
    """One cell's statistics fingerprint, from a fresh design."""
    run = run_mix if multiprogrammed else run_multithreaded
    _, stats = run(build_design(design, bus_model=bus_model), workload, config)
    return stats.fingerprint()


def main() -> None:
    expected = {}
    for seed in SEEDS:
        for cold, cells in ((False, CELLS), (True, COLD_CELLS)):
            config = cell_config(seed, cold)
            for cell in cells:
                expected[cell_key(*cell, seed, cold=cold)] = (
                    cell_fingerprint(*cell, config)
                )
    out = HERE / "expected.json"
    out.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(expected)} fingerprints)")


if __name__ == "__main__":
    main()
