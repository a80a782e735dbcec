"""Regenerate the golden batch-kernel fingerprint grid.

Run from the repository root::

    PYTHONPATH=src python tests/data/kernel/generate.py

The script runs a small but representative cell grid (multithreaded and
multiprogrammed workloads, replication-sensitive designs, both bus
models, two seeds) through :func:`repro.kernel.run_batch` in ONE batch
per seed and records every cell's
:meth:`~repro.common.stats.SimulationStats.fingerprint` in
``expected.json``.  ``test_kernel_golden.py`` then asserts that the
current build's batch engine still reproduces every committed
fingerprint bit for bit.

Because the differential suite separately proves batch == scalar, this
corpus pins the *shared* trajectory: a failure here means the model (or
the kernel) changed simulated behaviour since the fixtures were
committed.  Regenerate only for a legitimate model change, and commit
the refreshed ``expected.json`` with the change that caused it.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.runner import ExperimentConfig
from repro.kernel import run_batch

HERE = Path(__file__).resolve().parent

#: (workload, design, multiprogrammed, bus_model) lanes, one batch/seed.
CELLS = (
    ("oltp", "uniform-shared", False, "atomic"),
    ("oltp", "private", False, "atomic"),
    ("oltp", "cmp-nurapid", False, "eventq"),
    ("apache", "cmp-nurapid-cr", False, "eventq"),
    ("ocean", "cmp-nurapid-isc", False, "atomic"),
    ("MIX1", "private", True, "atomic"),
    ("MIX3", "cmp-nurapid", True, "eventq"),
)

#: warmup=0 lanes: the cold-start trajectory, an all-miss prefix
#: replayed from the tape's first event, is behaviour worth pinning
#: across builds too.
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


def main() -> None:
    expected = {}
    for seed in SEEDS:
        config = ExperimentConfig(
            warmup_per_core=WARMUP, measure_per_core=ACCESSES, seed=seed
        )
        results = run_batch(list(CELLS), config)
        for (workload, design, mp, bus), stats in sorted(results.items()):
            expected[cell_key(workload, design, mp, bus, seed)] = (
                stats.fingerprint()
            )
        cold_config = ExperimentConfig(
            warmup_per_core=0, measure_per_core=ACCESSES, seed=seed
        )
        results = run_batch(list(COLD_CELLS), cold_config)
        for (workload, design, mp, bus), stats in sorted(results.items()):
            expected[cell_key(workload, design, mp, bus, seed, cold=True)] = (
                stats.fingerprint()
            )
    out = HERE / "expected.json"
    out.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(expected)} fingerprints)")


if __name__ == "__main__":
    main()
