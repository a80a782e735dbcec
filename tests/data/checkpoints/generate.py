"""Regenerate the golden checkpoint corpus.

Run from the repository root::

    PYTHONPATH=src python tests/data/checkpoints/generate.py

For each (design, bus model) pair below this script runs a short
deterministic workload prefix on a small-geometry system (state dicts
carry their construction params, so a snapshot of a small system
restores faithfully onto a default-built design), writes the cut as a
``<design>-<bus model>.v2.ck`` fixture, finishes the run
uninterrupted, and records the final
:meth:`~repro.common.stats.SimulationStats.fingerprint` in
``expected.json``.  ``test_checkpoint_golden.py`` then asserts that
every committed fixture still loads under the current build and that
resuming it reproduces the recorded fingerprint bit-identically.

The two ``eventq`` cases run on the atomic bus: ``eventq`` named the
bus plus an event queue, which every design now owns.  Their committed
fixtures still say ``eventq`` in the envelope, which loads as atomic;
a regenerated fixture says ``atomic`` under the same file name.

Regenerate only when the *model* legitimately changes behaviour (the
fixtures exist to catch accidental drift); commit the new fixtures and
``expected.json`` together.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

from repro.caches.private import PrivateCaches
from repro.caches.shared import SharedCache
from repro.common.params import (
    KB,
    CacheGeometry,
    L1Params,
    NurapidParams,
    PrivateCacheParams,
    SharedCacheParams,
    SystemParams,
)
from repro.core.nurapid import NurapidCache
from repro.cpu.system import CmpSystem
from repro.harness.checkpoint import save_checkpoint
from repro.interconnect.mesh import attach_mesh
from repro.workloads.multithreaded import make_workload

HERE = Path(__file__).resolve().parent

SMALL_L1 = SystemParams(l1=L1Params(geometry=CacheGeometry(4 * KB, 2, 64)))

SMALL_DESIGNS = {
    "cmp-nurapid": lambda: NurapidCache(
        NurapidParams(dgroup_capacity_bytes=4 * KB, tag_associativity=2)
    ),
    "private": lambda: PrivateCaches(
        PrivateCacheParams(geometry=CacheGeometry(4 * KB, 2, 128))
    ),
    "uniform-shared": lambda: SharedCache(
        SharedCacheParams(geometry=CacheGeometry(16 * KB, 4, 128))
    ),
}

#: (design, bus_model, workload, seed, accesses per core, cut in events).
CASES = (
    ("cmp-nurapid", "eventq", "oltp", 42, 150, 400),
    ("private", "eventq", "apache", 42, 150, 400),
    ("uniform-shared", "atomic", "oltp", 42, 150, 400),
    ("private", "mesh", "oltp", 42, 150, 400),
    ("cmp-nurapid", "mesh", "oltp", 42, 150, 400),
)


def run_case(design_name, bus_model, workload_name, seed, accesses, cut):
    design = SMALL_DESIGNS[design_name]()
    if bus_model == "mesh":
        attach_mesh(design)
    system = CmpSystem(design, SMALL_L1)
    workload = make_workload(workload_name, seed=seed)
    events = list(
        itertools.islice(
            workload.events(accesses_per_core=accesses),
            accesses * workload.num_cores,
        )
    )
    meta = {
        "design": design_name,
        "workload": workload_name,
        "mix": None,
        "seed": seed,
        "accesses": accesses,
        "warmup": 0,
        "bus_model": bus_model,
        "total_events": len(events),
        "stats_reset": False,
    }
    for event in events[:cut]:
        system.step(event)
    stem = f"{design_name}-{bus_model}"
    save_checkpoint(system, cut, HERE / f"{stem}.v2.ck", meta)
    for event in events[cut:]:
        system.step(event)
    return stem, system.stats().fingerprint()


def main() -> None:
    expected = {}
    for case in CASES:
        stem, fingerprint = run_case(*case)
        expected[stem] = fingerprint
        print(f"{stem}: fixture written, final fingerprint recorded")
    out = HERE / "expected.json"
    out.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
