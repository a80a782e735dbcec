"""Regenerate the golden trace-identity corpus.

Run from the repository root::

    PYTHONPATH=src python tests/data/traces/generate.py

Each run below steps a short workload prefix through
:meth:`~repro.cpu.system.CmpSystem.step` with a tracer attached and
records three things in ``expected.json``: the sha256 of the full
traced event list (every record's JSON line, in emission order), the
interconnect event queue's final ``now``, and the statistics
:meth:`~repro.common.stats.SimulationStats.fingerprint`.
``test_trace_golden.py`` asserts that the current build reproduces all
three.  The queue's ``fired``/``seq`` counters are left out on
purpose: they count scheduling work, not behaviour.

The runs cover what an interconnect rewrite can move: the eventq bus
at occupancy 0 and 8 with a ``race-reorder`` deferral armed mid-run,
the private mesh with link and router occupancy, CMP-NuRAPID's
crossbar and late ``BusRepl`` on a small eventq machine
(``race-delay-repl``), and a 16-core CMP-NuRAPID mesh run whose
invalidations travel as hop-timed forwards.

The occupancy-8 and occupancy-2 entries freeze today's contention
model, which lets core clocks diverge (ROADMAP item 1).  Fixing that
model changes them on purpose: regenerate this corpus with the fix and
commit the new ``expected.json`` alongside it.  Otherwise regenerate
only for a legitimate model change.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

from repro.caches.private import PrivateCaches
from repro.common.params import (
    KB,
    CacheGeometry,
    L1Params,
    NurapidParams,
    SystemParams,
)
from repro.core.nurapid import NurapidCache
from repro.cpu.system import CmpSystem
from repro.experiments.runner import build_design
from repro.interconnect.eventq import attach_eventq
from repro.interconnect.mesh import attach_mesh
from repro.obs.tracer import Tracer
from repro.workloads.multithreaded import make_workload

HERE = Path(__file__).resolve().parent

SEED = 42

#: The small CMP-NuRAPID instance of ``tests/test_race_faults.py``.
SMALL_L1 = SystemParams(l1=L1Params(geometry=CacheGeometry(4 * KB, 2, 64)))


class DigestSink:
    """A tracer sink that hashes the JSONL stream instead of storing it."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()

    def write(self, text: str) -> None:
        self.sha.update(text.encode())

    def flush(self) -> None:
        pass


def _private_eventq(occupancy):
    design = PrivateCaches(bus_occupancy=occupancy)
    attach_eventq(design)
    return design, None


def _private_mesh():
    design = PrivateCaches()
    attach_mesh(design, link_occupancy=2, router_occupancy=2)
    return design, None


def _small_nurapid_eventq():
    design = NurapidCache(
        NurapidParams(dgroup_capacity_bytes=4 * KB, tag_associativity=2)
    )
    attach_eventq(design)
    return design, SMALL_L1


def _nurapid_mesh_16():
    return build_design("cmp-nurapid", bus_model="mesh", num_cores=16), None


def _arm_reorder(design):
    design.bus.race_pending = "race-reorder"


def _arm_delay_repl(design):
    design.race_delay_repl = True


def _last_race(design):
    """The race fault that landed, as the bus or the design names it."""
    bus = getattr(design, "bus", None)
    return getattr(bus, "last_race", None) or getattr(design, "last_race", None)


#: name -> (build, workload, accesses per core, race arm, arm at event).
RUNS = {
    "private-eventq-occ0-race-reorder": (
        lambda: _private_eventq(0), "apache", 2000, _arm_reorder, 4000,
    ),
    "private-eventq-occ8-race-reorder": (
        lambda: _private_eventq(8), "apache", 2000, _arm_reorder, 4000,
    ),
    "private-mesh-occ2": (_private_mesh, "oltp", 2000, None, None),
    "cmp-nurapid-eventq-small-race-delay-repl": (
        _small_nurapid_eventq, "apache", 2000, _arm_delay_repl, 4000,
    ),
    "cmp-nurapid-mesh-c16": (_nurapid_mesh_16, "oltp", 500, None, None),
}


def run(name):
    """One traced run; returns its ``expected.json`` entry."""
    build, workload_name, accesses, arm, arm_at = RUNS[name]
    design, params = build()
    sink = DigestSink()
    tracer = Tracer(capacity=1, sink=sink)
    system = CmpSystem(design, params, tracer=tracer)
    workload = make_workload(
        workload_name, num_cores=system.params.num_cores, seed=SEED
    )
    events = itertools.islice(
        workload.events(accesses_per_core=accesses),
        accesses * system.params.num_cores,
    )
    for index, event in enumerate(events):
        if index == arm_at:
            arm(design)
        system.step(event)
    tracer.close()
    return {
        "events": tracer.emitted,
        "trace_sha256": sink.sha.hexdigest(),
        "queue_now": design.queue.now,
        "race": _last_race(design),
        "fingerprint": system.stats().fingerprint(),
    }


def main() -> None:
    expected = {name: run(name) for name in RUNS}
    out = HERE / "expected.json"
    out.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(expected)} runs)")


if __name__ == "__main__":
    main()
