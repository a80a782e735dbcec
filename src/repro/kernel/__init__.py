"""Vectorized structure-of-arrays batch kernel (``--engine batch``).

Steps many (workload, design) simulation cells per numpy operation:
per-cell L1 tag arrays, recency state, and permission bits live in
structure-of-arrays buffers (:class:`~repro.kernel.soa.L1Pool`), and
the engine (:mod:`repro.kernel.engine`) sorts each window of events
into two classes across the whole batch: pure L1 hits, committed as
masked array ops, and everything else, run per lane as a batched
scalar residue against the real L2 designs.  Correctness is anchored
on ``SimulationStats.fingerprint()`` identity with the scalar engine.
"""

from repro.kernel.engine import (
    BATCH_BUS_MODELS,
    ENGINE_ENV,
    ENGINES,
    BatchKernel,
    EventTape,
    resolve_engine,
    run_batch,
)
from repro.kernel.soa import L1Pool

__all__ = [
    "BATCH_BUS_MODELS",
    "ENGINE_ENV",
    "ENGINES",
    "BatchKernel",
    "EventTape",
    "L1Pool",
    "resolve_engine",
    "run_batch",
]
