"""The batch engine (``--engine batch``): one shared tape, many lanes.

Groups (workload, design, bus model) cells by workload, materializes
each workload's event stream once into an
:class:`~repro.kernel.engine.EventTape`, and runs every design lane's
own :class:`~repro.cpu.system.CmpSystem` over it with the scalar
engine's plain loop (:mod:`repro.kernel.engine`).  Statistics are the
lanes' own, so ``SimulationStats.fingerprint()`` matches the scalar
engine's by construction.
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

__all__ = [
    "BATCH_BUS_MODELS",
    "ENGINE_ENV",
    "ENGINES",
    "BatchKernel",
    "EventTape",
    "resolve_engine",
    "run_batch",
]
