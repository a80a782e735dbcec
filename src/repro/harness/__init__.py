"""Robustness harness: invariant checking, fault injection, checkpoints.

CMP-NuRAPID's correctness rests on delicate cross-structure invariants
(tag pointers must reference live frames, a C block has exactly one
dirty copy, L1 contents stay included in the L2).  A silent violation
only surfaces — if at all — as a wrong figure-level number.  This
package catches model drift at the access where it happens and lets
multi-million-access runs survive crashes:

* :mod:`repro.harness.invariants` — walks the live model and raises a
  structured :class:`InvariantViolation` carrying a minimal repro
  context (access index, block, cores, states);
* :mod:`repro.harness.faults` — deterministically corrupts the model
  (pointer flips, rogue evictions, dropped bus transactions) to prove
  the checker detects each corruption class;
* :mod:`repro.harness.checkpoint` — snapshots full simulator state and
  resumes a killed run bit-identically;
* :mod:`repro.harness.runner` — drives a system with paranoid-mode
  checking, periodic checkpoints, a wall-clock watchdog, and a
  replayable event-window dump on unrecoverable errors;
* :mod:`repro.harness.chaos` — injects orchestration-level faults
  (worker SIGKILL/hang/freeze, journal truncation and bit-flips,
  orphaned shards, poison cells) into small sweeps and asserts they
  converge bit-identically to fault-free runs.
"""

from repro.harness.chaos import (
    SCENARIOS,
    ChaosReport,
    ChaosSettings,
    ScenarioResult,
    run_chaos,
)
from repro.harness.checkpoint import (
    FORMAT_VERSION,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.harness.faults import (
    FAULT_KINDS,
    RACE_FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    FaultSpecError,
)
from repro.harness.invariants import (
    InvariantViolation,
    check_design,
    check_system,
    check_system_incremental,
)
from repro.harness.runner import HarnessConfig, HarnessRunner, WatchdogTimeout, run_events

__all__ = [
    "ChaosReport",
    "ChaosSettings",
    "SCENARIOS",
    "ScenarioResult",
    "run_chaos",
    "Checkpoint",
    "CheckpointError",
    "FORMAT_VERSION",
    "FAULT_KINDS",
    "RACE_FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "FaultSpecError",
    "HarnessConfig",
    "HarnessRunner",
    "InvariantViolation",
    "WatchdogTimeout",
    "check_design",
    "check_system",
    "check_system_incremental",
    "load_checkpoint",
    "run_events",
    "save_checkpoint",
]
