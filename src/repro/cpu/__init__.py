"""CPU timing model and whole-CMP system harness."""

from repro.cpu.core import InOrderCore
from repro.cpu.system import CmpSystem, EventChunk, TimedAccess, run_workload

__all__ = ["CmpSystem", "EventChunk", "InOrderCore", "TimedAccess", "run_workload"]
