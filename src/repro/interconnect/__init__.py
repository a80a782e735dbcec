"""On-chip interconnect models: snoopy bus and tag-to-d-group crossbar."""

from repro.interconnect.bus import (
    BusOp,
    BusResult,
    BusTransaction,
    SnoopBus,
    SnoopReply,
    Snooper,
)
from repro.interconnect.crossbar import Crossbar
from repro.interconnect.eventq import EventQueue, ScheduledEvent

__all__ = [
    "BusOp",
    "BusResult",
    "BusTransaction",
    "Crossbar",
    "EventQueue",
    "ScheduledEvent",
    "SnoopBus",
    "SnoopReply",
    "Snooper",
]
