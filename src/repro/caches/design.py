"""Common interface implemented by every L2 design under study."""

from __future__ import annotations

import abc
from typing import Callable, Optional

from repro.common.stats import AccessStats
from repro.common.types import Access, AccessResult, block_address
from repro.interconnect.eventq import EventQueue
from repro.obs import events as ev
from repro.obs.tracer import NO_TRACE

#: Callback invalidating core ``core``'s L1 blocks covered by an evicted
#: or invalidated L2 block: ``hook(core, l2_block_address)``.
L1InvalidateHook = Callable[[int, int], None]


class L2Design(abc.ABC):
    """One lowest-level on-chip cache organization.

    Subclasses implement :meth:`_access`, which classifies the access,
    updates internal state, and returns its latency; this base class
    handles block alignment, statistics, and the L1-inclusion hook.
    """

    #: Human-readable design name used in reports.
    name: str = "l2"

    #: :class:`~repro.common.dirty.DirtySet` for incremental invariant
    #: checking, attached by the harness; None disables marking.
    dirty_set = None

    def __init__(self, block_size: int) -> None:
        self.block_size = block_size
        self.stats = AccessStats()
        #: Event queue for the race faults' deferred deliveries, shared
        #: by the design's bus, crossbar and mesh NoC.
        self.queue = EventQueue()
        self._l1_invalidate: "Optional[L1InvalidateHook]" = None
        #: Issuing core's cycle count for the current access — a
        #: virtual clock for optional contention models.
        self.current_time = 0
        #: Structured event tracer; :data:`~repro.obs.tracer.NO_TRACE`
        #: (disabled) by default.  Every emission is guarded with
        #: ``if self.tracer.enabled:`` so disabled tracing costs one
        #: branch per potential event.
        self.tracer = NO_TRACE

    @property
    def block_size(self) -> int:
        return self._block_size

    @block_size.setter
    def block_size(self, value: int) -> None:
        # The alignment mask is derived here, once per (re)assignment:
        # block_address() re-validates the power-of-two invariant on
        # every call, which the per-access path cannot afford, so
        # ``access`` uses ``address & self._block_mask`` directly.
        # Checkpoint loaders reassign block_size after restoring a
        # snapshot's geometry, which keeps the mask in sync.
        if value <= 0 or value & (value - 1):
            raise ValueError(f"block_size must be a power of two, got {value}")
        self._block_size = value
        self._block_mask = ~(value - 1)

    def reset_stats(self) -> None:
        """Clear access statistics (e.g. after a warm-up phase).

        Subclasses with extra statistics containers extend this.
        """
        self.stats = AccessStats()

    def set_l1_invalidate_hook(self, hook: L1InvalidateHook) -> None:
        """Register the system's L1-inclusion invalidation callback."""
        self._l1_invalidate = hook

    def _invalidate_l1(self, core: int, address: int) -> None:
        if self._l1_invalidate is not None:
            self._l1_invalidate(core, address & self._block_mask)

    def _touch(self, address: "Optional[int]" = None, frame: "Optional[object]" = None) -> None:
        """Mark mutated state for incremental invariant checking."""
        dirty = self.dirty_set
        if dirty is not None:
            if address is not None:
                dirty.mark_address(block_address(address, self.block_size))
            if frame is not None:
                dirty.mark_frame(frame)

    def _invalidate_all_l1(self, address: int, num_cores: int, except_core: int = -1) -> None:
        for core in range(num_cores):
            if core != except_core:
                self._invalidate_l1(core, address)

    def access(self, access: Access, now: int = 0) -> AccessResult:
        """Present one (L1-missing) access to the design.

        ``now`` is the issuing core's cycle count; designs with
        contention models use it as a virtual clock.
        """
        self.current_time = now
        if self.dirty_set is not None:
            self.dirty_set.mark_address(access.address & self._block_mask)
        result = self._access(access)
        self.stats.counts[result.miss_class] += 1
        if self.tracer.enabled:
            self.tracer.emit(
                ev.ACCESS,
                cycle=now,
                core=access.core,
                address=access.address & self._block_mask,
                type=access.type.value,
                miss_class=result.miss_class.value,
                latency=result.latency,
                distance=result.dgroup_distance,
            )
        return result

    @abc.abstractmethod
    def _access(self, access: Access) -> AccessResult:
        """Design-specific access handling."""

    # -- versioned checkpointing -------------------------------------
    #
    # Every design overrides state_dict()/load_state_dict(); the base
    # class contributes the fields it owns.  Loaders run against a
    # *freshly built* design (``build_design`` + injection): they may
    # rebuild internal arrays from the snapshot's recorded geometry, so
    # a checkpoint taken on a non-default configuration restores onto a
    # default-built instance.

    def state_dict(self) -> dict:
        return {
            "stats": self.stats.state_dict(),
            "current_time": self.current_time,
        }

    def load_state_dict(self, state: dict, path: str = "design") -> None:
        from repro.common import serialization

        self.stats.load_state_dict(
            serialization.require(state, "stats", path), f"{path}.stats"
        )
        self.current_time = int(serialization.require(state, "current_time", path))
