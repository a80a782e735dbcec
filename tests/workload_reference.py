"""The per-event workload generator, kept as the oracle for the columnar one.

This is the generator the simulator used before it emitted numpy
column chunks: every core draws its random samples in 8192-step
batches, then builds one :class:`~repro.common.types.Access` per step
in Python — recent-window hit or region draw, hot-set read and
rotation, Zipf tail — and :func:`interleave_streams` round-robins the
cores, shaping each event's gap and colocated count with
:class:`EventShaper`.  :func:`reference_events` rebuilds the stream a
:class:`~repro.workloads.base.SyntheticWorkload` or a
:class:`~repro.workloads.multiprogrammed.MultiprogrammedWorkload`
emits, so tests can compare the two event for event.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

import numpy as np

from repro.common.rng import stream
from repro.common.types import Access, AccessType, SharingClass
from repro.cpu.system import TimedAccess
from repro.workloads.base import (
    RegionSpec,
    SyntheticWorkload,
    WorkloadSpec,
    private_block_address,
    shared_ro_block_address,
    shared_rw_block_address,
)
from repro.workloads.multiprogrammed import MultiprogrammedWorkload, _app_spec

_READ = AccessType.READ
_WRITE = AccessType.WRITE


class HotSet:
    """A slowly rotating working set of blocks within a region."""

    _ROTATE_BATCH = 512

    def __init__(self, region: RegionSpec, rng: np.random.Generator) -> None:
        if region.hot_blocks <= 0:
            raise ValueError("HotSet requires hot_blocks > 0")
        self.region = region
        self._rng = rng
        self._probs = region.probabilities()
        self.blocks = rng.choice(
            region.blocks, size=region.hot_blocks, replace=False
        ).tolist()
        self._refill_rotations()

    def _refill_rotations(self) -> None:
        self._rotations = self._rng.choice(
            self.region.blocks, size=self._ROTATE_BATCH, p=self._probs
        ).tolist()
        self._slots = self._rng.integers(
            0, self.region.hot_blocks, size=self._ROTATE_BATCH
        ).tolist()
        self._rot_cursor = 0

    def draw(self, uniform: float) -> int:
        """Uniform pick from the hot set given a U(0,1) sample."""
        index = int(uniform * self.region.hot_blocks)
        return self.blocks[min(index, self.region.hot_blocks - 1)]

    def maybe_rotate(self, uniform: float) -> None:
        """With ``rotate_prob``, swap one hot entry for a fresh block."""
        if uniform >= self.region.rotate_prob:
            return
        if self._rot_cursor >= self._ROTATE_BATCH:
            self._refill_rotations()
        i = self._rot_cursor
        self._rot_cursor += 1
        self.blocks[self._slots[i]] = self._rotations[i]


class EventShaper:
    """Shapes events to a spec's instruction mix by error accumulation."""

    def __init__(self, spec: WorkloadSpec) -> None:
        mem_per_event = spec.spatial_factor
        self._colocated_target = mem_per_event - 1.0
        self._gap_target = mem_per_event * (1.0 - spec.mem_ratio) / spec.mem_ratio
        self._colocated_error = 0.0
        self._gap_error = 0.0

    def next_shape(self) -> "tuple[int, int]":
        """Return ``(gap, colocated)`` for the next event."""
        self._colocated_error += self._colocated_target
        colocated = int(self._colocated_error)
        self._colocated_error -= colocated
        self._gap_error += self._gap_target
        gap = int(self._gap_error)
        self._gap_error -= gap
        return gap, colocated


class _Region:
    def __init__(
        self,
        spec: RegionSpec,
        sharing: SharingClass,
        address_fn: "Callable[[int], int]",
        hot_set: "Optional[HotSet]",
    ) -> None:
        self.spec = spec
        self.sharing = sharing
        self.address_fn = address_fn
        self.hot_set = hot_set


class _CoreStream:
    """Per-core access generator combining the three locality tiers."""

    _BATCH = 8192

    def __init__(self, spec, core, num_cores, rng, regions, region_probs) -> None:
        self.spec = spec
        self.core = core
        self.num_cores = num_cores
        self.rng = rng
        self.regions = regions
        self._region_cut = np.cumsum(region_probs)
        # Ring buffer of (address, sharing class, write probability);
        # logical index i lives at _recent[(_recent_start + i) % len].
        self._recent: "List[tuple[int, SharingClass, float]]" = []
        self._recent_start = 0
        self._tail_probs = [region.spec.probabilities() for region in regions]
        self._refill()

    def _refill(self) -> None:
        n = self._BATCH
        self._choice = self.rng.random(n).tolist()
        self._write = self.rng.random(n).tolist()
        self._hot_draw = self.rng.random(n).tolist()
        self._hot_pick = self.rng.random(n).tolist()
        self._rotate = self.rng.random(n).tolist()
        self._recent_pick = self.rng.integers(
            0, max(self.spec.recent_window, 1), size=n
        ).tolist()
        self._region_index = np.minimum(
            np.searchsorted(self._region_cut, self.rng.random(n)),
            len(self.regions) - 1,
        ).tolist()
        self._tail_blocks = [
            self.rng.choice(region.spec.blocks, size=n, p=probs).tolist()
            for region, probs in zip(self.regions, self._tail_probs)
        ]
        self._cursor = 0

    def _write_prob(self, region: _Region, block: int) -> float:
        if region.sharing is SharingClass.READ_WRITE_SHARED:
            if self.core == block % self.num_cores:
                return self.spec.rw_writer_write_fraction
            return 0.0
        return region.spec.write_fraction

    def next_access(self) -> Access:
        i = self._cursor
        if i >= self._BATCH:
            self._refill()
            i = 0
        self._cursor = i + 1
        spec = self.spec

        recent = self._recent
        rlen = len(recent)
        if rlen and self._choice[i] < spec.p_recent:
            pos = self._recent_start + self._recent_pick[i] % rlen
            if pos >= rlen:
                pos -= rlen
            address, sharing, write_prob = recent[pos]
            access_type = _WRITE if self._write[i] < write_prob else _READ
            return Access(self.core, address, access_type, sharing)

        region_index = self._region_index[i]
        region = self.regions[region_index]

        hot = region.hot_set
        if hot is not None and self._hot_draw[i] < region.spec.hot_fraction:
            block = hot.draw(self._hot_pick[i])
            hot.maybe_rotate(self._rotate[i])
        else:
            block = self._tail_blocks[region_index][i]

        address = region.address_fn(block)
        write_prob = self._write_prob(region, block)
        is_write = self._write[i] < write_prob
        window = spec.recent_window
        if rlen < window:
            recent.append((address, region.sharing, write_prob))
        elif window:
            start = self._recent_start
            recent[start] = (address, region.sharing, write_prob)
            start += 1
            self._recent_start = 0 if start == window else start
        access_type = _WRITE if is_write else _READ
        return Access(self.core, address, access_type, sharing=region.sharing)


def interleave_streams(
    streams: "List[_CoreStream]", accesses_per_core: int
) -> "Iterator[TimedAccess]":
    """Round-robin the per-core streams into one timed-event stream."""
    shapers = [EventShaper(s.spec) for s in streams]
    for _ in range(accesses_per_core):
        for core_stream, shaper in zip(streams, shapers):
            gap, colocated = shaper.next_shape()
            yield TimedAccess(core_stream.next_access(), gap, colocated)


def _build_regions(spec, core, shared_hot_sets, private_spec, seed):
    regions: "List[_Region]" = []
    probs: "List[float]" = []
    private_region = private_spec or spec.private
    if spec.p_private > 0:
        private_hot = None
        if private_region.hot_blocks:
            private_hot = HotSet(
                private_region,
                stream(f"hot.{spec.name}.private.core{core}", seed),
            )
        regions.append(_Region(
            private_region, SharingClass.PRIVATE,
            lambda block, core=core: private_block_address(core, block),
            private_hot,
        ))
        probs.append(spec.p_private)
    if spec.p_shared_ro > 0:
        regions.append(_Region(
            spec.shared_ro, SharingClass.READ_ONLY_SHARED,
            shared_ro_block_address, shared_hot_sets.get("ro"),
        ))
        probs.append(spec.p_shared_ro)
    if spec.p_shared_rw > 0:
        regions.append(_Region(
            spec.shared_rw, SharingClass.READ_WRITE_SHARED,
            shared_rw_block_address, shared_hot_sets.get("rw"),
        ))
        probs.append(spec.p_shared_rw)
    return regions, probs


def _synthetic_streams(workload: SyntheticWorkload) -> "List[_CoreStream]":
    spec, seed = workload.spec, workload.seed
    shared_hot: "dict[str, HotSet]" = {}
    if spec.shared_ro is not None and spec.shared_ro.hot_blocks:
        shared_hot["ro"] = HotSet(spec.shared_ro, stream(f"hot.{spec.name}.ro", seed))
    if spec.shared_rw is not None and spec.shared_rw.hot_blocks:
        shared_hot["rw"] = HotSet(spec.shared_rw, stream(f"hot.{spec.name}.rw", seed))
    streams = []
    for core in range(workload.num_cores):
        regions, probs = _build_regions(spec, core, shared_hot, None, seed)
        rng = stream(f"workload.{spec.name}.core{core}", seed)
        streams.append(_CoreStream(spec, core, workload.num_cores, rng, regions, probs))
    return streams


def _mix_streams(workload: MultiprogrammedWorkload) -> "List[_CoreStream]":
    streams = []
    for core, app in enumerate(workload.apps):
        spec = _app_spec(app)
        regions, probs = _build_regions(spec, core, {}, app.region(), workload.seed)
        rng = stream(f"mix.{workload.name}.{app.name}.core{core}", workload.seed)
        streams.append(_CoreStream(spec, core, workload.num_cores, rng, regions, probs))
    return streams


def reference_events(workload, accesses_per_core: int) -> "Iterator[TimedAccess]":
    """The stream the per-event generator emits for ``workload``."""
    if isinstance(workload, MultiprogrammedWorkload):
        streams = _mix_streams(workload)
    else:
        streams = _synthetic_streams(workload)
    return interleave_streams(streams, accesses_per_core)
