"""Synthetic workload substrate.

The paper drives its caches from Simics full-system traces of
commercial, scientific, and SPEC2K workloads.  Offline we synthesize
block-granularity access streams whose *architecturally relevant*
properties are controlled per workload:

* the **sharing mix** — fractions of references to per-core private
  data, read-only shared data, and read-write shared data (Figure 5);
* a three-tier **locality hierarchy**:

  - a *recent window* of the last few dozen distinct addresses,
    re-referenced with high probability — this produces L1 hit rates
    and the multi-reuse bursts behind Figure 7's histograms;
  - a slowly *rotating hot set* per region — the L2-resident working
    set.  Its size relative to the 2 MB/8 MB capacities is what
    creates (or relieves) capacity pressure, and its rotation rate
    sets the steady-state cold-miss rate every design pays;
  - a Zipf-distributed *cold tail* over the full footprint — blocks
    touched once and rarely again (the paper finds 42% of read-shared
    blocks are replaced with no reuse at all);

* **producer-consumer communication** — each read-write-shared block
  has a writer-affinity core; the writer updates it and other cores
  read it a few times before the next update (Section 5.1.2 finds most
  RWS blocks are reused 2-5 times between invalidations).

Shared regions use *one* hot set across all cores (that is what makes
them shared working sets), so private caches replicate them — the
capacity pathology controlled replication attacks.

Every stream is deterministic given the workload name and seed.

**Columnar generation.**  A workload emits its stream as
:class:`~repro.cpu.system.EventChunk` columns, one chunk per
:data:`BATCH`-step random-number batch: every core draws its samples a
batch at a time from its own named stream, and the cores' events are
interleaved round-robin.  Each tier is resolved with array operations:

* a recent-window hit references one of the last ``recent_window``
  non-recent events of its core, carried from chunk to chunk;
* hot-set reads and rotations are ordered in global round-robin time
  (``step * num_cores + core``), since every core reads and rotates a
  shared hot set: a read sees the last earlier rotation of its slot;
* Zipf tail blocks use the inverse CDF ``Generator.choice(p=...)``
  computes, looked up only where a draw falls to the tail.

The gap/colocated shaping stays a scalar loop, once per distinct spec
per chunk (a vectorized cumulative sum rounds differently).
:meth:`SyntheticWorkload.events` is the same stream, one
:class:`~repro.cpu.system.TimedAccess` per event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional

import numpy as np

from repro.common.rng import DEFAULT_SEED, stream
from repro.common.types import SharingClass
from repro.cpu.system import SHARING_CLASSES, EventChunk, TimedAccess, timed_events

#: L2 block size the generators align addresses to.
BLOCK = 128

#: Steps per random-number batch, and so per chunk.
BATCH = 8192

#: Rotations a hot set draws at a time.
_ROTATE_BATCH = 512

#: Disjoint address-space bases so regions can never alias.
_PRIVATE_BASE = 1 << 32
_SHARED_RO_BASE = 1 << 40
_SHARED_RW_BASE = 1 << 41


@dataclass(frozen=True)
class RegionSpec:
    """One data region: hot working set plus a Zipf cold tail.

    Attributes:
        blocks: total footprint in 128 B blocks.
        zipf_alpha: popularity skew of the cold-tail (and rotation)
            draws over the full footprint.
        write_fraction: probability an access to this region writes.
        hot_blocks: size of the L2-resident hot working set (0 disables
            the hot tier; draws are then pure Zipf over the footprint).
        hot_fraction: probability a draw comes from the hot set.
        rotate_prob: per-draw probability of replacing one random hot
            entry with a fresh footprint draw — the steady-state
            working-set turnover every cache design must absorb.
    """

    blocks: int
    zipf_alpha: float = 1.0
    write_fraction: float = 0.0
    hot_blocks: int = 0
    hot_fraction: float = 0.8
    rotate_prob: float = 0.002

    def __post_init__(self) -> None:
        if self.blocks <= 0:
            raise ValueError("region footprint must be positive")
        if self.hot_blocks > self.blocks:
            raise ValueError("hot set cannot exceed the footprint")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")

    def probabilities(self) -> np.ndarray:
        ranks = np.arange(1, self.blocks + 1, dtype=np.float64)
        weights = ranks**-self.zipf_alpha
        return weights / weights.sum()

    def cdf(self) -> np.ndarray:
        """The cumulative popularity that ``Generator.choice(p=...)`` inverts:
        block ``cdf.searchsorted(u, side="right")`` for a U(0,1) sample."""
        cdf = self.probabilities().cumsum()
        cdf /= cdf[-1]
        return cdf


class HotSet:
    """A slowly rotating working set of blocks within a region.

    Shared regions hold one :class:`HotSet` instance that every core's
    stream reads and rotates, so all cores reference the same working
    set.  A chunk's reads of it are resolved together by
    :meth:`resolve`.
    """

    def __init__(self, region: RegionSpec, rng: np.random.Generator) -> None:
        if region.hot_blocks <= 0:
            raise ValueError("HotSet requires hot_blocks > 0")
        self.region = region
        self._rng = rng
        self._probs = region.probabilities()
        self.blocks = rng.choice(region.blocks, size=region.hot_blocks, replace=False)
        # Rotation j puts block _rotations[j] in slot _slots[j]; both are
        # drawn _ROTATE_BATCH at a time (blocks, then slots) when needed.
        self._rotations = np.zeros(0, dtype=np.int64)
        self._slots = np.zeros(0, dtype=np.int64)

    def slots(self, uniforms: np.ndarray) -> np.ndarray:
        """The slot each U(0,1) sample picks, uniformly over the hot set."""
        size = self.region.hot_blocks
        return np.minimum((uniforms * size).astype(np.int64), size - 1)

    def _take_rotations(self, count: int) -> "tuple[np.ndarray, np.ndarray]":
        """The next ``count`` rotations' (blocks, slots)."""
        while self._rotations.size < count:
            rotations = self._rng.choice(
                self.region.blocks, size=_ROTATE_BATCH, p=self._probs
            )
            slots = self._rng.integers(0, self.region.hot_blocks, size=_ROTATE_BATCH)
            self._rotations = np.concatenate((self._rotations, rotations))
            self._slots = np.concatenate((self._slots, slots))
        taken = self._rotations[:count], self._slots[:count]
        self._rotations = self._rotations[count:]
        self._slots = self._slots[count:]
        return taken

    def resolve(
        self, times: np.ndarray, picks: np.ndarray, rotates: np.ndarray
    ) -> np.ndarray:
        """The blocks a chunk's reads of this hot set return.

        Read ``i`` happens at round-robin time ``times[i]`` (unique),
        takes the slot ``picks[i]`` selects, and then, if ``rotates[i]``
        is below ``rotate_prob``, replaces one slot with a fresh block.
        A read sees the last rotation of its slot at an earlier time.
        The hot set is left as the last rotation of each slot made it.
        """
        slots = self.slots(picks)
        blocks = self.blocks[slots]
        rotating = np.flatnonzero(rotates < self.region.rotate_prob)
        if rotating.size == 0:
            return blocks
        rotating = rotating[np.argsort(times[rotating])]
        values, rotated = self._take_rotations(rotating.size)
        # Sorted by (slot, time), the rotation just below a read's own
        # key is its slot's last earlier one, if it has that slot.
        span = int(times.max()) + 1
        keys = rotated * span + times[rotating]
        order = np.argsort(keys)
        keys, values, rotated = keys[order], values[order], rotated[order]
        before = np.searchsorted(keys, slots * span + times) - 1
        seen = before >= 0
        seen[seen] = rotated[before[seen]] == slots[seen]
        blocks[seen] = values[before[seen]]
        last = np.append(rotated[1:] != rotated[:-1], True)
        self.blocks[rotated[last]] = values[last]
        return blocks


@dataclass(frozen=True)
class WorkloadSpec:
    """Full parameterization of one synthetic workload.

    ``p_private + p_shared_ro + p_shared_rw`` must equal 1; regions with
    zero probability may be None.
    """

    name: str
    mem_ratio: float
    p_private: float
    p_shared_ro: float
    p_shared_rw: float
    private: RegionSpec
    shared_ro: "Optional[RegionSpec]" = None
    shared_rw: "Optional[RegionSpec]" = None
    #: Probability of re-referencing a recently used address.
    p_recent: float = 0.5
    #: Size of the per-core recent-address window.
    recent_window: int = 32
    #: Write probability for an RWS access by the block's writer core.
    rw_writer_write_fraction: float = 0.6
    #: Average memory instructions per touched cache line (spatial
    #: locality).  The extra ``spatial_factor - 1`` accesses per line
    #: are guaranteed L1 hits and are folded into the event's
    #: ``colocated`` count rather than simulated individually.
    spatial_factor: float = 3.5

    def __post_init__(self) -> None:
        total = self.p_private + self.p_shared_ro + self.p_shared_rw
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{self.name}: region probabilities sum to {total}")
        if not 0.0 < self.mem_ratio <= 1.0:
            raise ValueError(f"{self.name}: mem_ratio must be in (0, 1]")
        if self.p_shared_ro > 0 and self.shared_ro is None:
            raise ValueError(f"{self.name}: missing shared_ro region")
        if self.p_shared_rw > 0 and self.shared_rw is None:
            raise ValueError(f"{self.name}: missing shared_rw region")
        if self.spatial_factor < 1.0:
            raise ValueError(f"{self.name}: spatial_factor must be >= 1")


class _Shaper:
    """Shapes a spec's events to its instruction mix, without randomness.

    Per line-touch event it emits ``colocated`` extra memory
    instructions (mean ``spatial_factor - 1``) and ``gap`` non-memory
    instructions (so memory instructions are ``mem_ratio`` of the
    total), using fractional error accumulation carried across chunks.
    """

    def __init__(self, targets: "tuple[float, float]") -> None:
        self._colocated_target, self._gap_target = targets
        self._colocated_error = 0.0
        self._gap_error = 0.0

    @staticmethod
    def targets(spec: WorkloadSpec) -> "tuple[float, float]":
        """(colocated, gap) per event; specs that share them share a sequence."""
        mem_per_event = spec.spatial_factor
        return (
            mem_per_event - 1.0,
            mem_per_event * (1.0 - spec.mem_ratio) / spec.mem_ratio,
        )

    def shape(self, steps: int) -> "tuple[List[int], List[int]]":
        """The next ``steps`` events' (gaps, colocated counts)."""
        # The exact scalar recurrence: a vectorized cumulative sum
        # would round the running error differently.
        colocated_target = self._colocated_target
        gap_target = self._gap_target
        colocated_error = self._colocated_error
        gap_error = self._gap_error
        gaps = [0] * steps
        colocateds = [0] * steps
        for step in range(steps):
            error = colocated_error + colocated_target
            colocated = int(error)
            colocated_error = error - colocated
            colocateds[step] = colocated
            error = gap_error + gap_target
            gap = int(error)
            gap_error = error - gap
            gaps[step] = gap
        self._colocated_error = colocated_error
        self._gap_error = gap_error
        return gaps, colocateds


def _half(block):
    """Deterministic 64 B half of the 128 B block a reference touches.

    Using a fixed half per block keeps every reference to a block on the
    same L1 line (so recency produces L1 hits) while spreading blocks
    over both halves so all L1 sets are used.  The half is derived from
    bits *above* the L1 set-index range: a 64 KB 2-way L1 with 64 B
    lines indexes on address bits 6-14, i.e. block bits 0-7 plus the
    half bit — deriving the half from low block bits would collapse the
    set index to 8 bits of entropy and halve the usable L1.

    Works on an int or elementwise on an integer array, as do the
    address functions below.
    """
    return (((block >> 8) ^ (block >> 10) ^ (block >> 12)) & 1) * 64


def private_block_address(core: int, block):
    return _PRIVATE_BASE * (core + 1) + block * BLOCK + _half(block)


def shared_ro_block_address(block):
    return _SHARED_RO_BASE + block * BLOCK + _half(block)


def shared_rw_block_address(block):
    return _SHARED_RW_BASE + block * BLOCK + _half(block)


class _Region:
    """Runtime state for one region as seen by one core's stream."""

    def __init__(
        self,
        spec: RegionSpec,
        sharing: SharingClass,
        address_fn: "Callable[[np.ndarray], np.ndarray]",
        hot_set: "Optional[HotSet]",
    ) -> None:
        self.spec = spec
        self.sharing = sharing
        self.code = SHARING_CLASSES.index(sharing)
        self.address_fn = address_fn
        self.hot_set = hot_set
        self.cdf = spec.cdf()


class _CoreStream:
    """One core's events, a batch of random samples at a time.

    :meth:`draw` takes the core's next batch and resolves every event
    except its hot-set reads, which it hands to the chunk (a shared hot
    set is resolved across all cores at once); :meth:`finish` then
    turns the core's blocks into address, sharing and write columns.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        core: int,
        num_cores: int,
        rng: np.random.Generator,
        regions: "List[_Region]",
        region_probs: "List[float]",
    ) -> None:
        self.spec = spec
        self.core = core
        self.num_cores = num_cores
        self.rng = rng
        self.regions = regions
        self._region_cut = np.cumsum(region_probs)
        # Non-recent events so far, and the recent window: the last
        # min(that, recent_window) of them, oldest first, as (address,
        # sharing code, write probability) columns.
        self._nonrecent = 0
        self._window = (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int8),
            np.zeros(0, dtype=np.float64),
        )

    def draw(self, steps: int, reads: dict) -> None:
        """Take the next batch's samples and pick every non-recent block.

        Samples are drawn a full :data:`BATCH` at a time, in a fixed
        order, whatever ``steps`` uses of them.  Hot-set reads are
        appended to ``reads`` (hot set id -> (hot set, requests)) as
        ``(stream, positions, times, picks, rotates)``.
        """
        rng = self.rng
        spec = self.spec
        choice = rng.random(BATCH)[:steps]
        self._write = rng.random(BATCH)[:steps]
        hot_draw = rng.random(BATCH)[:steps]
        hot_pick = rng.random(BATCH)[:steps]
        rotate = rng.random(BATCH)[:steps]
        self._recent_pick = rng.integers(
            0, max(spec.recent_window, 1), size=BATCH
        )[:steps]
        region_index = np.minimum(
            np.searchsorted(self._region_cut, rng.random(BATCH)[:steps]),
            len(self.regions) - 1,
        )
        tails = [rng.random(BATCH)[:steps] for _ in self.regions]

        if spec.recent_window:
            recent = choice < spec.p_recent
            if not self._nonrecent:
                recent[0] = False  # the window is still empty
        else:
            recent = np.zeros(steps, dtype=bool)
        self._recent = recent
        nonrecent = self._nonrecent_steps = np.flatnonzero(~recent)
        regions = region_index[nonrecent]
        self._members = []
        self._blocks = np.empty(nonrecent.size, dtype=np.int64)
        for index, region in enumerate(self.regions):
            members = np.flatnonzero(regions == index)
            self._members.append(members)
            at = nonrecent[members]
            hot = region.hot_set
            if hot is not None:
                is_hot = hot_draw[at] < region.spec.hot_fraction
                hot_at = at[is_hot]
                reads.setdefault(id(hot), (hot, []))[1].append((
                    self,
                    members[is_hot],
                    hot_at * self.num_cores + self.core,
                    hot_pick[hot_at],
                    rotate[hot_at],
                ))
                members = members[~is_hot]
                at = at[~is_hot]
            self._blocks[members] = region.cdf.searchsorted(
                tails[index][at], side="right"
            )

    def finish(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """(address, sharing code, is_write) for each step of the batch."""
        nonrecent = self._nonrecent_steps
        blocks = self._blocks
        address = np.empty(nonrecent.size, dtype=np.int64)
        sharing = np.empty(nonrecent.size, dtype=np.int8)
        write_prob = np.empty(nonrecent.size, dtype=np.float64)
        for region, members in zip(self.regions, self._members):
            chosen = blocks[members]
            address[members] = region.address_fn(chosen)
            sharing[members] = region.code
            if region.sharing is SharingClass.READ_WRITE_SHARED:
                write_prob[members] = np.where(
                    chosen % self.num_cores == self.core,
                    self.spec.rw_writer_write_fraction,
                    0.0,
                )
            else:
                write_prob[members] = region.spec.write_fraction

        # A recent hit references one of the last min(seen, window)
        # non-recent events before it, where ``seen`` counts them all,
        # earlier chunks too; ``history`` starts with the window's
        # events from earlier chunks, non-recent event number
        # ``before - held``.
        fresh = (address, sharing, write_prob)
        history = [np.concatenate(pair) for pair in zip(self._window, fresh)]
        held = self._window[0].size
        before = self._nonrecent
        window = self.spec.recent_window
        hits = np.flatnonzero(self._recent)
        seen = before + np.searchsorted(nonrecent, hits)
        length = np.minimum(seen, window)
        picked = seen - length + self._recent_pick[hits] % length - (before - held)
        out = []
        for column, values in zip(history, fresh):
            result = np.empty(self._recent.size, dtype=column.dtype)
            result[nonrecent] = values
            result[hits] = column[picked]
            out.append(result)
        self._nonrecent = before + nonrecent.size
        keep = min(self._nonrecent, window)
        self._window = tuple(column[column.size - keep:] for column in history)
        address, sharing, write_prob = out
        return address, sharing, self._write < write_prob


def _generate(
    streams: "List[_CoreStream]", accesses_per_core: int
) -> "Iterator[EventChunk]":
    """Round-robin the per-core streams into chunks of event columns."""
    num_cores = len(streams)
    shaper_keys = [_Shaper.targets(core_stream.spec) for core_stream in streams]
    shapers = {key: _Shaper(key) for key in shaper_keys}
    for start in range(0, accesses_per_core, BATCH):
        steps = min(BATCH, accesses_per_core - start)
        reads: dict = {}
        for core_stream in streams:
            core_stream.draw(steps, reads)
        for hot, requests in reads.values():
            readers, positions, times, picks, rotates = zip(*requests)
            blocks = hot.resolve(*map(np.concatenate, (times, picks, rotates)))
            parts = np.split(blocks, np.cumsum([p.size for p in positions])[:-1])
            for core_stream, where, part in zip(readers, positions, parts):
                core_stream._blocks[where] = part
        address = np.empty((steps, num_cores), dtype=np.int64)
        sharing = np.empty((steps, num_cores), dtype=np.int8)
        is_write = np.empty((steps, num_cores), dtype=bool)
        for core, core_stream in enumerate(streams):
            address[:, core], sharing[:, core], is_write[:, core] = core_stream.finish()
        shapes = {
            key: np.array(shaper.shape(steps), dtype=np.int64)
            for key, shaper in shapers.items()
        }
        gap = np.empty((steps, num_cores), dtype=np.int64)
        colocated = np.empty((steps, num_cores), dtype=np.int64)
        for core, key in enumerate(shaper_keys):
            gap[:, core], colocated[:, core] = shapes[key]
        yield EventChunk(
            np.tile(np.arange(num_cores, dtype=np.int64), steps),
            address.ravel(),
            is_write.ravel(),
            sharing.ravel(),
            gap.ravel(),
            colocated.ravel(),
        )


def _build_regions(
    spec: WorkloadSpec,
    core: int,
    shared_hot_sets: "dict[str, Optional[HotSet]]",
    private_spec: "Optional[RegionSpec]",
    seed: int,
) -> "tuple[List[_Region], List[float]]":
    """Assemble the (region, probability) lists for one core."""
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
        regions.append(
            _Region(
                private_region,
                SharingClass.PRIVATE,
                lambda block, core=core: private_block_address(core, block),
                private_hot,
            )
        )
        probs.append(spec.p_private)
    if spec.p_shared_ro > 0:
        assert spec.shared_ro is not None
        regions.append(
            _Region(
                spec.shared_ro,
                SharingClass.READ_ONLY_SHARED,
                shared_ro_block_address,
                shared_hot_sets.get("ro"),
            )
        )
        probs.append(spec.p_shared_ro)
    if spec.p_shared_rw > 0:
        assert spec.shared_rw is not None
        regions.append(
            _Region(
                spec.shared_rw,
                SharingClass.READ_WRITE_SHARED,
                shared_rw_block_address,
                shared_hot_sets.get("rw"),
            )
        )
        probs.append(spec.p_shared_rw)
    return regions, probs


class StreamWorkload:
    """A reproducible multi-core access stream, as chunks or as events.

    Subclasses build the per-core streams in ``_streams``; each call
    builds fresh ones, so every stream starts from the seed.
    """

    num_cores: int

    def _streams(self) -> "List[_CoreStream]":
        raise NotImplementedError

    def chunks(self, accesses_per_core: int) -> "Iterator[EventChunk]":
        """The round-robin stream as :class:`EventChunk` columns, one
        chunk per :data:`BATCH` steps of every core."""
        return _generate(self._streams(), accesses_per_core)

    def events(self, accesses_per_core: int) -> "Iterator[TimedAccess]":
        """The same stream, one :class:`TimedAccess` per event."""
        return timed_events(self.chunks(accesses_per_core))


class SyntheticWorkload(StreamWorkload):
    """A reproducible multi-core access stream built from a spec.

    For homogeneous multithreaded workloads every core runs the same
    spec; :class:`~repro.workloads.multiprogrammed.MultiprogrammedWorkload`
    overrides the private region per core to model SPEC2K mixes.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        num_cores: int = 4,
        seed: int = DEFAULT_SEED,
    ) -> None:
        self.spec = spec
        self.num_cores = num_cores
        self.seed = seed

    def _shared_hot_sets(self) -> "dict[str, Optional[HotSet]]":
        hot_sets: "dict[str, Optional[HotSet]]" = {}
        if self.spec.shared_ro is not None and self.spec.shared_ro.hot_blocks:
            hot_sets["ro"] = HotSet(
                self.spec.shared_ro, stream(f"hot.{self.spec.name}.ro", self.seed)
            )
        if self.spec.shared_rw is not None and self.spec.shared_rw.hot_blocks:
            hot_sets["rw"] = HotSet(
                self.spec.shared_rw, stream(f"hot.{self.spec.name}.rw", self.seed)
            )
        return hot_sets

    def _streams(self) -> "List[_CoreStream]":
        shared_hot = self._shared_hot_sets()
        streams = []
        for core in range(self.num_cores):
            regions, probs = _build_regions(
                self.spec, core, shared_hot, None, self.seed
            )
            rng = stream(f"workload.{self.spec.name}.core{core}", self.seed)
            streams.append(
                _CoreStream(self.spec, core, self.num_cores, rng, regions, probs)
            )
        return streams
