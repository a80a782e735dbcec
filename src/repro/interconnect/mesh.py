"""2D mesh NoC backend: XY routing, occupancy, directory forwarding.

``--bus-model mesh`` replaces the paper's snoopy bus with a 2D mesh
network-on-chip plus the directory of
:mod:`repro.coherence.directory`, scaling the modeled machine to 8, 16,
and 64 tiles (one core + one L2 d-group + one directory bank per tile).

**Latency model.**  A coherence transaction is a request from the
issuer's tile to the block's home tile, directory-filtered forwards to
the recorded sharers, and a response back — all XY-routed (X first,
then Y, deadlock-free and deterministic).  Uncontended, the charge is a
per-machine constant::

    transaction_latency = router_latency + 2 * diameter * hop_latency

i.e. one router pipeline plus a diameter-bounded round trip — exactly
the abstraction the paper uses for its bus, whose 32 cycles cover the
worst-case request/response traversal of the 4-core die.  The defaults
(``hop_latency=7``, ``router_latency=4``) are **calibrated so the 2x2
mesh reproduces Table 1's 32-cycle bus**: ``4 + 2*2*7 = 32``.  At 4
cores the mesh backend therefore charges bit-identical latencies to
the bus (the differential suite pins this), while the 4x4 grid pays 88
cycles and the 8x8 grid 200 — the scaling term the scale experiment
measures CR/ISC/CS against.

**Occupancy.**  ``link_occupancy``/``router_occupancy`` (default 0)
enable contention: every message reserves each directed link (and the
home router) it traverses for that many cycles, and a message arriving
at a busy resource queues behind it, the wait surfacing in the
transaction latency.  Zero occupancy — the paper's uncontended
assumption — makes every wait zero, which is what keeps the 4-core
equivalence exact.

**Execution.**  A transaction runs inline, like the bus's: the
directory's forwards reach their sharers in arrival order (hop-timed
along each XY route) inside :meth:`MeshNoC.issue`, so the synchronous
design API is unchanged.  The NoC shares its design's event queue, and
each forward applies after every deferred delivery due by its cycle.
The bus race faults are a bus-schedule concept the mesh never consumes
(the CLI rejects ``--inject-fault race-* --bus-model mesh``).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.coherence.directory import Directory
from repro.common.params import DEFAULT_NUM_CORES
from repro.common.stats import BusStats
from repro.interconnect.bus import BusResult, BusTransaction, SnoopBus, Snooper
from repro.interconnect.eventq import EventQueue
from repro.latency.tables import BUS_LATENCY, mesh_dims, mesh_hops
from repro.obs import events as ev
from repro.obs.tracer import NO_TRACE

#: Per-hop (link + router stage) latency in cycles.
MESH_HOP_LATENCY = 7

#: Fixed router pipeline overhead charged once per transaction.
MESH_ROUTER_LATENCY = 4

# Calibration anchor: the 2x2 grid's round trip must equal the paper's
# bus so 4-core mesh runs are bit-identical to 4-core bus runs.
assert MESH_ROUTER_LATENCY + 2 * 2 * MESH_HOP_LATENCY == BUS_LATENCY


class MeshTopology:
    """Tile grid geometry and XY routes for one mesh machine."""

    def __init__(self, num_tiles: int) -> None:
        self.num_tiles = num_tiles
        self.rows, self.cols = mesh_dims(num_tiles)

    @property
    def diameter(self) -> int:
        """Longest Manhattan distance between any two tiles."""
        return (self.rows - 1) + (self.cols - 1)

    def tile(self, index: int) -> "Tuple[int, int]":
        return divmod(index, self.cols)

    def index(self, row: int, col: int) -> int:
        return row * self.cols + col

    def hops(self, a: int, b: int) -> int:
        return mesh_hops(a, b, self.num_tiles)

    def route(self, a: int, b: int) -> "List[Tuple[int, int]]":
        """Directed links of the XY route from tile ``a`` to ``b``.

        X (column) direction first, then Y (rows) — the standard
        deadlock-free dimension order.  ``len(route) == hops``.
        """
        row, col = self.tile(a)
        dst_row, dst_col = self.tile(b)
        links: "List[Tuple[int, int]]" = []
        here = a
        while col != dst_col:
            col += 1 if dst_col > col else -1
            nxt = self.index(row, col)
            links.append((here, nxt))
            here = nxt
        while row != dst_row:
            row += 1 if dst_row > row else -1
            nxt = self.index(row, col)
            links.append((here, nxt))
            here = nxt
        return links


class MeshStats:
    """NoC-level traffic counters (hops and per-link utilization)."""

    def __init__(self) -> None:
        self.messages = 0
        self.hops = 0
        #: Replacement hints delivered to the directory (silent-eviction
        #: notifications; not coherence transactions).
        self.hints = 0
        #: Directed-link traffic: ``"3->7"`` -> messages carried.
        self.link_traffic: "Counter[str]" = Counter()

    def state_dict(self) -> dict:
        return {
            "messages": self.messages,
            "hops": self.hops,
            "hints": self.hints,
            "link_traffic": dict(self.link_traffic),
        }

    def load_state_dict(self, state: dict, path: str = "mesh_stats") -> None:
        from repro.common import serialization

        self.messages = int(serialization.require(state, "messages", path))
        self.hops = int(serialization.require(state, "hops", path))
        self.hints = int(serialization.require(state, "hints", path))
        self.link_traffic = Counter({
            str(link): int(count)
            for link, count in serialization.require(
                state, "link_traffic", path
            ).items()
        })


class MeshNoC:
    """Mesh interconnect, drop-in for :class:`SnoopBus` on designs.

    Exposes the bus surface the designs and harness rely on —
    ``attach``/``issue``/``reset_stats``/``stats``/``latency``/
    ``queue``/``tracer``/``fault_next``/``_snoopers``/``state_dict`` —
    plus the directory (:attr:`directory`), the replacement-hint channel
    (:meth:`note_eviction`), and hop accounting (:attr:`mesh_stats`).
    A NoC built without its design's ``queue`` gets a fresh one.
    """

    def __init__(
        self,
        num_tiles: int,
        block_size: int = 64,
        hop_latency: int = MESH_HOP_LATENCY,
        router_latency: int = MESH_ROUTER_LATENCY,
        link_occupancy: int = 0,
        router_occupancy: int = 0,
        queue: "Optional[EventQueue]" = None,
    ) -> None:
        self.topology = MeshTopology(num_tiles)
        self.directory = Directory(num_tiles, block_size)
        self.hop_latency = hop_latency
        self.router_latency = router_latency
        self.link_occupancy = link_occupancy
        self.router_occupancy = router_occupancy
        self.stats = BusStats()
        self.mesh_stats = MeshStats()
        self.tracer = NO_TRACE
        self.queue = queue or EventQueue()
        self.fault_next: "Optional[str]" = None
        # Race faults are bus-schedule perturbations; the mesh keeps the
        # attributes (harness/state-dict surface) but never consumes an
        # armed race — the CLI refuses race faults on this backend.
        self.race_pending: "Optional[str]" = None
        self.last_race: "Optional[str]" = None
        self._snoopers: "List[Tuple[int, Snooper]]" = []
        self._link_busy: "Dict[Tuple[int, int], int]" = {}
        self._router_busy: "Dict[int, int]" = {}

    # ------------------------------------------------------------------
    # Bus-compatible surface

    @property
    def num_tiles(self) -> int:
        return self.topology.num_tiles

    @property
    def latency(self) -> int:
        """Uncontended transaction latency (the bus-latency analogue)."""
        return (
            self.router_latency
            + 2 * self.topology.diameter * self.hop_latency
        )

    @property
    def occupancy(self) -> int:
        """Nonzero when any contention model is active (bus parity)."""
        return max(self.link_occupancy, self.router_occupancy)

    def attach(self, core: int, snooper: Snooper) -> None:
        """Attach ``snooper`` as tile ``core``'s coherence agent."""
        if any(existing == core for existing, _ in self._snoopers):
            raise ValueError(f"core {core} already attached")
        if not 0 <= core < self.num_tiles:
            raise ValueError(
                f"core {core} outside this {self.topology.rows}x"
                f"{self.topology.cols} mesh"
            )
        self._snoopers.append((core, snooper))

    @property
    def num_agents(self) -> int:
        return len(self._snoopers)

    def reset_stats(self) -> None:
        self.stats = BusStats()
        self.mesh_stats = MeshStats()
        self._link_busy.clear()
        self._router_busy.clear()

    # ------------------------------------------------------------------
    # Transactions

    def issue(self, txn: BusTransaction, now: int = 0) -> BusResult:
        """Route ``txn`` through its home directory bank.

        The request travels issuer -> home, the directory forwards it
        to every *recorded* sharer except the issuer (a broadcast would
        snoop everyone; non-holders are no-ops either way, which is the
        4-core equivalence argument), replies aggregate exactly as the
        bus's wired-OR, and the presence vectors update per the op.
        """
        self.stats.record(txn.op.value)
        if self.tracer.enabled:
            self.tracer.emit(
                ev.BUS, cycle=now, core=txn.issuer, address=txn.address,
                op=txn.op.value,
            )
        fault, self.fault_next = self.fault_next, None
        home = self.directory.home(txn.address)
        holders = [
            core for core in self.directory.holders(txn.address)
            if core != txn.issuer
        ]
        wait = self._reserve(txn.issuer, home, holders, now)
        latency = self.latency + wait
        if fault == "delay":
            latency += 10 * self.latency
        self._account(txn.issuer, home, holders)
        result = BusResult(latency=latency)
        if fault == "drop":
            # The forwards are lost in the network before any sharer
            # sees them; the directory still saw the request (its
            # vector updates), so the stale copies downstream are the
            # invariant checker's to flag.
            self.directory.apply(txn)
            return result
        # Each forward leaves the home bank when the request arrives and
        # reaches its sharer ``reach`` cycles later; forwards apply in
        # arrival order (a stable sort on that delay), each after every
        # deferred delivery due by its cycle, and the queue runs up to
        # the completion.
        lookup = dict(self._snoopers)
        reach = {
            core: self.hop_latency * self.topology.hops(home, core)
            for core in holders
        }
        targets = [(core, lookup[core]) for core in holders if core in lookup]
        queue = self.queue
        start = now if now > queue.now else queue.now
        arrive = start + self.router_latency + self.hop_latency * (
            self.topology.hops(txn.issuer, home)
        )
        trace_phases = self.tracer.enabled and self.occupancy
        if trace_phases:
            # The arrival record precedes deliveries due at its cycle.
            queue.run_until(arrive - 1)
            SnoopBus._trace_phase(self.tracer, txn, "home-arrive", arrive)
        for core, snooper in sorted(targets, key=lambda target: reach[target[0]]):
            queue.run_until(arrive + reach[core])
            SnoopBus._collect(result, core, snooper.snoop(txn))
        if fault == "dup":
            # A duplicated delivery re-snoops every sharer after the
            # supplier reset, all at the last forward's cycle and in
            # directory order, mirroring the bus's two-round semantics.
            result.supplier = None
            queue.run_until(arrive + max(reach.values(), default=0))
            for core, snooper in targets:
                SnoopBus._collect(result, core, snooper.snoop(txn))
        queue.run_until(start + latency)
        if trace_phases:
            SnoopBus._trace_phase(self.tracer, txn, "complete", start + latency)
        self.directory.apply(txn)
        return result

    # ------------------------------------------------------------------
    # Occupancy and accounting

    def _traverse(self, src: int, dst: int, start: int) -> int:
        """Walk one message along the XY route; returns its total wait.

        Each directed link is reserved for ``link_occupancy`` cycles;
        a message reaching a still-busy link queues.  No-op (returns 0)
        when the contention model is off.
        """
        if not self.link_occupancy:
            return 0
        time = start
        wait = 0
        for link in self.topology.route(src, dst):
            busy = self._link_busy.get(link, 0)
            if busy > time:
                wait += busy - time
                time = busy
            self._link_busy[link] = time + self.link_occupancy
            time += self.link_occupancy + self.hop_latency
        return wait

    def _reserve(
        self, issuer: int, home: int, holders: "List[int]", now: int
    ) -> int:
        """Total queueing wait for one transaction's message paths.

        Request (issuer -> home), the home router, the slowest forward
        (home -> sharer), and the response (home -> issuer) are on the
        critical path; their waits add to the transaction latency.
        All zero at zero occupancy.
        """
        if not self.link_occupancy and not self.router_occupancy:
            return 0
        wait = self._traverse(issuer, home, now)
        if self.router_occupancy:
            busy = self._router_busy.get(home, 0)
            at_home = now + wait
            if busy > at_home:
                wait += busy - at_home
                at_home = busy
            self._router_busy[home] = at_home + self.router_occupancy
        fanout = max(
            (self._traverse(home, core, now + wait) for core in holders),
            default=0,
        )
        return wait + fanout + self._traverse(home, issuer, now + wait + fanout)

    def _mark_route(self, src: int, dst: int) -> int:
        hops = 0
        for a, b in self.topology.route(src, dst):
            self.mesh_stats.link_traffic[f"{a}->{b}"] += 1
            hops += 1
        return hops

    def _account(
        self, issuer: "Optional[int]", home: int, holders: "List[int]"
    ) -> None:
        """Hop statistics for request + forwards + response."""
        stats = self.mesh_stats
        src = home if issuer is None else issuer
        stats.messages += 2 + len(holders)
        stats.hops += self._mark_route(src, home)
        for core in holders:
            stats.hops += self._mark_route(home, core)
        stats.hops += self._mark_route(home, src)

    # ------------------------------------------------------------------
    # Directory side channels (designs without a bus object, evictions)

    def note_eviction(self, core: int, address: int) -> None:
        """Replacement hint: ``core`` silently dropped its copy.

        The snoopy bus never hears clean evictions; the directory must,
        or its vectors over-approximate forever.  Hints ride the mesh
        (core -> home) but are not coherence transactions — they skip
        ``stats`` and snooping entirely.
        """
        self.directory.discard(address, core)
        self.mesh_stats.hints += 1
        self.mesh_stats.messages += 1
        self.mesh_stats.hops += self._mark_route(
            core, self.directory.home(address)
        )

    def record_protocol_message(
        self, issuer: "Optional[int]", address: int
    ) -> None:
        """Hop accounting for a design that runs its own protocol.

        CMP-NuRAPID's controller applies MESIC itself over its private
        tag arrays (no ``issue`` call); it reports each protocol
        transaction here so mesh traffic is still accounted: request to
        the home bank, forwards to the directory's recorded sharers,
        response back.
        """
        home = self.directory.home(address)
        holders = [
            core for core in self.directory.holders(address)
            if issuer is None or core != issuer
        ]
        self._account(issuer, home, holders)

    # ------------------------------------------------------------------
    # Versioned checkpointing.  The directory is deliberately absent:
    # its vectors are derived state, rebuilt from the restored tag
    # arrays by the owning design's ``load_state_dict`` (which makes
    # the directory-consistency invariant hold by construction after
    # every resume).

    def state_dict(self) -> dict:
        return {
            "num_tiles": self.num_tiles,
            "block_size": self.directory.block_size,
            "hop_latency": self.hop_latency,
            "router_latency": self.router_latency,
            "link_occupancy": self.link_occupancy,
            "router_occupancy": self.router_occupancy,
            "stats": self.stats.state_dict(),
            "mesh_stats": self.mesh_stats.state_dict(),
            "fault_next": self.fault_next,
            "race_pending": self.race_pending,
            "last_race": self.last_race,
            "link_busy": {f"{a}->{b}": t for (a, b), t in self._link_busy.items()},
            "router_busy": dict(self._router_busy),
        }

    def load_state_dict(self, state: dict, path: str = "bus") -> None:
        from repro.common import serialization

        num_tiles = int(serialization.require(state, "num_tiles", path))
        block_size = int(serialization.require(state, "block_size", path))
        if num_tiles != self.num_tiles or block_size != self.directory.block_size:
            self.topology = MeshTopology(num_tiles)
            self.directory = Directory(num_tiles, block_size)
        self.hop_latency = int(serialization.require(state, "hop_latency", path))
        self.router_latency = int(
            serialization.require(state, "router_latency", path)
        )
        self.link_occupancy = int(
            serialization.require(state, "link_occupancy", path)
        )
        self.router_occupancy = int(
            serialization.require(state, "router_occupancy", path)
        )
        self.stats.load_state_dict(
            serialization.require(state, "stats", path), f"{path}.stats"
        )
        self.mesh_stats.load_state_dict(
            serialization.require(state, "mesh_stats", path),
            f"{path}.mesh_stats",
        )
        self.fault_next = state.get("fault_next")
        self.race_pending = state.get("race_pending")
        self.last_race = state.get("last_race")
        self._link_busy = {}
        for key, time in serialization.require(state, "link_busy", path).items():
            a, _, b = str(key).partition("->")
            self._link_busy[(int(a), int(b))] = int(time)
        self._router_busy = {
            int(tile): int(time)
            for tile, time in serialization.require(
                state, "router_busy", path
            ).items()
        }


# ----------------------------------------------------------------------
# Design wiring


def mesh_noc(design) -> "Optional[MeshNoC]":
    """The design's attached mesh NoC, if any (harness/CLI probe)."""
    noc = getattr(design, "noc", None)
    if isinstance(noc, MeshNoC):
        return noc
    bus = getattr(design, "bus", None)
    if isinstance(bus, MeshNoC):
        return bus
    return None


def attach_mesh(design, **noc_kwargs) -> MeshNoC:
    """Rebase ``design`` onto a mesh NoC + directory.

    Designs with a snoopy bus (the private-cache family) get the NoC as
    a drop-in replacement for ``design.bus``, inheriting the attached
    controllers.  CMP-NuRAPID — which runs MESIC over its own tag
    arrays — gets it as ``design.noc``: its sharer enumeration routes
    through the directory, its per-transaction bus latency becomes the
    mesh's diameter-calibrated constant, and its tag chokepoints keep
    the vectors current.  Designs with no interconnect role (shared /
    ideal) carry an inert NoC so the backend is uniform.  The NoC
    shares the design's event queue.
    """
    num_tiles = getattr(design, "num_cores", None) or DEFAULT_NUM_CORES
    noc = MeshNoC(
        num_tiles, block_size=getattr(design, "block_size", 64),
        queue=design.queue, **noc_kwargs
    )
    bus = getattr(design, "bus", None)
    if bus is not None and hasattr(bus, "_snoopers"):
        for core, snooper in bus._snoopers:
            noc.attach(core, snooper)
        noc.tracer = getattr(bus, "tracer", NO_TRACE)
        design.bus = noc
    else:
        design.noc = noc
        if hasattr(design, "bus_latency"):
            design.bus_latency = noc.latency
    return noc
