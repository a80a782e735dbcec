"""Directory-based sharer tracking for the mesh interconnect backend.

At 4 cores the paper's designs keep coherent by broadcasting every
transaction on the snoopy bus and wire-ORing the replies (Section
2.2.2).  Broadcast does not scale: at 16 or 64 cores every miss would
snoop every tile.  This module provides the scalable substitute — a
**directory** of per-block sharer vectors, banked by home tile, that
lets the mesh NoC *forward* each transaction only to the cores that
actually hold a copy.

The protocol itself is unchanged.  The key observation (the 4-core
equivalence argument, DESIGN.md section 14): under the snoopy bus, an
agent without a copy answers a snoop with an empty
:class:`~repro.interconnect.bus.SnoopReply` and transitions nothing —
a no-op.  Delivering the snoop only to the directory's recorded
holders therefore produces the **same per-access state trajectory and
the same wired-OR signals** as broadcasting it, provided the sharer
vector always equals the true holder set.  That invariant is enforced
three ways:

* every tag install/invalidate chokepoint updates the vector
  (``add``/``discard``), and silent evictions send a replacement hint
  (:meth:`~repro.interconnect.mesh.MeshNoC.note_eviction`), so clean
  drops are not silent to the directory;
* the harness invariant checker compares the vector against a full
  tag scan (``check_directory`` in :mod:`repro.harness.invariants`);
* the hypothesis suite drives random interleavings through both
  backends (``tests/test_directory_properties.py``).

MESIC's communication state rides on top unchanged: a C-state write's
WrThru/BusRdX pair, controlled replication's pointer return, and
in-situ communication's downgrade all reach exactly the tag copies
they would have reached by broadcast, so CR/ISC/CS run unmodified on
the directory (the point of the scale experiment).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.interconnect.bus import BusOp, BusTransaction


class Directory:
    """Per-home-bank sharer vectors for one mesh machine.

    One bank per tile; a block's **home** is its block address
    interleaved across tiles (the bank co-located with that tile's L2
    d-group).  Each bank maps block-aligned addresses to a bitmask of
    cores holding a tag copy.  The directory records *presence only* —
    per-copy MESIC state stays in the tag arrays, and the NoC queries
    the recorded holders for their state exactly as a snoop would, so
    the protocol tables in :mod:`repro.coherence.mesic` and
    :mod:`repro.coherence.mesi` are reused verbatim.
    """

    def __init__(self, num_tiles: int, block_size: int) -> None:
        if num_tiles < 1:
            raise ValueError(f"need at least one tile, got {num_tiles}")
        if block_size < 1 or block_size & (block_size - 1):
            raise ValueError(f"block_size must be a power of two, got {block_size}")
        self.num_tiles = num_tiles
        self.block_size = block_size
        self._block_shift = block_size.bit_length() - 1
        self.banks: "List[Dict[int, int]]" = [{} for _ in range(num_tiles)]

    # ------------------------------------------------------------------
    # Addressing

    def block_of(self, address: int) -> int:
        return (address >> self._block_shift) << self._block_shift

    def home(self, address: int) -> int:
        """Home tile of ``address`` (block-interleaved across tiles)."""
        return (address >> self._block_shift) % self.num_tiles

    def _bank(self, address: int) -> "Dict[int, int]":
        return self.banks[self.home(address)]

    # ------------------------------------------------------------------
    # Sharer-vector reads

    def mask(self, address: int) -> int:
        """Bitmask of cores recorded as holding ``address``."""
        return self._bank(address).get(self.block_of(address), 0)

    def holders(self, address: int) -> "Tuple[int, ...]":
        """Recorded holders in ascending core order.

        Ascending order matches the snoopy bus's attach order, so the
        forwarded snoops fire in the same sequence a broadcast would.
        """
        mask = self.mask(address)
        out = []
        core = 0
        while mask:
            if mask & 1:
                out.append(core)
            mask >>= 1
            core += 1
        return tuple(out)

    def entries(self) -> "Iterator[Tuple[int, int, int]]":
        """Yield every (home_tile, block_address, mask) with sharers."""
        for tile, bank in enumerate(self.banks):
            for address, mask in bank.items():
                if mask:
                    yield tile, address, mask

    # ------------------------------------------------------------------
    # Sharer-vector updates (the tag chokepoints call these)

    def add(self, address: int, core: int) -> None:
        block = self.block_of(address)
        bank = self._bank(address)
        bank[block] = bank.get(block, 0) | (1 << core)

    def discard(self, address: int, core: int) -> None:
        block = self.block_of(address)
        bank = self._bank(address)
        mask = bank.get(block, 0) & ~(1 << core)
        if mask:
            bank[block] = mask
        else:
            bank.pop(block, None)

    def set_solo(self, address: int, core: int) -> None:
        """Collapse the vector to one holder (invalidating transactions)."""
        self._bank(address)[self.block_of(address)] = 1 << core

    def clear(self, address: int) -> None:
        self._bank(address).pop(self.block_of(address), None)

    def clear_all(self) -> None:
        for bank in self.banks:
            bank.clear()

    def apply(self, txn: BusTransaction) -> None:
        """Presence update for one forwarded transaction.

        Mirrors what each op's snoop does to the *set* of copies under
        broadcast MESI/MESIC: reads and write-through updates add the
        issuer to the sharers, invalidating ops (BusRdX/BusUpg) leave
        the issuer as the only copy, and a data replacement (BusRepl)
        evicts every tag copy.
        """
        if txn.op in (BusOp.BUS_RD, BusOp.WR_THRU):
            self.add(txn.address, txn.issuer)
        elif txn.op in (BusOp.BUS_RDX, BusOp.BUS_UPG):
            self.set_solo(txn.address, txn.issuer)
        elif txn.op is BusOp.BUS_REPL:
            self.clear(txn.address)

    # ------------------------------------------------------------------
    # Checkpointing: the vectors are *derived* state — loads rebuild
    # them from the restored tag arrays (``rebuild``), which guarantees
    # the directory-consistency invariant holds immediately after a
    # resume and keeps snapshots free of redundant encodings.

    def rebuild(self, holders_by_address: "Dict[int, int]") -> None:
        """Replace all vectors with ``{block_address: mask}``."""
        self.clear_all()
        for address, mask in holders_by_address.items():
            if mask:
                self._bank(address)[self.block_of(address)] = int(mask)
