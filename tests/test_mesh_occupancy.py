"""Property tests: the mesh NoC's link and router occupancy model.

With ``link_occupancy``/``router_occupancy`` set, every message a
transaction sends reserves each directed link of its XY route, and the
home router, for that many cycles; a message that reaches a busy
resource queues, and the queueing surfaces as the transaction's wait
(``BusResult.latency - MeshNoC.latency``).  Hypothesis drives random
transaction sequences (op, block, issuer, issue cycle) through 4-, 8-
and 16-tile meshes and checks:

* zero occupancy gives every transaction zero wait, the paper's
  uncontended charge that the 4-core bus equivalence rests on;
* waits are never negative;
* successive reservations of one directed link never overlap.

Waits are not monotone in occupancy, so no property claims it: raising
``link_occupancy`` slows a message's own traversal, which can carry it
past a router-delayed reservation it used to queue behind.
"""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interconnect.bus import BusOp, BusTransaction
from repro.interconnect.mesh import MeshNoC

LINE = 64

transactions = st.lists(
    st.tuples(
        st.sampled_from(list(BusOp)),
        st.integers(min_value=0, max_value=31),  # block
        st.integers(min_value=0, max_value=15),  # issuer, folded per mesh
        st.integers(min_value=0, max_value=2_000),  # issue cycle
    ),
    min_size=1,
    max_size=40,
)
tiles = st.sampled_from((4, 8, 16))
occupancy = st.integers(min_value=0, max_value=16)


def waits(noc, sequence):
    """Issue ``sequence`` on ``noc``; each transaction's queueing wait."""
    return [
        noc.issue(
            BusTransaction(op, block * LINE, issuer % noc.num_tiles), now
        ).latency - noc.latency
        for op, block, issuer, now in sequence
    ]


class _ReservationLog(dict):
    """A link-busy table that also logs every reservation's end cycle."""

    def __init__(self):
        super().__init__()
        self.ends = defaultdict(list)

    def __setitem__(self, link, end):
        self.ends[link].append(end)
        super().__setitem__(link, end)


@settings(max_examples=100, deadline=None)
@given(tiles, transactions)
def test_zero_occupancy_gives_zero_wait(num_tiles, sequence):
    assert waits(MeshNoC(num_tiles), sequence) == [0] * len(sequence)


@settings(max_examples=100, deadline=None)
@given(tiles, transactions, occupancy, occupancy)
def test_waits_are_never_negative(num_tiles, sequence, link, router):
    noc = MeshNoC(num_tiles, link_occupancy=link, router_occupancy=router)
    assert min(waits(noc, sequence)) >= 0


@settings(max_examples=100, deadline=None)
@given(tiles, transactions, st.integers(min_value=1, max_value=16), occupancy)
def test_link_reservations_never_overlap(num_tiles, sequence, link, router):
    noc = MeshNoC(num_tiles, link_occupancy=link, router_occupancy=router)
    log = noc._link_busy = _ReservationLog()
    waits(noc, sequence)
    for route_link, ends in log.ends.items():
        for earlier, later in zip(ends, ends[1:]):
            # A reservation spans [end - link, end).
            assert later - link >= earlier, (
                f"link {route_link}: [{later - link}, {later}) overlaps "
                f"the reservation ending at {earlier}"
            )
