"""Protocol race faults: schedule perturbations the checker must catch.

Unlike the structural faults (which corrupt state directly), the race
classes perturb the *event schedule* — a bus grant reordered past a
transaction's completion, a ``BusRepl``'s invalidations delivered late,
a stale snoop reply excluded from aggregation.  Each test engineers the
minimal sharing pattern for its race, arms the fault, and asserts:

* the race reproduces deterministically from the seed;
* the invariant checker names the violated contract (exclusivity for
  the bus races, tag-pointer for the late ``BusRepl``);
* the perturbation is a *legal-schedule* anomaly, not corruption:
  draining the deferred delivery heals the model;
* a checkpoint taken inside the race window round-trips the pending
  deferred event;
* the CLI surfaces each race as exit code 3 with a diagnostic.
"""

import pytest

from repro.caches.private import PrivateCaches
from repro.cli import main as cli_main
from repro.common.params import (
    KB,
    CacheGeometry,
    L1Params,
    NurapidParams,
    PrivateCacheParams,
    SystemParams,
)
from repro.common.types import Access, AccessType
from repro.core.nurapid import NurapidCache
from repro.cpu.system import CmpSystem, TimedAccess
from repro.harness import (
    FAULT_KINDS,
    RACE_FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    InvariantViolation,
    check_system,
    load_checkpoint,
    save_checkpoint,
)

READ = AccessType.READ
WRITE = AccessType.WRITE

SMALL_L1 = SystemParams(l1=L1Params(geometry=CacheGeometry(4 * KB, 2, 64)))


def private_system():
    design = PrivateCaches(
        PrivateCacheParams(geometry=CacheGeometry(4 * KB, 2, 128))
    )
    return CmpSystem(design, SMALL_L1), design


def nurapid_system():
    design = NurapidCache(
        NurapidParams(dgroup_capacity_bytes=4 * KB, tag_associativity=2)
    )
    return CmpSystem(design, SMALL_L1), design


def step(system, core, address, access_type=READ):
    system.step(TimedAccess(Access(core, address, access_type)))


def deliver_deferred(queue):
    """Fire every pending deferred delivery."""
    queue.run_until(max(event.time for event in queue.pending_events()))


# ----------------------------------------------------------------------
# Engineered minimal races (library level)


def provoke_bus_race(kind):
    """Arm ``kind`` on a two-core sharing pattern; return (system, design)."""
    system, design = private_system()
    step(system, 0, 0x1000, READ)  # core 0 takes the block Exclusive
    design.bus.race_pending = kind
    # The racing transaction: a write (BusRdX) for reorder, a read
    # (BusRd with one holder) for stale-snoop.
    racing_type = WRITE if kind == "race-reorder" else READ
    step(system, 1, 0x1000, racing_type)
    return system, design


@pytest.mark.parametrize("kind", ["race-reorder", "race-stale-snoop"])
def test_bus_race_breaks_exclusivity(kind):
    system, design = provoke_bus_race(kind)
    assert design.bus.last_race is not None
    assert kind in design.bus.last_race
    with pytest.raises(InvariantViolation) as caught:
        check_system(system)
    assert caught.value.invariant == "exclusivity"


def test_reorder_heals_when_deferred_snoop_delivers():
    """The reorder victim's snoop is deferred, not dropped: delivering
    it closes the race window and the model is legal again."""
    system, design = provoke_bus_race("race-reorder")
    assert design.queue.pending > 0
    deliver_deferred(design.queue)
    check_system(system)


def test_stale_snoop_heals_on_third_core_rdx():
    """The stale reply leaves a persistent extra copy (no deferred
    event to drain); a third core's BusRdX snoops and invalidates
    *both* divergent holders, restoring a legal single-owner state."""
    system, design = provoke_bus_race("race-stale-snoop")
    assert design.queue.pending == 0
    step(system, 2, 0x1000, WRITE)
    check_system(system)


def test_stale_snoop_trips_protocol_on_stale_upgrade():
    """If instead the *stale* S holder writes, its BusUpg reaches the
    other copy still in E — a transition the MESI model rejects
    outright: the race is caught even without the invariant checker."""
    system, _ = provoke_bus_race("race-stale-snoop")
    with pytest.raises(RuntimeError, match="BusUpg"):
        step(system, 0, 0x1000, WRITE)


def provoke_delay_repl():
    """Arm race-delay-repl and drive evictions until it triggers."""
    system, design = nurapid_system()
    step(system, 0, 0x10000, READ)
    step(system, 1, 0x10000, READ)  # both cores share the block
    design.race_delay_repl = True
    block = design.block_size
    for offset in range(4096):
        if design.last_race is not None:
            break
        step(system, 0, 0x40000 + offset * block, READ)
    assert design.last_race is not None, "eviction pressure never hit the shared block"
    return system, design


def test_delay_repl_breaks_tag_pointer_then_heals():
    system, design = provoke_delay_repl()
    assert "race-delay-repl" in design.last_race
    assert design.queue.pending == 1  # the late BusRepl delivery
    with pytest.raises(InvariantViolation) as caught:
        check_system(system)
    assert caught.value.invariant == "tag-pointer"
    deliver_deferred(design.queue)
    check_system(system)  # delivery invalidates the stale sharers


@pytest.mark.parametrize("kind", ["race-reorder", "race-stale-snoop"])
def test_bus_race_deterministic_from_seed(kind):
    descriptions, messages = set(), set()
    for _ in range(2):
        system, design = provoke_bus_race(kind)
        descriptions.add(design.bus.last_race)
        with pytest.raises(InvariantViolation) as caught:
            check_system(system)
        messages.add(str(caught.value))
    assert len(descriptions) == 1
    assert len(messages) == 1


def test_delay_repl_deterministic_from_seed():
    descriptions = set()
    for _ in range(2):
        _, design = provoke_delay_repl()
        descriptions.add(design.last_race)
    assert len(descriptions) == 1


def test_checkpoint_roundtrips_pending_deferred_event(tmp_path):
    """A snapshot inside the race window must carry the pending event."""
    system, design = provoke_delay_repl()
    path = tmp_path / "race.ck"
    save_checkpoint(system, 0, str(path), {"race": design.last_race})
    restored = load_checkpoint(str(path)).system
    queue = restored.design.queue
    assert queue.pending == 1
    with pytest.raises(InvariantViolation):
        check_system(restored)  # the window is still open after resume
    deliver_deferred(queue)
    check_system(restored)  # and the deferred delivery still heals it


# ----------------------------------------------------------------------
# FaultInjector integration


def test_race_kinds_registered():
    assert set(RACE_FAULT_KINDS) <= set(FAULT_KINDS)
    assert set(RACE_FAULT_KINDS) == {
        "race-reorder", "race-delay-repl", "race-stale-snoop"
    }


@pytest.mark.parametrize("kind", ["race-reorder", "race-stale-snoop"])
def test_injector_arms_bus_race(kind):
    system, design = private_system()
    injector = FaultInjector((FaultSpec(kind, 0),))
    injector.maybe_inject(system, 0)
    assert injector.log[0].data["applied"] is True
    assert design.bus.race_pending == kind


def test_injector_arms_delay_repl():
    system, design = nurapid_system()
    injector = FaultInjector((FaultSpec("race-delay-repl", 0),))
    injector.maybe_inject(system, 0)
    assert injector.log[0].data["applied"] is True
    assert design.race_delay_repl is True


@pytest.mark.parametrize(
    "kind,design_factory,applied",
    [
        ("race-reorder", PrivateCaches, True),
        ("race-delay-repl", NurapidCache, True),
        ("race-delay-repl", PrivateCaches, False),  # wrong design entirely
    ],
    ids=[
        "race-reorder-PrivateCaches",
        "race-delay-repl-NurapidCache",
        "race-delay-repl-PrivateCaches",
    ],
)
def test_injector_arms_race_on_default_bus(kind, design_factory, applied):
    """A design built plainly, on the default bus, takes a race: its
    own event queue holds the deferred delivery."""
    system = CmpSystem(design_factory())
    injector = FaultInjector((FaultSpec(kind, 0),))
    injector.maybe_inject(system, 0)
    assert injector.log[0].data["applied"] is applied


# ----------------------------------------------------------------------
# CLI surface (exit code 3 + diagnostic, flag validation)


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("kind", ["race-reorder", "race-stale-snoop"])
def test_cli_race_exits_3(tmp_path, kind, capsys, monkeypatch):
    """Both bus races land on the default backend."""
    monkeypatch.delenv("REPRO_BUS_MODEL", raising=False)
    code, _, err = run_cli(
        capsys,
        "run", "--design", "private",
        "--accesses", "3000", "--warmup", "0",
        "--check-invariants", "1",
        "--inject-fault", f"{kind}@100",
        "--checkpoint", str(tmp_path / "race.ck"),
    )
    assert code == 3
    assert "invariant violation: [exclusivity]" in err


def test_cli_race_rejected_on_mesh(capsys, monkeypatch):
    """The mesh never consumes a bus race: every race kind is refused
    there, whether the flag or the environment selects the mesh."""
    races = [
        arg for kind in RACE_FAULT_KINDS
        for arg in ("--inject-fault", f"{kind}@100")
    ]
    for env, flags in (("", ("--bus-model", "mesh")), ("mesh", ())):
        monkeypatch.setenv("REPRO_BUS_MODEL", env)
        code, _, err = run_cli(
            capsys,
            "run", "--design", "private", *flags, *races,
            "--accesses", "500", "--warmup", "0",
        )
        assert code == 2
        assert "--bus-model mesh" in err
        assert all(kind in err for kind in RACE_FAULT_KINDS)


def test_cli_delay_repl_accepted(capsys, monkeypatch):
    """Armed on the default backend but never triggered (the full-size
    cache never evicts a shared block in a short run): the run must
    still complete cleanly — arming is a perturbation, not corruption."""
    monkeypatch.delenv("REPRO_BUS_MODEL", raising=False)
    code, out, _ = run_cli(
        capsys,
        "run", "--design", "cmp-nurapid",
        "--accesses", "2000", "--warmup", "0",
        "--check-invariants", "1",
        "--inject-fault", "race-delay-repl@100",
    )
    assert code == 0
    assert "throughput" in out
