"""Versioned checkpoint format: round-trips, refactors, corruption.

Three contracts of :mod:`repro.harness.checkpoint`:

* **round-trip** — save → load → resume equals the uninterrupted run
  event-for-event (Hypothesis drives random design/workload/seed/cut
  combinations, including runs with a race fault armed);
* **refactor survival** — a checkpoint references no internal classes,
  so it loads even after the design class is renamed;
* **diagnostics** — every corruption mode (truncated tail, flipped
  magic, unknown version, malformed meta or pending-event argument,
  mismatched array shape, interrupted write, stale class reference)
  raises :class:`CheckpointError` naming the failing field, never a
  bare pickle exception.
"""

import gzip
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.base import SetAssociativeArray
from repro.caches.private import PrivateCaches
from repro.caches.shared import SharedCache
from repro.cli import main as cli_main
from repro.coherence.states import CoherenceState
from repro.common.params import (
    KB,
    CacheGeometry,
    L1Params,
    NurapidParams,
    PrivateCacheParams,
    SharedCacheParams,
    SystemParams,
)
from repro.common.serialization import StateDictError
from repro.common.types import Access, AccessType
from repro.core.nurapid import NurapidCache
from repro.cpu.system import CmpSystem, TimedAccess
from repro.experiments.runner import DESIGN_FACTORIES
from repro.harness import (
    FORMAT_VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.interconnect.bus import BusOp
from repro.interconnect.mesh import attach_mesh
from repro.obs.tracer import Tracer
from repro.workloads.multithreaded import make_workload

SMALL_L1 = SystemParams(l1=L1Params(geometry=CacheGeometry(4 * KB, 2, 64)))

SMALL_DESIGNS = {
    "cmp-nurapid": lambda: NurapidCache(
        NurapidParams(dgroup_capacity_bytes=4 * KB, tag_associativity=2)
    ),
    "private": lambda: PrivateCaches(
        PrivateCacheParams(geometry=CacheGeometry(4 * KB, 2, 128))
    ),
    "uniform-shared": lambda: SharedCache(
        SharedCacheParams(geometry=CacheGeometry(16 * KB, 4, 128))
    ),
}


def small_system(design_name):
    design = SMALL_DESIGNS[design_name]()
    return CmpSystem(design, SMALL_L1), design


def workload_events(name, seed, count):
    workload = make_workload(name, seed=seed)
    return list(
        itertools.islice(workload.events(accesses_per_core=count), count * 4)
    )


def write_v2(tmp_path, design_name="cmp-nurapid", steps=200,
             name="fixture.ck"):
    """A short prefix run saved as v2; returns (path, system, events)."""
    system, _ = small_system(design_name)
    events = workload_events("oltp", 9, 100)
    for event in events[:steps]:
        system.step(event)
    path = tmp_path / name
    save_checkpoint(system, steps, path, {"design": design_name, "seed": 9})
    return path, system, events


def race_system():
    """A private system stopped inside an open race window, so a
    snapshot of it carries one pending deferred snoop delivery."""
    system, design = small_system("private")
    system.step(TimedAccess(Access(0, 0x1000, AccessType.READ)))
    design.bus.race_pending = "race-reorder"
    system.step(TimedAccess(Access(1, 0x1000, AccessType.WRITE)))
    return system, design


def rewrite_v2(path, mutate):
    """Unpickle a v2 envelope, apply ``mutate(payload)``, re-write it."""
    payload = pickle.loads(gzip.decompress(path.read_bytes()))
    mutate(payload)
    path.write_bytes(gzip.compress(pickle.dumps(payload), mtime=0))


# ----------------------------------------------------------------------
# Round-trip property (Hypothesis)


@settings(max_examples=12, deadline=None)
@given(
    design_name=st.sampled_from(sorted(SMALL_DESIGNS)),
    workload=st.sampled_from(["oltp", "apache"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    cut=st.integers(min_value=1, max_value=399),
    arm_race=st.booleans(),
)
def test_roundtrip_equals_uninterrupted_run(
    tmp_path_factory, design_name, workload, seed, cut, arm_race
):
    """save → load → resume == never-interrupted, event for event.

    When ``arm_race`` holds (private only), a race-reorder fault is
    armed on the default bus before the cut, so the checkpoint may
    carry the sticky arm, the open race window, or a pending deferred
    snoop delivery — resume must reproduce all three cases exactly.
    """
    path = tmp_path_factory.mktemp("ck") / "round.ck"
    system, design = small_system(design_name)
    events = workload_events(workload, seed, 100)
    racing = arm_race and design_name == "private"
    for index, event in enumerate(events[:cut]):
        if racing and index == cut // 2:
            design.bus.race_pending = "race-reorder"
        system.step(event)
    save_checkpoint(
        system, cut, path, {"design": design_name, "seed": seed}
    )
    resumed = load_checkpoint(path).system
    for event in events[cut:]:
        system.step(event)
        resumed.step(event)
    assert system.stats().fingerprint() == resumed.stats().fingerprint()
    queue, resumed_queue = design.queue, resumed.design.queue
    assert (queue.now, queue.fired, queue.pending) == (
        resumed_queue.now, resumed_queue.fired, resumed_queue.pending
    )


def test_checkpoint_carries_pending_deferred_event(tmp_path):
    """A cut inside an open race window round-trips the late delivery."""
    system, design = race_system()
    queue = design.queue
    pending = [
        (e.time, e.seq, e.label)
        for e in queue.pending_events()
    ]
    assert pending, "race-reorder did not defer a snoop delivery"
    path = tmp_path / "race.ck"
    save_checkpoint(system, 2, path, {"design": "private"})
    resumed = load_checkpoint(path).system
    restored_queue = resumed.design.queue
    assert [
        (e.time, e.seq, e.label)
        for e in restored_queue.pending_events()
    ] == pending
    for step_system in (system, resumed):
        for core, address in ((2, 0x1000), (0, 0x2000), (1, 0x3000)):
            step_system.step(TimedAccess(Access(core, address, AccessType.READ)))
    assert system.stats().fingerprint() == resumed.stats().fingerprint()
    assert queue.fired == restored_queue.fired
    assert queue.pending == restored_queue.pending


def contended_private(bus_model):
    """Private caches on a bus with occupancy 8 or a mesh with link
    occupancy 2: the settings that record phase trace records."""
    if bus_model == "atomic":
        return PrivateCaches(bus_occupancy=8)
    design = PrivateCaches()
    attach_mesh(design, link_occupancy=2)
    return design


@pytest.mark.parametrize("bus_model", ["atomic", "mesh"])
def test_tracing_does_not_change_checkpoints(tmp_path, bus_model):
    """A traced and an untraced run of one contended system snapshot to
    the same bytes: phase trace records never touch the model's event
    queue, whose counters every checkpoint stores."""
    blobs = []
    for tracer in (None, Tracer(capacity=16)):
        system = CmpSystem(contended_private(bus_model), tracer=tracer)
        system.run_chunks(make_workload("oltp", seed=3).chunks(1000))
        path = tmp_path / f"traced-{tracer is not None}.ck"
        save_checkpoint(system, 4000, path, {"design": "private"})
        blobs.append(path.read_bytes())
    assert tracer.emitted > 0
    assert blobs[0] == blobs[1]


def test_new_snapshots_and_windows_name_the_atomic_bus(tmp_path, monkeypatch):
    """``eventq`` is only ever read: a run that selects it through the
    environment writes ``atomic`` into its checkpoint envelope, its
    metadata and its crash window's machine line."""
    monkeypatch.setenv("REPRO_BUS_MODEL", "eventq")
    path = tmp_path / "race.ck"
    code = cli_main([
        "run", "--design", "private", "--accesses", "3000", "--warmup", "0",
        "--check-invariants", "1", "--inject-fault", "race-reorder@100",
        "--checkpoint", str(path), "--checkpoint-every", "50",
    ])
    assert code == 3
    payload = pickle.loads(gzip.decompress(path.read_bytes()))
    assert payload["bus_model"] == payload["meta"]["bus_model"] == "atomic"
    assert "eventq" in payload["state"]
    window = path.with_name(path.name + ".window")
    assert window.read_text().splitlines()[1] == (
        "# machine: cores=4 bus_model=atomic"
    )


# ----------------------------------------------------------------------
# Refactor survival


class RenamedNurapidCache(NurapidCache):
    """Stand-in for a post-refactor rename of the design class."""


def test_v2_checkpoint_survives_class_rename(tmp_path, monkeypatch):
    """v2 stores no class references: loading instantiates whatever
    class the factory registry *currently* maps the design name to."""
    path, system, events = write_v2(tmp_path)
    monkeypatch.setitem(
        DESIGN_FACTORIES,
        "cmp-nurapid",
        lambda **kwargs: RenamedNurapidCache(
            NurapidParams(**kwargs) if kwargs else NurapidParams()
        ),
    )
    checkpoint = load_checkpoint(path)
    resumed = checkpoint.system
    assert type(resumed.design) is RenamedNurapidCache
    for event in events[200:]:
        system.step(event)
        resumed.step(event)
    assert system.stats().fingerprint() == resumed.stats().fingerprint()


def test_checkpoint_with_stale_class_reference_is_diagnosed(tmp_path):
    """Loading unpickles, so a ``--resume`` file can name a class that
    no longer resolves; that shows up as a CheckpointError, not a raw
    AttributeError."""
    path = tmp_path / "stale.ck"
    # GLOBAL opcode referencing a module attribute that does not exist.
    path.write_bytes(b"cos\nno_such_attribute_xyz\n.")
    with pytest.raises(CheckpointError, match="AttributeError"):
        load_checkpoint(path)


def test_checkpoint_with_missing_module_is_diagnosed(tmp_path):
    path = tmp_path / "gone.ck"
    path.write_bytes(b"cno_such_module_xyz\nSomeClass\n.")
    with pytest.raises(CheckpointError, match="ModuleNotFoundError"):
        load_checkpoint(path)


# ----------------------------------------------------------------------
# Corruption fuzz: every failure is a named CheckpointError


def test_missing_file_is_diagnosed(tmp_path):
    with pytest.raises(CheckpointError, match="does not exist"):
        load_checkpoint(tmp_path / "nope.ck")


def test_interrupted_write_leaves_diagnosable_temp_file(tmp_path):
    """A mid-write kill leaves ``x.ck.tmp`` and no ``x.ck``."""
    path, _, _ = write_v2(tmp_path)
    partial = path.read_bytes()[: path.stat().st_size // 2]
    target = tmp_path / "killed.ck"
    (tmp_path / "killed.ck.tmp").write_bytes(partial)
    with pytest.raises(CheckpointError, match="killed mid-checkpoint"):
        load_checkpoint(target)


@pytest.mark.parametrize("keep", [10, 100, 1000])
def test_truncated_tail_is_diagnosed(tmp_path, keep):
    path, _, _ = write_v2(tmp_path)
    data = path.read_bytes()
    assert keep < len(data)
    path.write_bytes(data[:keep])
    with pytest.raises(CheckpointError, match="truncated|unreadable"):
        load_checkpoint(path)


def test_flipped_magic_is_diagnosed(tmp_path):
    path, _, _ = write_v2(tmp_path)
    rewrite_v2(path, lambda payload: payload.update(magic="repro-chkpoint"))
    with pytest.raises(CheckpointError, match="'magic'"):
        load_checkpoint(path)


def test_foreign_pickle_is_diagnosed(tmp_path):
    path = tmp_path / "foreign.ck"
    path.write_bytes(pickle.dumps({"hello": "world"}))
    with pytest.raises(CheckpointError, match="not a repro checkpoint"):
        load_checkpoint(path)


@pytest.mark.parametrize("version", [1, 99])
def test_unknown_version_without_migration_path_is_diagnosed(
    tmp_path, version
):
    """Only FORMAT_VERSION loads: the retired v1 layout and a future
    one are both named errors."""
    path, _, _ = write_v2(tmp_path)
    rewrite_v2(path, lambda payload: payload.update(version=version))
    with pytest.raises(CheckpointError, match=rf"'version' is {version};"):
        load_checkpoint(path)


def test_unknown_design_is_diagnosed(tmp_path):
    path, _, _ = write_v2(tmp_path)
    rewrite_v2(path, lambda payload: payload.update(design="cmp-nurapid-v9"))
    with pytest.raises(CheckpointError, match="'design'.*cmp-nurapid-v9"):
        load_checkpoint(path)


def test_mismatched_array_shape_names_the_field(tmp_path):
    path, _, _ = write_v2(tmp_path)

    def chop_tag_column(payload):
        entries = payload["state"]["design"]["tags"][0]["entries"]
        entries["set_index"] = entries["set_index"][:-1]

    rewrite_v2(path, chop_tag_column)
    with pytest.raises(
        CheckpointError, match=r"tags\[0\]\.entries\..*column length"
    ):
        load_checkpoint(path)


def test_garbage_bytes_are_diagnosed(tmp_path):
    path = tmp_path / "noise.ck"
    path.write_bytes(b"\x00\x01\x02 this is not a checkpoint \xff" * 7)
    with pytest.raises(CheckpointError, match="unreadable"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("meta", 5),
        ("meta", "x"),
        ("meta", [1, 2]),
        ("meta", None),
        ("events", 5),
        ("action", [[], "x"]),
        ("args", [("frameptr", 1)]),
        ("args", [("lit",)]),
        ("args", [("snooper", "x")]),
        ("args", [("bustxn", BusOp.BUS_RD.value, "a", 0)]),
    ],
    ids=[
        "meta-int", "meta-str", "meta-list", "meta-none", "events-int",
        "action-unhashable", "frameptr-short", "lit-short", "snooper-str",
        "bustxn-str",
    ],
)
def test_malformed_envelope_field_is_diagnosed(tmp_path, field, value):
    """A malformed ``meta`` or pending event is a named error, not a
    bare TypeError/ValueError/IndexError."""
    path = tmp_path / "bad.ck"
    save_checkpoint(race_system()[0], 2, path, {"design": "private"})

    def corrupt(payload):
        if field == "meta":
            payload["meta"] = value
        elif field == "events":
            payload["state"]["eventq"]["events"] = value
        else:
            payload["state"]["eventq"]["events"][0][field] = value

    rewrite_v2(path, corrupt)
    match = {
        "meta": "'meta'",
        "events": r"eventq\.events: ",
        "action": r"eventq\.events\[0\]\.action",
        "args": r"eventq\.events\[0\]\.args",
    }[field]
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def test_duplicate_tag_array_row_is_diagnosed(tmp_path, capsys):
    """Two snapshot rows naming one (set, way) would silently drop a
    block on load; the second row is named instead."""
    geometry = CacheGeometry(4 * KB, 4, 64)  # 16 sets of 4 ways
    array = SetAssociativeArray(geometry)
    for address in (0x0, 0x400):  # both in set 0
        array.install(array.victim(address), address, CoherenceState.SHARED)
    state = array.state_dict()
    state["way"][:] = 0
    with pytest.raises(StateDictError, match=r"array\.way\[1\]: set 0 way 0 listed"):
        SetAssociativeArray(geometry).load_state_dict(state)

    path, _, _ = write_v2(tmp_path)

    def duplicate_first_row(payload):
        entries = payload["state"]["design"]["tags"][1]["entries"]
        entries["set_index"][1] = entries["set_index"][0]
        entries["way"][1] = entries["way"][0]

    rewrite_v2(path, duplicate_first_row)
    with pytest.raises(CheckpointError, match=r"tags\[1\]\.entries\.way\[1\]: set"):
        load_checkpoint(path)
    code, _, err = run_cli(capsys, "run", "--resume", str(path))
    assert code == 2
    assert "listed twice" in err


# ----------------------------------------------------------------------
# CLI surface


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_checkpoint_writes_gzip_and_resumes(tmp_path, capsys):
    path = tmp_path / "run.ck"
    code, _, _ = run_cli(
        capsys,
        "run", "--design", "private", "--workload", "oltp",
        "--accesses", "300", "--warmup", "0", "--checkpoint", str(path),
    )
    assert code == 0
    assert path.read_bytes()[:2] == b"\x1f\x8b"
    code, out, _ = run_cli(capsys, "run", "--resume", str(path))
    assert code == 0
    assert "design: private" in out


def test_cli_reports_corrupt_resume_as_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.ck"
    path.write_bytes(b"cno_such_module_xyz\nSomeClass\n.")
    code, _, err = run_cli(capsys, "run", "--resume", str(path))
    assert code == 2
    assert "ModuleNotFoundError" in err


def test_cli_reports_malformed_meta_resume_as_usage_error(tmp_path, capsys):
    path, _, _ = write_v2(tmp_path)
    rewrite_v2(path, lambda payload: payload.update(meta=[1, 2]))
    code, _, err = run_cli(capsys, "run", "--resume", str(path))
    assert code == 2
    assert "'meta'" in err


def test_default_format_version_is_two():
    assert FORMAT_VERSION == 2
