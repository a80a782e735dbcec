"""Versioned, design-aware checkpoints with bit-identical resume.

A checkpoint snapshots the simulator as a **state dict**: every
stateful component — tag arrays, data frames and free lists,
LRU/timestamp clocks, MESIC line states, CR pointer maps, per-core
timing, RNG bit-generator states, pending event-queue deferrals —
contributes plain dicts of primitives and numpy arrays via its
``state_dict()`` method.  The envelope written to disk holds only
that data plus identification fields::

    {"magic": "repro-checkpoint", "version": 2,
     "design": <DESIGN_FACTORIES name>,
     "bus_model": "atomic"|"eventq"|"mesh",
     "seed": <workload seed or None>, "event_index": <int>,
     "meta": {...caller metadata...}, "state": {...state dicts...}}

Loading **rebuilds** the system through
:func:`~repro.experiments.runner.build_design` + ``CmpSystem`` and
injects the state with ``load_state_dict()`` — internal classes are
never unpickled, so renaming or refactoring them cannot invalidate a
snapshot.  The envelope is validated (magic, version, design name,
bus model, seed, meta, array shapes) with precise
:class:`CheckpointError` diagnostics naming the failing field.  Only
:data:`FORMAT_VERSION` loads; any other version is a named error.

Pending event-queue deferrals (the race faults' late deliveries) are
encoded by *owner and method name* — e.g. ``("design",
"_deliver_bus_repl")`` — with their arguments broken into tagged
primitive tuples, and re-enqueued on load with their original sequence
numbers so the restored heap fires in exactly the pre-checkpoint order.

Files are written atomically (temp file + ``os.replace``); a run killed
mid-checkpoint leaves only a ``*.tmp`` file behind, which the loader
reports explicitly.
"""

from __future__ import annotations

import gzip
import os
import pickle
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.common.serialization import StateDictError

#: The checkpoint payload layout this build writes and reads.
FORMAT_VERSION = 2

_MAGIC = "repro-checkpoint"

_GZIP_MAGIC = b"\x1f\x8b"

#: Exceptions a hostile or stale pickle can raise: I/O and truncation,
#: but also ``AttributeError``/``ModuleNotFoundError``/``ImportError``
#: from class references that no longer resolve after a refactor.
_UNPICKLE_ERRORS = (
    OSError,
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ModuleNotFoundError,
    ImportError,
    IndexError,
    ValueError,
    TypeError,
    zlib.error,
)


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, truncated, or incompatible."""


@dataclass
class Checkpoint:
    """One restored snapshot."""

    event_index: int
    system: Any
    meta: "Dict[str, Any]" = field(default_factory=dict)


# ----------------------------------------------------------------------
# Pending event-queue deferrals
#
# Interconnect transactions run inline, so only the race faults' two
# deferred deliveries can be pending: race-reorder's late snoop, bound
# to the bus, and race-delay-repl's late BusRepl, bound to the design.
# Encoding is by owner key + method name; arguments become tagged
# primitive tuples.


def _action_owners(system) -> "Dict[str, Any]":
    design = system.design
    owners: "Dict[str, Any]" = {"design": design}
    bus = getattr(design, "bus", None)
    if bus is not None:
        owners["bus"] = bus
    return owners


def bus_model_of(design) -> str:
    """The ``--bus-model`` name of ``design``'s interconnect backend."""
    from repro.interconnect.mesh import mesh_noc

    if mesh_noc(design) is not None:
        return "mesh"
    return "eventq" if getattr(design, "queue", None) is not None else "atomic"


def _encode_action(system, event) -> "Tuple[str, str]":
    action = event.action
    name = getattr(action, "__name__", "")
    if name:
        for key, owner in _action_owners(system).items():
            if getattr(owner, name, None) == action:
                return (key, name)
    raise CheckpointError(
        f"pending event {event.label!r} at t={event.time} has an action "
        f"({action!r}) not owned by the design or its bus; it "
        "cannot be checkpointed"
    )


def _encode_arg(system, arg, label: str):
    from repro.core.pointers import FramePtr
    from repro.interconnect.bus import BusTransaction

    if arg is None or isinstance(arg, (bool, int, str)):
        return ("lit", arg)
    if isinstance(arg, FramePtr):
        return ("frameptr", int(arg.dgroup), int(arg.frame))
    if isinstance(arg, BusTransaction):
        return ("bustxn", arg.op.value, arg.address, arg.issuer)
    controllers = getattr(system.design, "controllers", None)
    core = getattr(arg, "core", None)
    if (
        controllers is not None
        and isinstance(core, int)
        and 0 <= core < len(controllers)
        and controllers[core] is arg
    ):
        return ("snooper", core)
    raise CheckpointError(
        f"pending event {label!r} carries an unencodable argument "
        f"{type(arg).__name__}; it cannot be checkpointed"
    )


def _decode_arg(system, encoded, path: str):
    from repro.core.pointers import FramePtr
    from repro.interconnect.bus import BusOp, BusTransaction

    if not isinstance(encoded, (tuple, list)) or not encoded:
        raise CheckpointError(f"{path}: malformed event argument {encoded!r}")
    kind = encoded[0]
    if kind == "lit":
        return encoded[1]
    if kind == "frameptr":
        return FramePtr(int(encoded[1]), int(encoded[2]))
    if kind == "bustxn":
        try:
            op = BusOp(encoded[1])
        except ValueError:
            raise CheckpointError(
                f"{path}: unknown bus op {encoded[1]!r}"
            ) from None
        return BusTransaction(op, int(encoded[2]), int(encoded[3]))
    if kind == "snooper":
        controllers = getattr(system.design, "controllers", None)
        core = int(encoded[1])
        if controllers is None or not 0 <= core < len(controllers):
            raise CheckpointError(
                f"{path}: snooper core {core} does not exist in the "
                "rebuilt design"
            )
        return controllers[core]
    raise CheckpointError(f"{path}: unknown event-argument tag {kind!r}")


def _encode_pending_events(system) -> "List[Dict[str, Any]]":
    queue = system.design.queue
    events = []
    for event in queue.pending_events():
        events.append({
            "time": event.time,
            "seq": event.seq,
            "label": event.label,
            "action": _encode_action(system, event),
            "args": [
                _encode_arg(system, arg, event.label) for arg in event.args
            ],
        })
    return events


def _restore_pending_events(
    system, events: "List[Dict[str, Any]]", path: str
) -> None:
    if not isinstance(events, list):
        raise CheckpointError(f"{path}: expected a list")
    queue = system.design.queue
    owners = _action_owners(system)
    for i, state in enumerate(events):
        epath = f"{path}[{i}]"
        if not isinstance(state, dict):
            raise CheckpointError(f"{epath}: expected a dict")
        try:
            owner_key, name = state["action"]
            owner = owners.get(owner_key)
        except (KeyError, TypeError, ValueError):
            raise CheckpointError(f"{epath}.action: malformed") from None
        if owner is None:
            raise CheckpointError(
                f"{epath}.action: the rebuilt design has no {owner_key!r} "
                "component"
            )
        action = getattr(owner, str(name), None)
        if not callable(action):
            raise CheckpointError(
                f"{epath}.action: {owner_key}.{name} does not exist in "
                "this build"
            )
        try:
            args = tuple(
                _decode_arg(system, arg, f"{epath}.args[{j}]")
                for j, arg in enumerate(state.get("args", ()))
            )
        except (IndexError, TypeError, ValueError) as error:
            raise CheckpointError(
                f"{epath}.args: malformed ({error})"
            ) from None
        try:
            queue.restore_event(
                int(state["time"]), int(state["seq"]), action, args,
                str(state.get("label", "")),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointError(f"{epath}: {error}") from None


# ----------------------------------------------------------------------
# Saving


def save_checkpoint(
    system,
    event_index: int,
    path: "Union[str, Path]",
    meta: "Optional[Dict[str, Any]]" = None,
) -> None:
    """Atomically write a snapshot of ``system`` to ``path``.

    The state-dict envelope is gzip-compressed (the sparse columnar
    arrays compress well) and written atomically (temp file +
    ``os.replace``), so a killed run never leaves a truncated snapshot
    under the final name.
    """
    meta = dict(meta or {})
    path = Path(path)
    temp = path.with_name(path.name + ".tmp")
    design = system.design
    queue = getattr(design, "queue", None)
    try:
        state = system.state_dict()
        if queue is not None:
            state["eventq"]["events"] = _encode_pending_events(system)
    except StateDictError as error:
        raise CheckpointError(f"cannot snapshot system state: {error}") from None
    envelope = {
        "magic": _MAGIC,
        "version": FORMAT_VERSION,
        "design": meta.get("design") or getattr(design, "name", None),
        "bus_model": bus_model_of(design),
        "seed": meta.get("seed"),
        "event_index": event_index,
        "meta": meta,
        "state": state,
    }
    blob = gzip.compress(
        pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL), mtime=0
    )
    with open(temp, "wb") as handle:
        handle.write(blob)
    os.replace(temp, path)


# ----------------------------------------------------------------------
# Loading


def _read_payload(path: Path) -> "Dict[str, Any]":
    """Read, decompress, and unpickle ``path``; check magic and version."""
    try:
        data = path.read_bytes()
    except OSError as error:
        raise CheckpointError(f"checkpoint {path} is unreadable: {error}") from None
    if data[:2] == _GZIP_MAGIC:
        try:
            data = gzip.decompress(data)
        except (OSError, EOFError, zlib.error) as error:
            raise CheckpointError(
                f"checkpoint {path} is truncated or corrupt "
                f"(gzip layer): {error}"
            ) from None
    try:
        payload = pickle.loads(data)
    except _UNPICKLE_ERRORS as error:
        raise CheckpointError(
            f"checkpoint {path} is unreadable "
            f"({type(error).__name__}): {error}"
        ) from None
    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        raise CheckpointError(
            f"{path} is not a repro checkpoint (field 'magic': expected "
            f"{_MAGIC!r}, got {payload.get('magic')!r})"
            if isinstance(payload, dict)
            else f"{path} is not a repro checkpoint"
        )
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} field 'version' is {version!r}; this build "
            f"reads only format version {FORMAT_VERSION}"
        )
    return payload


def _validate_envelope(payload: "Dict[str, Any]", path: Path) -> None:
    from repro.experiments.runner import BUS_MODELS, DESIGN_FACTORIES

    design = payload.get("design")
    if not isinstance(design, str) or design not in DESIGN_FACTORIES:
        raise CheckpointError(
            f"checkpoint {path} field 'design' is {design!r}; known "
            f"designs: {sorted(DESIGN_FACTORIES)}"
        )
    bus_model = payload.get("bus_model")
    if bus_model not in BUS_MODELS:
        raise CheckpointError(
            f"checkpoint {path} field 'bus_model' is {bus_model!r}; "
            f"expected one of {BUS_MODELS}"
        )
    seed = payload.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise CheckpointError(
            f"checkpoint {path} field 'seed' is {seed!r}, not an int"
        )
    event_index = payload.get("event_index")
    if not isinstance(event_index, int) or event_index < 0:
        raise CheckpointError(
            f"checkpoint {path} field 'event_index' is {event_index!r}, "
            "not a non-negative int"
        )
    if not isinstance(payload.get("meta", {}), dict):
        raise CheckpointError(
            f"checkpoint {path} field 'meta' is {payload['meta']!r}, "
            "not a dict"
        )
    if not isinstance(payload.get("state"), dict):
        raise CheckpointError(
            f"checkpoint {path} field 'state' is missing or not a dict"
        )


def load_checkpoint(path: "Union[str, Path]") -> Checkpoint:
    """Load a snapshot, rebuilding the system from its state dict.

    Every failure mode — missing file, interrupted write, truncation,
    foreign file, unknown version, a pickle naming a class that does
    not resolve, a malformed envelope field, or a structurally invalid
    state dict — raises :class:`CheckpointError` naming what failed;
    bare pickle exceptions never escape.
    """
    path = Path(path)
    if not path.exists():
        temp = path.with_name(path.name + ".tmp")
        if temp.exists():
            raise CheckpointError(
                f"checkpoint {path} does not exist, but {temp} does — the "
                "writing run was killed mid-checkpoint; the partial temp "
                "file is not loadable"
            )
        raise CheckpointError(f"checkpoint {path} does not exist")

    payload = _read_payload(path)
    _validate_envelope(payload, path)

    from repro.cpu.system import CmpSystem
    from repro.experiments.runner import build_design

    design = build_design(payload["design"], bus_model=payload["bus_model"])
    system = CmpSystem(design)
    state = payload["state"]
    try:
        system.load_state_dict(state)
    except StateDictError as error:
        raise CheckpointError(
            f"checkpoint {path} state is invalid at field {error.field}: "
            f"{error}"
        ) from None
    events = state.get("eventq", {}).get("events", [])
    if events:
        _restore_pending_events(system, events, f"{path} eventq.events")
    return Checkpoint(
        event_index=payload["event_index"],
        system=system,
        meta=dict(payload.get("meta", {})),
    )
