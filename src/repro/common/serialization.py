"""State-dict plumbing shared by every checkpointable component.

The versioned checkpoint format (:mod:`repro.harness.checkpoint`)
serializes *plain data* — nested dicts of Python scalars, strings,
tuples, and numpy arrays — never the component classes themselves, so
renaming or refactoring an internal class cannot invalidate a snapshot.
This module holds the pieces every component's ``state_dict()`` /
``load_state_dict()`` uses:

* **columnar entry packing** — a set-associative array's valid entries
  become one numpy column per dataclass field (sparse: invalid entries
  are omitted and reconstructed as defaults), with pluggable per-field
  codecs for enum-valued and pointer-valued fields;
* **enum legends** — enum columns are stored as small integer codes
  plus a legend of ``value`` strings, so reordering an enum's members
  does not reinterpret old snapshots;
* **dataclass scalar helpers** — flat counter/int dataclasses
  (statistics blocks) round-trip by field name;
* **RNG capture** — a :class:`numpy.random.Generator` round-trips via
  its bit-generator state dict (plain ints), never by pickling the
  generator object;
* **:class:`StateDictError`** — the structured complaint a loader
  raises, carrying the dotted path of the failing field so
  :class:`~repro.harness.checkpoint.CheckpointError` diagnostics can
  name it precisely.

Loaders are *minor-layout tolerant* by construction: unknown keys in a
state dict are ignored (an older build reading a newer snapshot's
extras) and a missing column leaves the freshly-built default in place
(a newer build reading an older snapshot).  Structural mismatches —
wrong column lengths, out-of-range indices, free-list accounting that
does not add up — are hard errors.
"""

from __future__ import annotations

import dataclasses
import typing
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np


class StateDictError(ValueError):
    """A state dict is structurally invalid for the component loading it.

    Attributes:
        field: dotted path of the offending field (e.g.
            ``design.tags[0].entries.set_index``).
    """

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field


def require(state: "Dict[str, Any]", key: str, path: str) -> Any:
    """Fetch a required key, raising a path-qualified error if absent."""
    if not isinstance(state, dict):
        raise StateDictError(path, f"expected a dict, got {type(state).__name__}")
    if key not in state:
        raise StateDictError(f"{path}.{key}", "missing required field")
    return state[key]


# ----------------------------------------------------------------------
# Per-field codecs for columnar entry packing


class EnumCodec:
    """Enum column <-> integer codes plus a value-string legend.

    The legend is written at pack time from the *current* enum, and
    decoding maps codes through the stored legend back to enum values —
    so reordering or extending the enum later never reinterprets old
    snapshots, and a legend value the current enum no longer knows is a
    precise load error instead of a silent misread.
    """

    def __init__(self, enum_type, optional: bool = False) -> None:
        self.enum_type = enum_type
        self.optional = optional

    def pack(self, values: "List[Any]") -> "Dict[str, Any]":
        legend = [member.value for member in self.enum_type]
        index = {member: i for i, member in enumerate(self.enum_type)}
        codes = np.empty(len(values), dtype=np.int8)
        for i, value in enumerate(values):
            codes[i] = -1 if value is None else index[value]
        return {"codes": codes, "legend": legend}

    def unpack(self, column: "Dict[str, Any]", count: int, path: str) -> "List[Any]":
        codes = _column_array(require(column, "codes", path), count, f"{path}.codes")
        legend = require(column, "legend", path)
        out: "List[Any]" = []
        for i, code in enumerate(codes):
            code = int(code)
            if code < 0:
                if not self.optional:
                    raise StateDictError(
                        f"{path}.codes[{i}]",
                        f"{self.enum_type.__name__} value cannot be null",
                    )
                out.append(None)
                continue
            if code >= len(legend):
                raise StateDictError(
                    f"{path}.codes[{i}]",
                    f"code {code} outside legend of {len(legend)} entries",
                )
            try:
                out.append(self.enum_type(legend[code]))
            except ValueError:
                raise StateDictError(
                    f"{path}.legend[{code}]",
                    f"unknown {self.enum_type.__name__} value {legend[code]!r}",
                ) from None
        return out


class FramePtrCodec:
    """Optional ``FramePtr`` column as two parallel int arrays (-1 = None)."""

    def pack(self, values: "List[Any]") -> "Dict[str, Any]":
        dgroup = np.full(len(values), -1, dtype=np.int32)
        frame = np.full(len(values), -1, dtype=np.int32)
        for i, value in enumerate(values):
            if value is not None:
                dgroup[i], frame[i] = value
        return {"dgroup": dgroup, "frame": frame}

    def unpack(self, column: "Dict[str, Any]", count: int, path: str) -> "List[Any]":
        from repro.core.pointers import FramePtr

        dgroup = _column_array(require(column, "dgroup", path), count, f"{path}.dgroup")
        frame = _column_array(require(column, "frame", path), count, f"{path}.frame")
        return [
            None if d < 0 else FramePtr(int(d), int(f))
            for d, f in zip(dgroup, frame)
        ]


class ScalarCodec:
    """Default codec: ints and bools become one numpy array."""

    def pack(self, values: "List[Any]") -> "Any":
        return np.asarray(values) if values else np.asarray(values, dtype=np.int64)

    def unpack(self, column: Any, count: int, path: str) -> "List[Any]":
        array = _column_array(column, count, path)
        return [value.item() if hasattr(value, "item") else value for value in array]


def _column_array(column: Any, count: int, path: str) -> np.ndarray:
    array = np.asarray(column)
    if array.ndim != 1:
        raise StateDictError(path, f"expected a 1-d column, got shape {array.shape}")
    if len(array) != count:
        raise StateDictError(
            path, f"column length {len(array)} does not match {count} rows"
        )
    return array


def _entry_codecs() -> "Dict[str, Any]":
    """Field-name -> codec registry for cache-entry columns.

    Imported lazily: ``caches.base`` imports this module.
    """
    from repro.coherence.states import CoherenceState
    from repro.common.types import MissClass

    return {
        "state": EnumCodec(CoherenceState),
        "fill_class": EnumCodec(MissClass, optional=True),
        "fwd": FramePtrCodec(),
    }


def pack_entries(array) -> "Dict[str, Any]":
    """Columnar snapshot of a :class:`SetAssociativeArray`'s valid entries.

    Sparse by design: invalid entries carry no model-visible state (the
    victim scan keys only on validity, and ``invalidate()`` resets every
    payload field), so only valid entries are stored; on load the rest
    are default entries or not created at all, which reads the same.
    """
    codecs = _entry_codecs()
    default = ScalarCodec()
    field_names = [f.name for f in dataclasses.fields(array.entry_type)]
    set_indices: "List[int]" = []
    ways: "List[int]" = []
    values: "Dict[str, List[Any]]" = {name: [] for name in field_names}
    for set_index, way, entry in array.valid_entries():
        set_indices.append(set_index)
        ways.append(way)
        for name in field_names:
            values[name].append(getattr(entry, name))
    columns = {
        name: codecs.get(name, default).pack(column)
        for name, column in values.items()
    }
    return {
        "num_sets": array.geometry.num_sets,
        "associativity": array.geometry.associativity,
        "clock": array._clock,
        "set_index": np.asarray(set_indices, dtype=np.int32),
        "way": np.asarray(ways, dtype=np.int32),
        "fields": columns,
    }


def unpack_entries(array, state: "Dict[str, Any]", path: str) -> None:
    """Restore :func:`pack_entries` output into a freshly-built array."""
    codecs = _entry_codecs()
    default = ScalarCodec()
    num_sets = array.geometry.num_sets
    associativity = array.geometry.associativity
    for key, expected in (("num_sets", num_sets), ("associativity", associativity)):
        got = require(state, key, path)
        if got != expected:
            raise StateDictError(
                f"{path}.{key}", f"checkpoint has {got}, this array has {expected}"
            )
    set_index = np.asarray(require(state, "set_index", path))
    way = _column_array(
        require(state, "way", path), len(set_index), f"{path}.way"
    )
    columns = require(state, "fields", path)
    field_names = [f.name for f in dataclasses.fields(array.entry_type)]
    decoded: "Dict[str, List[Any]]" = {}
    for name in field_names:
        if name not in columns:
            continue  # older snapshot without this (newer) field: keep defaults
        decoded[name] = codecs.get(name, default).unpack(
            columns[name], len(set_index), f"{path}.fields.{name}"
        )
    filled: "set[Tuple[int, int]]" = set()
    for row, (si, wi) in enumerate(zip(set_index, way)):
        si, wi = int(si), int(wi)
        if not 0 <= si < num_sets:
            raise StateDictError(
                f"{path}.set_index[{row}]", f"set {si} outside {num_sets} sets"
            )
        if not 0 <= wi < associativity:
            raise StateDictError(
                f"{path}.way[{row}]", f"way {wi} outside associativity {associativity}"
            )
        if (si, wi) in filled:
            raise StateDictError(
                f"{path}.way[{row}]", f"set {si} way {wi} listed twice"
            )
        filled.add((si, wi))
        entry = array.entry_at(si, wi)
        for name, column in decoded.items():
            setattr(entry, name, column[row])
    array._clock = int(require(state, "clock", path))


# ----------------------------------------------------------------------
# Flat dataclasses, counters, params, RNG


def scalar_fields_state(obj) -> "Dict[str, Any]":
    """Snapshot an all-scalar dataclass (statistics/counter blocks)."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def load_scalar_fields(obj, state: "Dict[str, Any]", path: str) -> None:
    if not isinstance(state, dict):
        raise StateDictError(path, f"expected a dict, got {type(state).__name__}")
    for f in dataclasses.fields(obj):
        if f.name in state:
            setattr(obj, f.name, state[f.name])


def counter_state(
    counter, key_encode: "Callable[[Any], Any]" = lambda key: key
) -> "List[Tuple[Any, int]]":
    """A Counter as a sorted list of ``(encoded key, count)`` pairs."""
    return sorted(
        (key_encode(key), count) for key, count in counter.items() if count
    )


def load_counter(
    counter,
    state: "Iterable[Tuple[Any, int]]",
    path: str,
    key_decode: "Callable[[Any], Any]" = lambda key: key,
) -> None:
    counter.clear()
    try:
        pairs = list(state)
    except TypeError:
        raise StateDictError(path, "expected a list of (key, count) pairs") from None
    for i, pair in enumerate(pairs):
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise StateDictError(f"{path}[{i}]", f"expected (key, count), got {pair!r}")
        key, count = pair
        try:
            counter[key_decode(key)] = int(count)
        except (ValueError, KeyError) as error:
            raise StateDictError(f"{path}[{i}]", str(error)) from None


def params_state(params) -> "Dict[str, Any]":
    """A params dataclass as a nested plain dict, keyed by field name."""
    out: "Dict[str, Any]" = {}
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        out[f.name] = params_state(value) if dataclasses.is_dataclass(value) else value
    return out


def params_from_state(cls, state: "Dict[str, Any]", path: str):
    """Rebuild a params dataclass from :func:`params_state` output.

    Nested dataclass fields recurse through the *current* class's type
    hints, so a geometry field that moved between parameter classes
    still reconstructs as long as the field names line up.  Unknown
    keys are ignored; missing keys keep the class defaults.
    """
    if not isinstance(state, dict):
        raise StateDictError(path, f"expected a dict, got {type(state).__name__}")
    try:
        hints = typing.get_type_hints(cls)
    except Exception:  # pragma: no cover - defensive: exotic annotations
        hints = {}
    kwargs: "Dict[str, Any]" = {}
    for f in dataclasses.fields(cls):
        if f.name not in state:
            continue
        value = state[f.name]
        annotated = hints.get(f.name)
        if dataclasses.is_dataclass(annotated) and isinstance(value, dict):
            value = params_from_state(annotated, value, f"{path}.{f.name}")
        kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as error:
        raise StateDictError(path, f"invalid {cls.__name__}: {error}") from None


def rng_state(generator: "np.random.Generator") -> "Dict[str, Any]":
    """A numpy Generator's bit-generator state (plain ints and strings)."""
    return generator.bit_generator.state


def load_rng(generator: "np.random.Generator", state: "Dict[str, Any]", path: str) -> None:
    try:
        generator.bit_generator.state = state
    except (TypeError, ValueError, KeyError, RuntimeError) as error:
        raise StateDictError(path, f"invalid RNG state: {error}") from None


__all__ = [
    "EnumCodec",
    "FramePtrCodec",
    "StateDictError",
    "counter_state",
    "load_counter",
    "load_rng",
    "load_scalar_fields",
    "pack_entries",
    "params_from_state",
    "params_state",
    "require",
    "rng_state",
    "scalar_fields_state",
    "unpack_entries",
]
