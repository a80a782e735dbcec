"""Wall-clock profiling hooks for the simulator's hot paths.

A :class:`Profiler` accumulates per-section call counts and elapsed
wall-clock time.  Sections nest safely — recursive code (distance
replacement's demotion chain) accumulates elapsed time only at the
outermost frame, so totals never double-count.

Hot paths stay untouched when profiling is off: instead of permanent
timing calls, :meth:`Profiler.instrument` *shadows* the bound methods
of one live system with timed wrappers (an instance attribute hides the
class method), so a run without a profiler executes the original code
with zero overhead.  Instrumented sections:

=======================  =============================================
``l2-lookup``            :meth:`L2Design.access` (tag lookup + design
                         access handling, the simulator's core)
``distance-replacement``  ``_make_room`` (demotion chains), when the
                         design has one
``bus-arbitration``      :meth:`SnoopBus.issue`, when the design owns a
                         snoopy bus
``crossbar``             :meth:`Crossbar.access`, when present
``invariant-check``      the harness's periodic model check (timed by
                         the runner via :meth:`section`)
=======================  =============================================
"""

from __future__ import annotations

import time
import weakref
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List


class Section:
    """Accumulated timings for one named section."""

    __slots__ = ("name", "calls", "seconds", "_depth", "_started")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.seconds = 0.0
        self._depth = 0
        self._started = 0.0

    def enter(self) -> None:
        self.calls += 1
        if self._depth == 0:
            self._started = time.perf_counter()
        self._depth += 1

    def exit(self) -> None:
        self._depth -= 1
        if self._depth == 0:
            self.seconds += time.perf_counter() - self._started

    @property
    def mean_us(self) -> float:
        return 1e6 * self.seconds / self.calls if self.calls else 0.0


class Profiler:
    """Per-section wall-clock accounting with opt-in instrumentation."""

    def __init__(self) -> None:
        self.sections: "Dict[str, Section]" = {}
        self._wall_started = time.perf_counter()

    def _section(self, name: str) -> Section:
        section = self.sections.get(name)
        if section is None:
            section = Section(name)
            self.sections[name] = section
        return section

    @contextmanager
    def section(self, name: str) -> "Iterator[None]":
        """Time one block: ``with profiler.section("invariant-check"):``."""
        section = self._section(name)
        section.enter()
        try:
            yield
        finally:
            section.exit()

    def wrap(self, name: str, fn: "Callable[..., Any]") -> "Callable[..., Any]":
        """A timed wrapper around ``fn`` accumulating into ``name``."""
        section = self._section(name)

        def timed(*args: Any, **kwargs: Any) -> Any:
            section.enter()
            try:
                return fn(*args, **kwargs)
            finally:
                section.exit()

        timed.__wrapped__ = fn  # type: ignore[attr-defined]
        return timed

    # ------------------------------------------------------------------

    def instrument(self, system) -> "Profiler":
        """Shadow one system's hot-path methods with timed wrappers.

        Only this system instance is affected; other systems (and runs
        without a profiler) execute the original, unwrapped methods.
        """
        design = system.design
        for name, owner, attribute in (
            ("l2-lookup", design, "access"),
            ("distance-replacement", design, "_make_room"),
            ("bus-arbitration", getattr(design, "bus", None), "issue"),
            ("crossbar", getattr(design, "crossbar", None), "access"),
        ):
            if hasattr(owner, attribute):
                self._shadow(name, owner, attribute)
        return self

    def _shadow(self, name: str, owner: Any, attribute: str) -> None:
        """Shadow ``owner``'s method ``attribute`` with a timed wrapper
        that holds it weakly: stored on ``owner``, a bound method would
        make ``owner`` a cycle only a full garbage collection frees."""
        method = weakref.WeakMethod(getattr(owner, attribute))

        def call(*args: Any, **kwargs: Any) -> Any:
            return method()(*args, **kwargs)

        setattr(owner, attribute, self.wrap(name, call))

    # ------------------------------------------------------------------

    def report(self) -> str:
        """Human-readable table: calls, total ms, mean µs, wall share."""
        wall = max(time.perf_counter() - self._wall_started, 1e-12)
        rows: "List[tuple[str, str, str, str, str]]" = []
        for section in sorted(
            self.sections.values(), key=lambda s: s.seconds, reverse=True
        ):
            rows.append(
                (
                    section.name,
                    str(section.calls),
                    f"{1e3 * section.seconds:.2f}",
                    f"{section.mean_us:.2f}",
                    f"{100.0 * section.seconds / wall:.1f}%",
                )
            )
        headers = ("section", "calls", "total ms", "mean us", "wall share")
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
            "  ".join("-" * widths[i] for i in range(len(headers))),
        ]
        for row in rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        lines.append(f"wall clock: {wall:.3f}s")
        return "\n".join(lines)

    def snapshot(self) -> "Dict[str, Dict[str, float]]":
        """Machine-readable timings (tests and JSON reports)."""
        return {
            name: {
                "calls": section.calls,
                "seconds": section.seconds,
                "mean_us": section.mean_us,
            }
            for name, section in self.sections.items()
        }


__all__ = ["Profiler", "Section"]
