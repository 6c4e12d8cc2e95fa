"""Spans timed from outside the program, for the traced run.

The traced run wraps public functions of each layer (see
:mod:`perfbench.boundaries`) so that every call records a span: its name,
start, end, parent span and run id.  Spans stay in memory until the run
ends.  A span's self time is its duration minus the part its child spans
cover; for a span with children that remainder is reported as its
``unaccounted`` time, so children plus ``unaccounted`` add up to the parent.

Wrappers exist only while a :class:`Patches` is applied; ``restore`` puts
the original attributes back.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from perfbench.harness import now

__all__ = ["Patches", "SpanRecorder", "SpanStats", "render_tree", "summarize"]


class SpanRecorder:
    """Spans kept as parallel arrays, one row per timed call.

    ``parent`` holds the row index of the enclosing span (-1 for a root)
    and ``run`` the run id current when the span opened.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self._stack: list[list] = []  # [row, seconds covered by children]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open_name(self) -> int:
        """Name id of the innermost open span, or -1."""
        return self.name[self._stack[-1][0]] if self._stack else -1

    def open(self, name_id: int) -> None:
        row = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self.self_s.append(0.0)
        self._stack.append([row, 0.0])
        self.start.append(now())

    def close(self) -> None:
        end = now()
        row, covered = self._stack.pop()
        self.end[row] = end
        duration = end - self.start[row]
        self.self_s[row] = duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close()

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call records a span called ``name``.

        A call made while a span of the same name is open (one public
        method calling another of the same layer) belongs to that span.
        """
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.open_name() == name_id:
                return fn(*args, **kwargs)
            self.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return wrapper

    def counted(self, name: str, fn: Callable, hit: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to count calls (``<name>.calls``) and, when
        ``hit(result)`` is true, hits (``<name>.hits``), with no span."""
        counters = self.counters
        calls_key, hits_key = f"{name}.calls", f"{name}.hits"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counters[calls_key] += 1
            if hit is not None and hit(result):
                counters[hits_key] += 1
            return result

        return wrapper

    def __len__(self) -> int:
        return len(self.name)

    def to_json(self) -> dict:
        """All spans, column by column, with times relative to the first."""
        origin = self.start[0] if len(self) else 0.0
        return {
            "names": list(self.names),
            "name": list(self.name),
            "parent": list(self.parent),
            "run": list(self.run),
            "start_s": [round(t - origin, 9) for t in self.start],
            "end_s": [round(t - origin, 9) for t in self.end],
            "counters": dict(sorted(self.counters.items())),
        }


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        # A class attribute is taken from the class dict so that the wrapper
        # replaces the plain function and still binds as a method.
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


@dataclass
class SpanStats:
    """Per-path and per-name totals of a recorder's spans."""

    # path (tuple of names, root first) -> [calls, total_s, self_s]
    paths: dict[tuple[str, ...], list[float]] = field(default_factory=dict)
    # name -> [calls, total_s, self_s], outermost spans of the name only
    names: dict[str, list[float]] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)

    def total(self, name: str) -> float:
        return self.names.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.names.get(name, [0, 0.0, 0.0])[2]

    def calls(self, name: str) -> float:
        return self.names.get(name, [0, 0.0, 0.0])[0]

    def counter(self, key: str) -> float:
        return self.counters.get(key, 0.0)

    def parents(self) -> set[tuple[str, ...]]:
        return {path[:-1] for path in self.paths if len(path) > 1}


def summarize(recorder: SpanRecorder) -> SpanStats:
    """Fold the recorder's spans into :class:`SpanStats`."""
    stats = SpanStats(counters=dict(recorder.counters))
    path_of: list[tuple[str, ...]] = []
    names = recorder.names
    for row in range(len(recorder)):
        parent = recorder.parent[row]
        name = names[recorder.name[row]]
        path = (path_of[parent] if parent >= 0 else ()) + (name,)
        path_of.append(path)
        duration = recorder.end[row] - recorder.start[row]
        own = recorder.self_s[row]
        entry = stats.paths.setdefault(path, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += own
        if name not in path[:-1]:
            entry = stats.names.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += own
    return stats


def render_tree(stats: SpanStats) -> list[str]:
    """The layer summary: calls, total and self time per span path, with
    an ``unaccounted`` line closing every parent."""
    parents = stats.parents()
    lines = [f"{'span':<48} {'calls':>9} {'total_s':>10} {'self_s':>10}"]

    def emit(prefix: tuple[str, ...]) -> None:
        children = [p for p in stats.paths if p[:-1] == prefix and len(p) == len(prefix) + 1]
        children.sort(key=lambda p: -stats.paths[p][1])
        for path in children:
            calls, total, own = stats.paths[path]
            indent = "  " * (len(path) - 1)
            lines.append(f"{indent + path[-1]:<48} {int(calls):>9} {total:>10.4f} {own:>10.4f}")
            if path in parents:
                emit(path)
                pad = "  " * len(path)
                lines.append(f"{pad + 'unaccounted':<48} {'':>9} {own:>10.4f} {own:>10.4f}")

    emit(())
    return lines
