"""Span tracing installed from outside the program.

A :class:`Tracer` replaces public functions and methods with timing
wrappers.  Every call records one span — name, start, end and the span
that was open when it started (its cause) — in flat arrays kept in
memory; :meth:`Tracer.write` stores them when the run ends and
:meth:`Tracer.restore` puts the original functions back.

Span names are ``layer.function``.  A layer's *self time* is the time
its spans cover minus the part their child spans cover.  The wrappers
cost time of their own, part inside the span they record and part in
the span around it; :meth:`Tracer.layer_self_seconds` takes off both
parts, measured on a traced function that does nothing.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable

_now = time.perf_counter_ns


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("b")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        #: One cell: index of the innermost open span, -1 for none.
        self._current = [-1]
        #: Self time of each coroutine span, which other spans may
        #: interleave with while it is suspended.
        self._coroutine_self: dict[int, int] = {}
        #: One cell: time covered by finished outermost spans.
        self._root_ns = [0]
        self._patched: list[tuple[Any, str, Any]] = []

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a ``name`` span."""
        nid = self.name_id(name)
        add_name, add_start = self.span_name.append, self.span_start.append
        add_end, add_parent = self.span_end.append, self.span_parent.append
        ends, current, root = self.span_end, self._current, self._root_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = current[0]
            index = current[0] = len(ends)
            add_name(nid)
            add_parent(parent)
            add_end(0)
            start = _now()
            add_start(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = ends[index] = _now()
                current[0] = parent
                if parent < 0:
                    root[0] += end - start

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_coroutine(self, name: str, fn: Callable) -> Callable:
        """Like :meth:`wrap` for a coroutine function.

        Other spans run while it is suspended, so it does not become
        their parent, and its self time leaves out the outermost spans
        that finished in the meantime.
        """
        nid = self.name_id(name)

        async def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(self.span_end)
            self.span_name.append(nid)
            self.span_parent.append(self._current[0])
            self.span_end.append(0)
            root_before = self._root_ns[0]
            start = _now()
            self.span_start.append(start)
            try:
                return await fn(*args, **kwargs)
            finally:
                end = self.span_end[index] = _now()
                own = (end - start) - (self._root_ns[0] - root_before)
                self._coroutine_self[index] = own
                if self._current[0] < 0:
                    self._root_ns[0] += own

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def patch(self, owner: Any, name: str, layer: str) -> None:
        """Replace ``owner.name`` by a version traced as ``layer.name``."""
        self.replace_attr(owner, name, self.wrap(f"{layer}.{name}", getattr(owner, name)))

    def patch_coroutine(self, owner: Any, name: str, layer: str) -> None:
        fn = getattr(owner, name)
        self.replace_attr(owner, name, self.wrap_coroutine(f"{layer}.{name}", fn))

    def replace_attr(self, owner: Any, name: str, replacement: Any) -> None:
        self._patched.append((owner, name, vars(owner).get(name)))
        setattr(owner, name, replacement)

    def generator(self, layer: str, gen: Any) -> "_TracedGenerator":
        """A proxy whose every ``send()`` is a ``layer.send`` span."""
        return _TracedGenerator(self.wrap(f"{layer}.send", gen.send))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, int]]:
        """Per span name: ``calls``, raw ``self_ns`` and ``children``
        (spans its spans caused)."""
        count = len(self.span_end)
        child_ns = [0] * count
        children = [0] * count
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        coroutine_self = self._coroutine_self
        own = [coroutine_self.get(i, ends[i] - starts[i]) for i in range(count)]
        for i in range(count):
            parent = parents[i]
            if parent >= 0:
                child_ns[parent] += own[i]
                children[parent] += 1
        out = {name: {"calls": 0, "self_ns": 0, "children": 0} for name in self.names}
        for i in range(count):
            entry = out[self.names[self.span_name[i]]]
            entry["calls"] += 1
            entry["children"] += children[i]
            entry["self_ns"] += own[i] - child_ns[i]
        return out

    @staticmethod
    def layer_self_seconds(totals: dict[str, dict[str, int]],
                           overhead: "Overhead") -> dict[str, float]:
        """Self seconds per layer, less the wrappers' own cost."""
        out: dict[str, float] = {}
        for name, entry in totals.items():
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + overhead.self_ns(entry) / 1e9
        return out

    def write(self, stem: Path, extra: dict[str, Any] | None = None) -> None:
        """Write ``<stem>.json`` (names, ``extra``) and ``<stem>.spans``.

        The spans file holds four arrays of equal length ``n`` back to
        back, in native byte order: name index into ``names`` (int8),
        start ns (int64), end ns (int64) and the parent span's index
        (int64, -1 for none).
        """
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".spans"), "wb") as fh:
            for column in (self.span_name, self.span_start, self.span_end,
                           self.span_parent):
                column.tofile(fh)
        header = {"names": self.names, "spans": len(self.span_end), **(extra or {})}
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1))


class _TracedGenerator:
    """Generator stand-in whose ``send`` is traced; the machine only
    ever calls ``send`` on a task body."""

    __slots__ = ("send",)

    def __init__(self, send: Callable) -> None:
        self.send = send


class Overhead:
    """The wrappers' cost per span.

    ``inside_ns`` lands inside the span a wrapper records; ``outside_ns``
    lands in the span around it.
    """

    def __init__(self, inside_ns: float, outside_ns: float) -> None:
        self.inside_ns = inside_ns
        self.outside_ns = outside_ns

    @classmethod
    def measure(cls, calls: int = 20_000) -> "Overhead":
        """Measure on a traced function that does nothing: the median
        span length is the inside part, and the rest of the median extra
        cost of a traced call over a plain one the outside part."""
        tracer = Tracer()

        def noop() -> None:
            return None

        traced = tracer.wrap("noop", noop)
        plain, wrapped = [], []
        for _ in range(5):
            start = _now()
            for _ in range(calls):
                noop()
            plain.append(_now() - start)
            start = _now()
            for _ in range(calls):
                traced()
            wrapped.append(_now() - start)
        spans = sorted(e - s for s, e in zip(tracer.span_start, tracer.span_end))
        inside = spans[len(spans) // 2]
        per_call = (sorted(wrapped)[2] - sorted(plain)[2]) / calls
        return cls(inside, max(0.0, per_call - inside))

    def self_ns(self, entry: dict[str, int]) -> float:
        """A :meth:`Tracer.totals` entry's self time without this cost."""
        return max(0.0, entry["self_ns"] - entry["calls"] * self.inside_ns
                   - entry["children"] * self.outside_ns)

    def total_ns(self, totals: dict[str, dict[str, int]]) -> float:
        """This cost summed over every span in ``totals``."""
        spans = sum(entry["calls"] for entry in totals.values())
        return spans * (self.inside_ns + self.outside_ns)

    def to_dict(self) -> dict[str, float]:
        return {"inside_ns": self.inside_ns, "outside_ns": self.outside_ns}
