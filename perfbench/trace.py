"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps the public entry points of the ``repro`` layers from the
outside: a module attribute is replaced where its caller looks it up (for
example ``repro.dbscan.rt_dbscan.make_backend``), an instance method is
replaced on the instance.  Nothing under ``src/`` is edited.  Each call
records one span — name, start, end, parent span and the trace id of the
benchmark operation that caused it — kept in memory and written out when
the run ends.

An entry point that no longer exists is recorded in :attr:`Tracer.missing`
instead of raising, so a later rename shows up as a missing span rather
than a crashed benchmark.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    trace_id: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder with patch/unpatch bookkeeping.

    ``enabled`` switches recording per operation, so one run can interleave
    traced and untraced operations and measure the tracer's own overhead.
    Spans opened on threads the tracer has not seen (a thread pool's
    workers) are parented to the root span of the current operation.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []
        self._trace_id: int | None = None
        self._root: int | None = None

    # ------------------------------------------------------------ spans --
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: Any):
        """Record one span around the body; yields its attribute dict."""
        if not self.enabled:
            yield attrs
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else self._root
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(span_id, name, start, end, parent, self._trace_id, attrs)
                )

    @contextmanager
    def operation(self, name: str, *, traced: bool, **attrs: Any):
        """One benchmark operation: a fresh trace id and a root span."""
        self.enabled = traced
        if not traced:
            yield attrs
            return
        self._trace_id = next(self._ids)
        try:
            with self.span(name, **attrs) as root_attrs:
                self._root = self._stack()[-1]
                yield root_attrs
        finally:
            self._root = None
            self.enabled = False

    def record(self, name: str, start: float, end: float, **attrs: Any) -> None:
        """Record a span timed by the caller, as its own one-span trace."""
        span_id = next(self._ids)
        with self._lock:
            self.spans.append(Span(span_id, name, start, end, None, span_id, attrs))

    # ---------------------------------------------------------- patching --
    def wrap(self, name: str, fn: Callable, annotate: Callable | None = None) -> Callable:
        """``fn`` with a span around every call; ``annotate(result)`` adds attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    attrs.update(annotate(result))
                return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def patch(self, owner: Any, attr: str, name: str, annotate: Callable | None = None) -> bool:
        """Replace ``owner.attr`` with a traced wrapper; False if it is missing."""
        orig = getattr(owner, attr, None)
        if orig is None or not callable(orig):
            self.missing.add(name)
            return False
        if getattr(orig, "__wrapped_by_tracer__", False):
            return True
        had_own = attr in getattr(owner, "__dict__", {})
        setattr(owner, attr, self.wrap(name, orig, annotate))

        def undo() -> None:
            if had_own:
                setattr(owner, attr, orig)
            else:
                try:
                    delattr(owner, attr)
                except AttributeError:
                    pass

        self._undo.append(undo)
        return True

    def instrument(self, obj: Any, methods: dict[str, str], annotate: dict | None = None) -> Any:
        """Trace the named methods on one object (no undo: the object is transient).

        ``methods`` maps method name -> span name.  A span name none of whose
        methods exist is recorded as missing.
        """
        annotate = annotate or {}
        found: dict[str, bool] = {}
        for meth, span_name in methods.items():
            fn = getattr(obj, meth, None)
            ok = callable(fn)
            found[span_name] = found.get(span_name, False) or ok
            if ok and not getattr(fn, "__wrapped_by_tracer__", False):
                setattr(obj, meth, self.wrap(span_name, fn, annotate.get(meth)))
        self.missing.update(name for name, ok in found.items() if not ok)
        return obj

    def patch_factory(
        self,
        owner: Any,
        attr: str,
        methods: dict[str, str],
        *,
        span: str | None = None,
        annotate: dict | None = None,
    ) -> bool:
        """Replace the factory ``owner.attr`` so traced calls return instrumented objects.

        ``span`` (optional) also records a span around the factory call itself.
        """
        factory = getattr(owner, attr, None)
        if factory is None or not callable(factory):
            self.missing.update(methods.values())
            if span:
                self.missing.add(span)
            return False

        @functools.wraps(factory, updated=())
        def traced_factory(*args, **kwargs):
            if not self.enabled:
                return factory(*args, **kwargs)
            if span:
                with self.span(span):
                    obj = factory(*args, **kwargs)
            else:
                obj = factory(*args, **kwargs)
            return self.instrument(obj, methods, annotate)

        setattr(owner, attr, traced_factory)
        self._undo.append(lambda: setattr(owner, attr, factory))
        return True

    def unpatch_all(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ---------------------------------------------------------- analysis --
    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child coverage."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        totals: dict[str, float] = {}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for c in sorted(children.get(s.span_id, []), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            totals[s.name] = totals.get(s.name, 0.0) + max(0.0, s.duration - covered)
        return totals

    def layer_self_times(self) -> dict[str, float]:
        """Self time per layer: the span name up to its first dot."""
        layers: dict[str, float] = {}
        for name, seconds in self.self_times().items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
        return layers

    def dump(self, path: Path, **extra: Any) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **extra,
            "missing_spans": sorted(self.missing),
            "self_time_s": self.self_times(),
            "layer_self_time_s": self.layer_self_times(),
            "spans": [asdict(s) for s in self.spans],
        }
        path.write_text(json.dumps(payload, default=float))
