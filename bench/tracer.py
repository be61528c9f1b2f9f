"""Out-of-process-code tracing for the benchmark's traced run.

:class:`Tracer` replaces public m2dne functions at the names their callers
look them up (a module attribute, or a method on its class) with wrappers
that record a span per call and optional counts, and puts every original
back on exit. Spans and counts stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_MISSING = object()


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []      # closed spans, in end order
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []      # ids of the open spans
        self._next_id = 0
        self._targets: list[tuple] = []  # (owner, attr, span name, counter)
        self._saved: list[tuple] = []    # (owner, attr, original or _MISSING)

    def add(self, owner, attr: str, name: str, counter=None) -> None:
        """Register ``owner.attr`` for wrapping as span ``name``.

        ``counter(tracer, args, kwargs, result)`` runs after each call.
        """
        self._targets.append((owner, attr, name, counter))

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name, counter in self._targets:
                original = vars(owner).get(attr, _MISSING)
                self._saved.append((owner, attr, original))
                target = getattr(owner, attr)
                setattr(owner, attr, self._wrap(target, name, counter))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _wrap(self, fn, name: str, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append({"run": tracer.run_id, "id": span_id,
                                     "name": name, "start": start, "end": end,
                                     "parent": parent})
            tracer.counts[name + ".calls"] += 1
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover
        (children of one span never overlap: calls are synchronous)."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        return {s["id"]: s["end"] - s["start"] - child_time[s["id"]]
                for s in self.spans}

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """(total seconds, total self seconds) per span name."""
        own = self.self_times()
        total: dict[str, float] = defaultdict(float)
        self_total: dict[str, float] = defaultdict(float)
        for span in self.spans:
            total[span["name"]] += span["end"] - span["start"]
            self_total[span["name"]] += own[span["id"]]
        return dict(total), dict(self_total)

    def write(self, path) -> None:
        """Spans (with self time) and counts as JSON lines."""
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps({**span, "self": own[span["id"]]}) + "\n")
            for name, value in sorted(self.counts.items()):
                fh.write(json.dumps({"run": self.run_id, "count": name,
                                     "value": value}) + "\n")
