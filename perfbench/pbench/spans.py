"""In-memory span recorder for the traced runs.

Each span has a name, start and end (``time.perf_counter`` seconds), the
id of the span that was open on the same thread when it started (its
parent), and a request id shared by every span of one request. Spans
are only recorded by the benchmark's own code, around its calls into
the program's layers; nothing inside the program is instrumented.

Self time — a span's duration minus the part of it covered by its
children — is derived after the run, not measured.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - covered(span.start, span.end, children.get(span.id, ()))
        for span in spans
    }


class SpanRecorder:
    """Thread-safe span store; parents follow a per-thread open-span stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, request: int | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        with self._lock:
            span_id = next(self._ids)
        span = Span(
            span_id, name, time.perf_counter(), 0.0,
            parent.id if parent is not None else None, request,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span named ``name``."""

        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapped

    def totals(self) -> dict[str, dict]:
        """name -> {count, total_s, self_s} over all recorded spans."""
        selfs = self_times(self.spans)
        out: dict[str, dict] = {}
        for span in self.spans:
            entry = out.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += span.duration
            entry["self_s"] += selfs[span.id]
        return out

    def durations(self, name: str) -> list[float]:
        return [span.duration for span in self.spans if span.name == name]

    def write(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(asdict(span)) + "\n")
