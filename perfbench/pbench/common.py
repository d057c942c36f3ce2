"""Run context, result accumulation and set-up timing shared by workloads."""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

from pbench.spans import SpanRecorder
from pbench.stats import median

#: Repetitions of the repeatable part of a workload's set-up; setup_s
#: reports their median so one slow repetition does not move it.
SETUP_REPEATS = 3


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    workdir: Path  # scratch space inside the checkout, removed at exit
    launched: float  # perf_counter at launcher start
    spec: dict  # this workload's record from perfbench/workloads.json
    spans: SpanRecorder | None = None  # set on traced runs


@dataclass
class Result:
    """Metrics, operation counts and correctness checks of one run."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        self.metrics[name] = {"value": value, "unit": unit}

    def check(self, name: str, ok: bool, detail=None) -> None:
        self.checks[name] = {"ok": bool(ok), "detail": detail}

    def count(self, attempted: int, failed: int = 0) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(c["ok"] for c in self.checks.values())


class SetupClock:
    """Set-up time: launch to first timed operation.

    ``setup_s`` = interpreter/import time (once) + input generation (once)
    + the median of :data:`SETUP_REPEATS` repetitions of the repeatable
    system set-up (model training, registry round trip, service start).
    Work a later change moves into set-up lands in one of these parts.
    """

    def __init__(self, ctx: Context):
        self.imports_s = time.perf_counter() - ctx.launched
        self.once_s = 0.0
        self.repeat_s: list[float] = []

    def once(self, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.once_s += time.perf_counter() - start
        return out

    def repeated(self, fn, cleanup=None, repeats: int = SETUP_REPEATS):
        """Run ``fn(i)`` ``repeats`` times (deterministic set-up); keep the
        last result. ``cleanup`` releases each earlier one, untimed."""
        out = None
        for index in range(repeats):
            if index and cleanup is not None:
                cleanup(out)
            start = time.perf_counter()
            out = fn(index)
            self.repeat_s.append(time.perf_counter() - start)
        return out

    @property
    def setup_s(self) -> float:
        repeat = median(self.repeat_s) if self.repeat_s else 0.0
        return self.imports_s + self.once_s + repeat

    def as_dict(self) -> dict:
        return {
            "imports_s": self.imports_s,
            "once_s": self.once_s,
            "repeat_s": self.repeat_s,
            "setup_s": self.setup_s,
        }


def result_metrics(manifest: dict, trace: bool, measured: dict) -> tuple[dict, dict, list]:
    """Split a run's measured metrics into the result line's and the rest.

    The result line holds every metric of the manifest's ``end_to_end``
    list (untraced run) or ``per_layer`` list (traced run), in the
    manifest's unit. An end-to-end metric the run did not measure is an
    error. A per-layer metric of a layer this workload does not reach is
    reported as 0.0 and named in the returned list. Metrics the manifest
    does not list (the workload's own, e.g. ``serve.max_rps``) go to the
    report only.
    """
    wanted = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    line, not_measured = {}, []
    for name, unit in wanted.items():
        entry = measured.get(name)
        if entry is None:
            if not trace:
                raise ValueError(f"end-to-end metric {name} was not measured")
            not_measured.append(name)
            entry = {"value": 0.0, "unit": unit}
        if entry["unit"] != unit:
            raise ValueError(f"{name}: unit {entry['unit']} != {unit}")
        line[name] = entry
    rest = {k: v for k, v in measured.items() if k not in wanted}
    return line, rest, not_measured


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def max_rel_diff(a, b, floor: float = 1.0) -> float:
    """Largest ``|a - b| / max(|b|, floor)``; non-finite entries must match
    exactly (an overflowed prediction equals only the same overflow)."""
    import numpy as np

    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    finite = np.isfinite(a) & np.isfinite(b)
    if not np.array_equal(a[~finite], b[~finite]):
        return math.inf
    if not finite.any():
        return 0.0
    diff = np.abs(a[finite] - b[finite]) / np.maximum(np.abs(b[finite]), floor)
    return float(diff.max())


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
