"""Per-op profiling for the tensor engine, off by default.

``use_profiling()`` scopes a collecting profile to a block in the
calling thread, like the engine's other scoped switches
(:func:`~repro.tensor.backends.use_backend`,
:func:`~repro.tensor.tensor.default_dtype`,
:func:`~repro.tensor.tensor.no_grad`); other threads keep their own
state. While active, two kinds of telemetry accumulate into an
:class:`OpProfile`:

- **tape-op counts** — :meth:`Tensor._make` bumps a counter named after
  the op's backward closure ("Tensor.__matmul__", "scatter_sum",
  "addmm", ...) for every op executed, grad or no-grad;
- **kernel timings** — the coarse scatter/fused kernels are wrapped in
  :func:`profiled`, which adds a ``perf_counter`` pair *only while
  profiling is active*.

The disabled path costs one context-variable lookup plus a ``None``
check per op and adds **no tape nodes** — asserted to stay under 5%
GCN-step overhead by ``tests/test_obs.py`` and
``benchmarks/bench_obs.py``.
"""

from __future__ import annotations

import functools
import threading
import time

from repro.utils.scoped import ScopedValue

__all__ = ["OpProfile", "profiled", "profiling_enabled", "use_profiling"]

#: The collecting profile of the current thread, or ``None`` when off.
#: ``Tensor._make`` reads it directly on every op.
_PROFILE: "ScopedValue[OpProfile | None]" = ScopedValue("profile", None)


class OpProfile:
    """Accumulated op counts and kernel timings for one profiled region."""

    __slots__ = ("_lock", "_ops", "_kernels")

    def __init__(self):
        self._lock = threading.Lock()
        self._ops: dict[str, int] = {}
        self._kernels: dict[str, list] = {}  # name -> [count, seconds]

    def count(self, qualname: str) -> None:
        # "Tensor.__add__.<locals>.backward" -> "Tensor.__add__"
        name = qualname.partition(".<locals>")[0]
        with self._lock:
            self._ops[name] = self._ops.get(name, 0) + 1

    def record(self, name: str, seconds: float) -> None:
        with self._lock:
            entry = self._kernels.get(name)
            if entry is None:
                entry = self._kernels[name] = [0, 0.0]
            entry[0] += 1
            entry[1] += seconds

    def op_count(self, name: str) -> int:
        return self._ops.get(name, 0)

    @property
    def total_ops(self) -> int:
        return sum(self._ops.values())

    def merge(self, snapshot: dict) -> None:
        """Fold another profile's :meth:`snapshot` into this one."""
        with self._lock:
            for name, count in snapshot.get("ops", {}).items():
                self._ops[name] = self._ops.get(name, 0) + int(count)
            for name, entry in snapshot.get("kernels", {}).items():
                mine = self._kernels.get(name)
                if mine is None:
                    mine = self._kernels[name] = [0, 0.0]
                mine[0] += int(entry["count"])
                mine[1] += float(entry["total_s"])

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "ops": dict(sorted(self._ops.items())),
                "kernels": {
                    name: {"count": entry[0], "total_s": entry[1]}
                    for name, entry in sorted(self._kernels.items())
                },
            }

    def reset(self) -> None:
        with self._lock:
            self._ops.clear()
            self._kernels.clear()


def profiling_enabled() -> bool:
    """Whether an :class:`OpProfile` is currently collecting."""
    return _PROFILE.get() is not None


def use_profiling(profile: OpProfile | None = None):
    """Collect per-op telemetry inside the block; yields the profile.

    ::

        with use_profiling() as prof:
            train_graph_regressor(model, train, val, config)
        print(prof.snapshot()["ops"])
    """
    return _PROFILE.scoped(profile if profile is not None else OpProfile())


def profiled(name: str):
    """Wrap a kernel so its wall time lands in the active profile.

    Applied at definition time to the coarse scatter/fused kernels, so
    every import path gets the instrumented function. Disabled cost is
    the wrapper call plus one ``None`` check.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            profile = _PROFILE.get()
            if profile is None:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                profile.record(name, time.perf_counter() - start)

        return wrapper

    return decorate
