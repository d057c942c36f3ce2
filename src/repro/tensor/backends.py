"""Pluggable scatter/SpMM kernel backends.

:mod:`repro.tensor.scatter` defines *what* the message-passing
primitives compute; this module owns *how* the planned kernels execute.
A :class:`ScatterBackend` supplies both of:

- :meth:`ScatterBackend.build_plan` — the factory behind every
  :class:`~repro.tensor.scatter.SegmentPlan`; a backend may return a
  plan subclass whose ``segment_sum`` / ``segment_reduce`` run its own
  kernels (all six scatter ops and the ``gather_rows`` backward execute
  through the plan, so one override covers the whole op surface);
- :meth:`ScatterBackend.sparse_operator` — the fused
  gather+weight+scatter SpMM operator (``out = S @ X`` with its adjoint)
  that :meth:`~repro.gnn.message_passing.GraphContext.propagate_gcn` and
  :class:`~repro.gnn.message_passing.RelationFusion` build their cached
  propagation operators from. Every backend provides one; there is no
  gather / multiply / scatter composition to fall back to.

Two backends are registered out of the box:

``"csr"`` (default)
    One scipy CSR scatter matrix per plan, segment max/min via sorted
    ``ufunc.reduceat``. Fast, single-threaded.

``"bucketed"``
    Degree-bucketed execution per the ``spmm_accel.cu`` row-binning
    strategy: CSR rows are binned by power-of-two degree so equal-shape
    rows are adjacent, then the binned matrix is cut into
    **nonzero-balanced** shards (a skew-heavy graph's hub rows land in
    their own shards instead of serialising a whole block) that execute
    concurrently on a thread pool — scipy's CSR product releases the
    GIL, so shards scale with cores. Results are bitwise-deterministic
    in the worker count: shard cuts snap to row boundaries, so every
    output row is reduced in the same nonzero order regardless of
    scheduling.

Both are differentially tested against the unbuffered scatter-add
reference ops in ``tests/oracles.py``. Selection flows through :func:`use_backend`
(scoped to a block in the calling thread), :func:`set_backend`
(process-wide) or the ``REPRO_SCATTER_BACKEND`` environment variable
(read at import, unknown names fail fast with the valid set). ``REPRO_SCATTER_WORKERS`` caps the bucketed thread pool
(default: CPU count, capped at 8). The registry is the seam future
numba/Cython/GPU backends plug into: subclass :class:`ScatterBackend`,
call :func:`register_backend`.
"""

from __future__ import annotations

import abc
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import sparse

from repro.tensor.profiling import profiled
from repro.tensor.scatter import SegmentPlan
from repro.utils.scoped import ScopedValue

__all__ = [
    "BucketedBackend",
    "BucketedPlan",
    "BucketedSpMM",
    "CsrBackend",
    "ScatterBackend",
    "active_backend",
    "available_backends",
    "build_plan",
    "get_backend",
    "register_backend",
    "scatter_workers",
    "set_backend",
    "use_backend",
]


def _parse_workers(raw: str | None) -> int:
    if raw is None:
        return max(1, min(os.cpu_count() or 1, 8))
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_SCATTER_WORKERS must be a positive integer, got {raw!r}"
        ) from None
    if workers < 1:
        raise ValueError(f"REPRO_SCATTER_WORKERS must be >= 1, got {workers}")
    return workers


#: Worker threads available to sharded backends (import-time policy).
_WORKERS = _parse_workers(os.environ.get("REPRO_SCATTER_WORKERS"))
_POOL: ThreadPoolExecutor | None = None


def scatter_workers() -> int:
    """Worker threads sharded backends may use (``REPRO_SCATTER_WORKERS``)."""
    return _WORKERS


def _pool() -> ThreadPoolExecutor:
    """The shared kernel thread pool, created on first parallel apply."""
    global _POOL
    if _POOL is None:
        _POOL = ThreadPoolExecutor(
            max_workers=_WORKERS, thread_name_prefix="repro-scatter"
        )
    return _POOL


# --------------------------------------------------------------------------
# The bucketed SpMM kernel
# --------------------------------------------------------------------------


class BucketedSpMM:
    """``out = S @ X`` for a fixed sparse ``S``, degree-bucketed and sharded.

    ``S`` is given in row-sorted layout (``indptr`` over ``shape[0]``
    rows, ``indices`` into ``X``'s rows, optional per-entry ``weights``).
    Construction bins the rows by power-of-two degree (so same-shape rows
    sit adjacent in one permuted CSR matrix) and cuts the binned nonzero
    stream into up to ``workers`` nonzero-balanced shards at row
    boundaries — a hub row heavier than the per-shard budget gets a
    shard of its own instead of serialising a whole block, which is the
    balance skew-heavy graphs need.

    :meth:`apply` runs the shards concurrently when more than one worker
    is configured (scipy's CSR kernels drop the GIL). Every output row
    reduces in one sequential pass inside exactly one shard, so the
    result is bitwise-identical for any worker count.
    """

    __slots__ = (
        "shape",
        "perm",
        "indptr",
        "indices",
        "data",
        "shards",
        "bucket_widths",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray | None,
        shape: tuple[int, int],
        *,
        workers: int | None = None,
    ):
        num_rows, _ = shape
        self.shape = (int(shape[0]), int(shape[1]))
        counts = np.diff(indptr)
        nnz = int(indptr[-1])
        if data is None:
            # float32 ones: exact for float32 and float64 operands alike.
            data = np.ones(nnz, dtype=np.float32)

        # -- degree binning: rows ordered by ceil-pow2 bucket ------------
        nonempty = np.flatnonzero(counts)
        degree = counts[nonempty]
        exponent = np.zeros(len(nonempty), dtype=np.int64)
        if len(nonempty):
            exponent = np.ceil(np.log2(degree)).astype(np.int64)
        bucket_order = np.argsort(exponent, kind="stable")
        self.perm = nonempty[bucket_order]
        self.bucket_widths = (1 << exponent[bucket_order]).astype(np.int64)

        # Permuted CSR assembled with one vectorised run-gather.
        lengths = counts[self.perm]
        ends = np.cumsum(lengths)
        row_starts = indptr[:-1][self.perm]
        flat = np.arange(nnz, dtype=np.int64)
        if nnz:
            flat += np.repeat(row_starts - (ends - lengths), lengths)
        self.indptr = np.concatenate([[0], ends]).astype(np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)[flat]
        self.data = np.asarray(data)[flat]

        # -- nonzero-balanced shard boundaries (may split heavy rows) ----
        workers = _WORKERS if workers is None else max(1, int(workers))
        self.shards = self._cut_shards(min(workers, max(1, nnz)))

    def _cut_shards(self, num_shards: int) -> list:
        """[(row_lo, row_hi, csr_block)] with ~equal nonzeros per shard.

        Boundaries snap to the row boundary nearest each nonzero-count
        target, so no row is ever split: every output row reduces in one
        sequential pass and the result is bitwise-identical for any
        worker count. A hub row heavier than the target simply becomes
        its own shard — the nonzero-balanced split skew-heavy graphs
        need.
        """
        nnz = int(self.indptr[-1])
        num_rows = len(self.perm)
        targets = np.linspace(0, nnz, num_shards + 1)[1:-1]
        above = np.searchsorted(self.indptr, targets, side="left")
        below = np.maximum(above - 1, 0)
        snap_down = targets - self.indptr[below] <= self.indptr[above] - targets
        boundary_rows = np.where(snap_down, below, above)
        rows = np.unique(np.concatenate([[0], boundary_rows, [num_rows]]))
        shards = []
        for row_lo, row_hi in zip(rows[:-1], rows[1:]):
            row_lo, row_hi = int(row_lo), int(row_hi)
            lo, hi = int(self.indptr[row_lo]), int(self.indptr[row_hi])
            block = sparse.csr_matrix(
                (
                    self.data[lo:hi],
                    self.indices[lo:hi],
                    self.indptr[row_lo : row_hi + 1] - lo,
                ),
                shape=(row_hi - row_lo, self.shape[1]),
            )
            shards.append((row_lo, row_hi, block))
        return shards

    @profiled("spmm.bucketed")
    def apply(self, values: np.ndarray) -> np.ndarray:
        """``S @ values`` (``values`` is ``[shape[1], ...]``, 1- or 2-D)."""
        dtype = np.result_type(self.data.dtype, values.dtype)
        out = np.zeros((self.shape[0],) + values.shape[1:], dtype=dtype)
        if not len(self.perm):
            return out
        shards = self.shards
        if len(shards) == 1:
            out[self.perm] = shards[0][2] @ values
            return out
        buffers = _pool().map(lambda shard: shard[2] @ values, shards)
        gathered = np.empty((len(self.perm),) + values.shape[1:], dtype=dtype)
        for (row_lo, row_hi, _), buffer in zip(shards, buffers):
            gathered[row_lo:row_hi] = buffer
        out[self.perm] = gathered
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BucketedSpMM(shape={self.shape}, nnz={int(self.indptr[-1])}, "
            f"shards={len(self.shards)})"
        )


def _sorted_csr_from_coo(
    rows: np.ndarray, cols: np.ndarray, weights: np.ndarray | None, num_rows: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(indptr, indices, data) of the COO triplets in row-sorted layout."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    cols = np.asarray(cols, dtype=np.int64).reshape(-1)
    order = np.argsort(rows, kind="stable")
    counts = np.bincount(rows, minlength=num_rows)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    data = None if weights is None else np.asarray(weights).reshape(-1)[order]
    return indptr, cols[order], data


class _SparseOperator:
    """A fused SpMM operator with a lazily built adjoint.

    ``apply`` computes ``S @ X``; ``apply_t`` computes ``S.T @ G`` (the
    backward of ``apply``). The adjoint kernel is built on first use so
    inference-only paths never pay for it.
    """

    __slots__ = ("_forward", "_adjoint", "_build_adjoint")

    def __init__(self, forward, build_adjoint):
        self._forward = forward
        self._adjoint = None
        self._build_adjoint = build_adjoint

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self._forward(values)

    def apply_t(self, grad: np.ndarray) -> np.ndarray:
        if self._adjoint is None:
            self._adjoint = self._build_adjoint()
        return self._adjoint(grad)


# --------------------------------------------------------------------------
# Backend-specific plan classes
# --------------------------------------------------------------------------


class BucketedPlan(SegmentPlan):
    """Plan whose segment sums run the :class:`BucketedSpMM` kernel.

    Segment max/min keep the sorted-``reduceat`` kernels (no matmul
    form); sums — the dominant reduction — execute degree-bucketed and
    sharded. ``>2``-dimensional values run ``reduceat`` exactly like the
    base plan.
    """

    __slots__ = ("_bucketed", "_workers")

    def __init__(self, *args, workers: int | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._bucketed = None
        self._workers = workers

    @property
    def spmm(self) -> BucketedSpMM:
        """The plan's bucketed scatter operator, built once."""
        if self._bucketed is None:
            cols = self.order if self.order is not None else np.arange(self.size)
            self._bucketed = BucketedSpMM(
                self._indptr, cols, None, (self.dim_size, self.size),
                workers=self._workers,
            )
        return self._bucketed

    def segment_sum(self, values: np.ndarray) -> np.ndarray:
        if values.ndim <= 2:
            return self.spmm.apply(values)
        return self.segment_reduce(values, np.add, 0.0)


# --------------------------------------------------------------------------
# Backends and the registry
# --------------------------------------------------------------------------


class ScatterBackend(abc.ABC):
    """One named implementation of the planned scatter/SpMM kernels.

    Subclasses implement :meth:`build_plan` (return a
    :class:`~repro.tensor.scatter.SegmentPlan` subclass routing the six
    scatter ops and the gather backward onto their kernels) and
    :meth:`sparse_operator` (return the fused SpMM operator).
    """

    #: Registry key; also what ``REPRO_SCATTER_BACKEND`` matches against.
    name = "abstract"

    @abc.abstractmethod
    def build_plan(
        self,
        index: np.ndarray,
        dim_size: int,
        *,
        validate: bool = True,
        assume_sorted: bool = False,
    ) -> SegmentPlan:
        """A scatter plan for ``(index, dim_size)``."""

    @abc.abstractmethod
    def sparse_operator(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        weights: np.ndarray | None,
        shape: tuple[int, int],
    ) -> _SparseOperator:
        """The ``shape`` operator summing ``weights`` at ``(rows, cols)``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class CsrBackend(ScatterBackend):
    """The scipy-CSR engine (default)."""

    name = "csr"

    def build_plan(self, index, dim_size, *, validate=True, assume_sorted=False):
        return SegmentPlan(
            index, dim_size, validate=validate, assume_sorted=assume_sorted
        )

    def sparse_operator(self, rows, cols, weights, shape):
        matrix = sparse.csr_matrix((weights, (rows, cols)), shape=shape)

        def build_adjoint():
            transpose = matrix.T.tocsr()
            return lambda grad: np.asarray(transpose @ grad)

        return _SparseOperator(
            lambda values: np.asarray(matrix @ values), build_adjoint
        )


class BucketedBackend(ScatterBackend):
    """Degree-bucketed, nonzero-balanced, thread-sharded engine."""

    name = "bucketed"

    def __init__(self, workers: int | None = None):
        #: ``None`` follows the process-wide ``REPRO_SCATTER_WORKERS``.
        self.workers = workers

    def build_plan(self, index, dim_size, *, validate=True, assume_sorted=False):
        return BucketedPlan(
            index,
            dim_size,
            validate=validate,
            assume_sorted=assume_sorted,
            workers=self.workers,
        )

    def sparse_operator(self, rows, cols, weights, shape):
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        cols = np.asarray(cols, dtype=np.int64).reshape(-1)
        forward = BucketedSpMM(
            *_sorted_csr_from_coo(rows, cols, weights, shape[0]),
            shape,
            workers=self.workers,
        )

        def build_adjoint():
            adjoint = BucketedSpMM(
                *_sorted_csr_from_coo(cols, rows, weights, shape[1]),
                (shape[1], shape[0]),
                workers=self.workers,
            )
            return adjoint.apply

        return _SparseOperator(forward.apply, build_adjoint)


_REGISTRY: dict[str, ScatterBackend] = {}


def register_backend(backend: ScatterBackend, *, replace: bool = False) -> None:
    """Add ``backend`` to the registry (``replace=True`` to overwrite)."""
    if not replace and backend.name in _REGISTRY:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend


def available_backends() -> tuple[str, ...]:
    """Registered backend names, registration order."""
    return tuple(_REGISTRY)


def get_backend(name: str) -> ScatterBackend:
    """The registered backend called ``name`` (unknown names fail fast)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scatter backend {name!r}; "
            f"valid backends: {', '.join(sorted(_REGISTRY))}"
        ) from None


def active_backend() -> ScatterBackend:
    """The backend new plans and operators are built with."""
    return _ACTIVE.get()


def set_backend(name: str) -> ScatterBackend:
    """Select the process-wide scatter backend; returns it."""
    backend = get_backend(name)
    _ACTIVE.set(backend)
    return backend


def use_backend(name: str):
    """Run the block under backend ``name`` in the calling thread.

    Yields the backend. Other threads keep their backend, and leaving
    the block restores this thread's previous one. Plans already built
    (and cached on contexts/batches) by other backends are untouched —
    caches key by backend name, so switching mid-session never
    cross-contaminates.
    """
    return _ACTIVE.scoped(get_backend(name))


def build_plan(
    index: np.ndarray,
    dim_size: int,
    *,
    validate: bool = True,
    assume_sorted: bool = False,
) -> SegmentPlan:
    """A scatter plan for ``(index, dim_size)`` from the active backend."""
    return _ACTIVE.get().build_plan(
        index, dim_size, validate=validate, assume_sorted=assume_sorted
    )


register_backend(CsrBackend())
register_backend(BucketedBackend())
_ACTIVE = ScopedValue("scatter_backend", _REGISTRY["csr"])

#: ``REPRO_SCATTER_BACKEND`` selects the starting backend; unknown names
#: fail fast at import with the valid set (the CI matrix relies on this).
_env_backend = os.environ.get("REPRO_SCATTER_BACKEND")
if _env_backend:
    set_backend(_env_backend)
