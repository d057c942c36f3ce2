"""Scatter/gather primitives — the substrate of message passing.

All GNN aggregation in :mod:`repro.gnn` reduces to these operations on a
flat ``[num_edges, dim]`` message matrix and an integer target-index
vector. Gradients flow through every primitive, so layers composed from
them need no hand-written backward passes.

Every operation runs through a :class:`SegmentPlan` — one stable
argsort of the index vector plus the segment boundaries of the sorted
copy. Segment sums run as one sparse-matrix product, segment max/min as
``np.maximum.reduceat`` / ``np.minimum.reduceat`` over the contiguous
runs of the sorted copy. A plan pays off when the same index vector is
reduced many times (every layer of every forward/backward over a
batch), which is why :class:`~repro.gnn.message_passing.GraphContext`
builds plans once per batch topology and threads them through the
layers. A caller without a plan gets a one-off plan from the active
backend; ``gather_rows`` builds it only inside its backward, so
no-grad gathers pay nothing. ``tests/oracles.py`` keeps the unbuffered
scatter-add reference implementations every op is tested against.

Backend selection
-----------------
*How* a planned kernel executes is pluggable. The registry in
:mod:`repro.tensor.backends` maps names to :class:`ScatterBackend`
implementations; each backend builds :class:`SegmentPlan` (sub)classes
whose ``segment_sum`` / ``segment_reduce`` run its kernels, so every
scatter op below and the ``gather_rows`` backward execute through the
selected backend without further dispatch. Registered today:

- ``"csr"`` (default) — one scipy CSR scatter matrix per plan, segment
  max/min via sorted ``reduceat`` (this module's :class:`SegmentPlan`);
- ``"bucketed"`` — degree-bucketed rows cut into nonzero-balanced
  shards executed on a thread pool; the backend for skew-heavy graphs
  on multi-core hosts.

Select with ``repro.tensor.use_backend("bucketed")`` (scoped to the
calling thread), ``set_backend`` (process-wide) or the
``REPRO_SCATTER_BACKEND`` environment variable; unknown names fail fast
with the valid set. Plans are cached per backend on
``GraphContext``/``Batch``, so switching backends mid-session never
reuses another backend's kernels.

Index validation happens once per plan (at construction). A call
without a plan validates its index unless the caller passes
``validated=True`` (e.g. a serving boundary that already ran
:func:`repro.graph.validation.validate_inference_graph`).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.tensor.profiling import profiled
from repro.tensor.tensor import Tensor


def _check_index(
    index: np.ndarray, size: int, dim_size: int, validated: bool = False
) -> np.ndarray:
    index = np.asarray(index)
    if index.ndim != 1:
        raise ValueError(f"index must be 1-D, got shape {index.shape}")
    if len(index) != size:
        raise ValueError(f"index length {len(index)} != source rows {size}")
    if not validated and len(index) and (index.min() < 0 or index.max() >= dim_size):
        raise ValueError("index out of range for dim_size")
    return index.astype(np.int64)


class SegmentPlan:
    """Precomputed sorted-segment layout for one (index, dim_size) pair.

    Pays one stable argsort + one ``bincount`` up front. Segment *sums*
    (the dominant reduction: scatter_sum/mean/softmax and every gather
    backward) then run as one CSR sparse-matrix product ``S @ values``
    where ``S[seg, row] = 1`` — the CSR structure is assembled directly
    from the argsort, with no COO conversion. Segment max/min (no matmul
    form) gather into sorted order and run a single ``ufunc.reduceat``
    over contiguous runs. Empty segments are handled by reducing only
    the non-empty runs and leaving the fill value in place.

    ``assume_sorted=True`` skips the argsort for index vectors that are
    already non-decreasing (e.g. per-relation slices of an edge array
    lexsorted by (relation, dst)).
    """

    __slots__ = (
        "index",
        "dim_size",
        "size",
        "order",
        "starts",
        "nonempty",
        "counts",
        "_indptr",
        "_csr",
    )

    def __init__(
        self,
        index: np.ndarray,
        dim_size: int,
        *,
        validate: bool = True,
        assume_sorted: bool = False,
    ):
        index = np.asarray(index, dtype=np.int64).reshape(-1)
        dim_size = int(dim_size)
        if validate and len(index) and (index.min() < 0 or index.max() >= dim_size):
            raise ValueError("index out of range for dim_size")
        self.index = index
        self.dim_size = dim_size
        self.size = len(index)
        #: Permutation into sorted order; ``None`` when already sorted.
        self.order = None if assume_sorted else np.argsort(index, kind="stable")
        #: Rows per segment, cached once so scatter_mean/std and degree
        #: scalers stop recomputing ``np.bincount`` every layer every step.
        self.counts = np.bincount(index, minlength=dim_size).astype(np.float64)
        int_counts = self.counts.astype(np.int64)
        ends = np.cumsum(int_counts)
        self.nonempty = np.flatnonzero(int_counts)
        self.starts = (ends - int_counts)[self.nonempty]
        self._indptr = np.concatenate([[0], ends])
        self._csr = None

    def sort(self, values: np.ndarray) -> np.ndarray:
        """Rows of ``values`` permuted so equal-index rows are contiguous."""
        return values if self.order is None else values[self.order]

    def _scatter_matrix(self):
        """Lazily built ``[dim_size, size]`` CSR summing rows per segment.

        Row ``seg`` has ones in the source positions mapping to ``seg`` —
        exactly the sorted order already computed, so the CSR arrays are
        assembled without any further sorting.
        """
        if self._csr is None:
            cols = self.order if self.order is not None else np.arange(self.size)
            # float32 ones: exact for both float32 and float64 operands, and
            # keeps float32 values from being silently promoted to float64.
            self._csr = sparse.csr_matrix(
                (np.ones(self.size, dtype=np.float32), cols, self._indptr),
                shape=(self.dim_size, self.size),
            )
        return self._csr

    def segment_reduce(self, values: np.ndarray, ufunc, fill: float) -> np.ndarray:
        """``ufunc``-reduce rows of ``values`` per segment over sorted runs."""
        out = np.full((self.dim_size,) + values.shape[1:], fill, dtype=values.dtype)
        if self.size:
            out[self.nonempty] = ufunc.reduceat(self.sort(values), self.starts, axis=0)
        return out

    def segment_sum(self, values: np.ndarray) -> np.ndarray:
        if values.ndim <= 2:
            return np.asarray(self._scatter_matrix() @ values)
        return self.segment_reduce(values, np.add, 0.0)

    def __repr__(self) -> str:
        return f"SegmentPlan(size={self.size}, dim_size={self.dim_size})"


def _backend_plan(index: np.ndarray, dim_size: int) -> SegmentPlan:
    """A one-off plan over an already validated index, from the active backend."""
    from repro.tensor.backends import build_plan  # backends builds on this module

    return build_plan(index, dim_size, validate=False)


def _resolve_plan(
    index: np.ndarray | None,
    plan: SegmentPlan | None,
    size: int,
    dim_size: int,
    validated: bool,
) -> SegmentPlan:
    """``plan`` checked against the call, or a fresh one over ``index``."""
    if plan is None:
        if index is None:
            raise ValueError("either index or plan must be provided")
        return _backend_plan(_check_index(index, size, dim_size, validated), dim_size)
    if plan.size != size:
        raise ValueError(f"plan covers {plan.size} rows, source has {size}")
    if plan.dim_size != dim_size:
        raise ValueError(f"plan dim_size {plan.dim_size} != requested {dim_size}")
    _spot_check_plan_index(index, plan)
    return plan


def _spot_check_plan_index(index, plan: SegmentPlan) -> None:
    """O(1) guard that a caller-supplied index belongs to ``plan``.

    A full comparison would cost the O(E) scan plans exist to avoid, so
    only the endpoints are checked — enough to catch the realistic
    mistake of pairing an op with the wrong precomputed plan.
    """
    if index is None or index is plan.index or not len(plan.index):
        return
    index = np.asarray(index)
    if index[0] != plan.index[0] or index[-1] != plan.index[-1]:
        raise ValueError("plan was built for a different index vector")


def segment_counts(index: np.ndarray, dim_size: int) -> np.ndarray:
    """Number of source rows mapping to each of ``dim_size`` segments."""
    index = np.asarray(index, dtype=np.int64)
    return np.bincount(index, minlength=dim_size).astype(np.float64)


@profiled("gather_rows")
def gather_rows(
    x: Tensor, index: np.ndarray, plan: SegmentPlan | None = None
) -> Tensor:
    """Select rows ``x[index]`` with gradient scatter-added back.

    ``plan`` must segment ``index`` into ``len(x)`` rows; the backward
    scatter-add runs through it (the forward is a plain fancy index).
    Without one, the backward builds its own from the active backend.
    """
    index = np.asarray(index, dtype=np.int64)
    if plan is not None:
        if plan.size != len(index) or plan.dim_size != len(x.data):
            raise ValueError(
                f"plan ({plan.size} rows into {plan.dim_size}) does not match "
                f"gather of {len(index)} rows from {len(x.data)}"
            )
        _spot_check_plan_index(index, plan)
    data = x.data[index]

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            scatter = plan if plan is not None else _backend_plan(index, len(x.data))
            x._accumulate(scatter.segment_sum(grad))

    return Tensor._make(data, (x,), backward)


@profiled("scatter_sum")
def scatter_sum(
    src: Tensor,
    index: np.ndarray | None,
    dim_size: int,
    plan: SegmentPlan | None = None,
    validated: bool = False,
) -> Tensor:
    """Sum rows of ``src`` into ``dim_size`` output rows keyed by ``index``."""
    plan = _resolve_plan(index, plan, len(src.data), dim_size, validated)
    data = plan.segment_sum(src.data)

    def backward(grad: np.ndarray) -> None:
        if src.requires_grad:
            src._accumulate(grad[plan.index])

    return Tensor._make(data, (src,), backward)


def scatter_mean(
    src: Tensor,
    index: np.ndarray | None,
    dim_size: int,
    plan: SegmentPlan | None = None,
    validated: bool = False,
) -> Tensor:
    """Mean-aggregate rows of ``src`` per segment (empty segments give 0)."""
    plan = _resolve_plan(index, plan, len(src.data), dim_size, validated)
    total = scatter_sum(src, None, dim_size, plan=plan)
    counts = np.maximum(plan.counts, 1.0).reshape((dim_size,) + (1,) * (src.ndim - 1))
    # Divide in the source dtype so float32 inputs stay float32.
    return total / Tensor(counts.astype(src.data.dtype, copy=False))


@profiled("scatter_extremum")
def _scatter_extremum(src: Tensor, plan: SegmentPlan, mode: str) -> Tensor:
    ufunc = np.maximum if mode == "max" else np.minimum
    # Empty segments never appear in plan.nonempty, so they keep the 0
    # fill (the PyG convention) instead of poisoning maths with +-inf.
    data = plan.segment_reduce(src.data, ufunc, 0.0)

    def backward(grad: np.ndarray) -> None:
        if not src.requires_grad:
            return
        index = plan.index
        winners = (src.data == data[index]).astype(src.data.dtype)
        ties = np.maximum(plan.segment_sum(winners), 1.0)
        src._accumulate(grad[index] * winners / ties[index])

    return Tensor._make(data, (src,), backward)


def scatter_max(
    src: Tensor,
    index: np.ndarray | None,
    dim_size: int,
    plan: SegmentPlan | None = None,
    validated: bool = False,
) -> Tensor:
    """Per-segment elementwise max (0 for empty segments)."""
    plan = _resolve_plan(index, plan, len(src.data), dim_size, validated)
    return _scatter_extremum(src, plan, "max")


def scatter_min(
    src: Tensor,
    index: np.ndarray | None,
    dim_size: int,
    plan: SegmentPlan | None = None,
    validated: bool = False,
) -> Tensor:
    """Per-segment elementwise min (0 for empty segments)."""
    plan = _resolve_plan(index, plan, len(src.data), dim_size, validated)
    return _scatter_extremum(src, plan, "min")


def scatter_std(
    src: Tensor,
    index: np.ndarray | None,
    dim_size: int,
    eps: float = 1e-5,
    plan: SegmentPlan | None = None,
    validated: bool = False,
) -> Tensor:
    """Per-segment standard deviation, composed from differentiable parts.

    Uses ``sqrt(relu(E[x^2] - E[x]^2) + eps)`` which matches the PNA
    reference implementation and stays differentiable at zero variance.
    """
    plan = _resolve_plan(index, plan, len(src.data), dim_size, validated)
    mean = scatter_mean(src, None, dim_size, plan=plan)
    mean_sq = scatter_mean(src * src, None, dim_size, plan=plan)
    var = (mean_sq - mean * mean).relu()
    return (var + eps).sqrt()


def scatter_softmax(
    src: Tensor,
    index: np.ndarray | None,
    dim_size: int,
    plan: SegmentPlan | None = None,
    validated: bool = False,
) -> Tensor:
    """Segment-wise softmax over rows of ``src`` (used by GAT attention).

    The per-segment max is detached before subtraction — a standard
    stabilisation that leaves gradients identical because softmax is
    shift-invariant.
    """
    plan = _resolve_plan(index, plan, len(src.data), dim_size, validated)
    index = plan.index
    seg_max = _scatter_extremum(src.detach(), plan, "max")
    shifted = src - gather_rows(seg_max, index, plan=plan)
    numer = shifted.exp()
    denom = gather_rows(scatter_sum(numer, None, dim_size, plan=plan), index, plan=plan)
    return numer / (denom + 1e-16)
