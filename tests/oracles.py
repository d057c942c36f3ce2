"""Reference implementations the engine's fast paths are tested against.

Each oracle restates an engine operation in its most direct form, sharing
no scatter kernels, plans or partitions with the code under test:

- **scatter/gather ops** — ``gather_rows`` and ``scatter_sum`` / ``mean``
  / ``max`` / ``min`` / ``std`` / ``softmax`` on unbuffered
  ``np.add.at`` / ``ufunc.at``, differentiable, with the engine's call
  signature (a ``plan`` argument only supplies the index);
- **per-relation loops** — the RGCN, GGNN and FiLM aggregations as one
  gather → transform → scatter pass per relation, with each relation's
  edges taken from a plain mask over ``sym_rel`` rather than the
  lexsorted partition the fused kernels use;
- **GCN propagation** — gather, multiply by the edge norm, scatter.

:func:`reference_engine` routes every GNN layer through these oracles
for a block, so whole-model tests and benchmarks can compare the engine
with them. The module is imported as ``tests.oracles`` by both suites
(``python -m pytest`` puts the repository root on ``sys.path``).
"""

from __future__ import annotations

import contextlib
import sys
from unittest import mock

import numpy as np

from repro.gnn.film import FiLMLayer
from repro.gnn.ggnn import GGNNLayer
from repro.gnn.message_passing import GraphContext
from repro.gnn.rgcn import RGCNLayer
from repro.tensor import Tensor
from repro.tensor import scatter as engine

# ---------------------------------------------------------------------------
# Scatter/gather ops
# ---------------------------------------------------------------------------


def _index(index, plan, size: int, dim_size: int) -> np.ndarray:
    """The op's index vector (from ``plan`` when ``index`` is None), checked."""
    index = np.asarray(plan.index if index is None else index, dtype=np.int64)
    if index.shape != (size,):
        raise ValueError(f"index shape {index.shape} != ({size},)")
    if len(index) and (index.min() < 0 or index.max() >= dim_size):
        raise ValueError("index out of range for dim_size")
    return index


def gather_rows(x: Tensor, index, plan=None) -> Tensor:
    index = np.asarray(index, dtype=np.int64)
    data = x.data[index]

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            out = np.zeros_like(x.data)
            np.add.at(out, index, grad)
            x._accumulate(out)

    return Tensor._make(data, (x,), backward)


def scatter_sum(src: Tensor, index, dim_size: int, plan=None, validated=False) -> Tensor:
    index = _index(index, plan, len(src.data), dim_size)
    data = np.zeros((dim_size,) + src.shape[1:], dtype=src.data.dtype)
    np.add.at(data, index, src.data)

    def backward(grad: np.ndarray) -> None:
        if src.requires_grad:
            src._accumulate(grad[index])

    return Tensor._make(data, (src,), backward)


def scatter_mean(src: Tensor, index, dim_size: int, plan=None, validated=False) -> Tensor:
    index = _index(index, plan, len(src.data), dim_size)
    total = scatter_sum(src, index, dim_size)
    counts = np.maximum(np.bincount(index, minlength=dim_size), 1)
    counts = counts.reshape((dim_size,) + (1,) * (src.ndim - 1))
    return total / Tensor(counts.astype(src.data.dtype))


def _extremum(src: Tensor, index, dim_size: int, plan, ufunc) -> Tensor:
    index = _index(index, plan, len(src.data), dim_size)
    fill = -np.inf if ufunc is np.maximum else np.inf
    data = np.full((dim_size,) + src.shape[1:], fill, dtype=src.data.dtype)
    ufunc.at(data, index, src.data)
    # Empty segments give 0 (the PyG convention), not +-inf.
    data[np.bincount(index, minlength=dim_size) == 0] = 0.0

    def backward(grad: np.ndarray) -> None:
        if src.requires_grad:
            winners = (src.data == data[index]).astype(src.data.dtype)
            ties = np.zeros_like(data)
            np.add.at(ties, index, winners)
            ties = np.maximum(ties, 1.0)
            src._accumulate(grad[index] * winners / ties[index])

    return Tensor._make(data, (src,), backward)


def scatter_max(src: Tensor, index, dim_size: int, plan=None, validated=False) -> Tensor:
    return _extremum(src, index, dim_size, plan, np.maximum)


def scatter_min(src: Tensor, index, dim_size: int, plan=None, validated=False) -> Tensor:
    return _extremum(src, index, dim_size, plan, np.minimum)


def scatter_std(
    src: Tensor, index, dim_size: int, eps: float = 1e-5, plan=None, validated=False
) -> Tensor:
    mean = scatter_mean(src, index, dim_size, plan=plan)
    mean_sq = scatter_mean(src * src, index, dim_size, plan=plan)
    return ((mean_sq - mean * mean).relu() + eps).sqrt()


def scatter_softmax(src: Tensor, index, dim_size: int, plan=None, validated=False) -> Tensor:
    index = _index(index, plan, len(src.data), dim_size)
    seg_max = scatter_max(src.detach(), index, dim_size)
    numer = (src - gather_rows(seg_max, index)).exp()
    denom = gather_rows(scatter_sum(numer, index, dim_size), index)
    return numer / (denom + 1e-16)


#: Engine op name -> oracle, for tests that sweep every op.
OPS = {
    "gather_rows": gather_rows,
    "scatter_sum": scatter_sum,
    "scatter_mean": scatter_mean,
    "scatter_max": scatter_max,
    "scatter_min": scatter_min,
    "scatter_std": scatter_std,
    "scatter_softmax": scatter_softmax,
}

# ---------------------------------------------------------------------------
# GCN propagation and the per-relation loops
# ---------------------------------------------------------------------------


def propagate_gcn(ctx: GraphContext, x: Tensor) -> Tensor:
    """``D^-1/2 Ã D^-1/2 x`` as gather · edge norm · scatter."""
    messages = gather_rows(x, ctx.gcn_src) * Tensor(ctx.gcn_norm)
    return scatter_sum(messages, ctx.gcn_dst, ctx.num_nodes)


def relation_edges(ctx: GraphContext, relation: int) -> tuple[np.ndarray, np.ndarray]:
    """(src, dst) of one direction-aware relation, in symmetric-edge order."""
    mask = ctx.sym_rel == relation
    return ctx.sym_src[mask], ctx.sym_dst[mask]


def relation_transform(linear, x: Tensor, relation: int) -> Tensor:
    """One relation's slice of a ``RelationLinear`` applied to every node."""
    out = x @ linear.weight[relation]
    if linear.bias is not None:
        out = out + linear.bias[relation]
    return out


def _sum(terms) -> Tensor | None:
    total = None
    for term in terms:
        total = term if total is None else total + term
    return total


def rgcn_aggregate(layer: RGCNLayer, x: Tensor, ctx: GraphContext) -> Tensor | None:
    def term(relation, src, dst):
        transformed = relation_transform(layer.relation_linear, x, relation)
        return scatter_mean(gather_rows(transformed, src), dst, ctx.num_nodes)

    return _sum(_per_relation(layer, ctx, term))


def ggnn_aggregate(layer: GGNNLayer, x: Tensor, ctx: GraphContext) -> Tensor | None:
    def term(relation, src, dst):
        transformed = relation_transform(layer.message_linear, x, relation)
        return scatter_sum(gather_rows(transformed, src), dst, ctx.num_nodes)

    return _sum(_per_relation(layer, ctx, term))


def film_aggregate(layer: FiLMLayer, x: Tensor, ctx: GraphContext) -> Tensor | None:
    def term(relation, src, dst):
        value = gather_rows(relation_transform(layer.message_linear, x, relation), src)
        film = gather_rows(relation_transform(layer.film_generator, x, relation), dst)
        return scatter_mean(layer._modulate(film, value), dst, ctx.num_nodes)

    return _sum(_per_relation(layer, ctx, term))


def _per_relation(layer, ctx: GraphContext, term):
    """``term(r, src, dst)`` for every relation both layer and context
    cover that has edges."""
    for relation in range(min(layer.num_relations, ctx.num_relations)):
        src, dst = relation_edges(ctx, relation)
        if len(src):
            yield term(relation, src, dst)


# ---------------------------------------------------------------------------
# Whole-model switch
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def reference_engine():
    """Run every GNN layer on the oracles above inside the block.

    Patches ``GraphContext.propagate_gcn``, the ``aggregate`` method of
    RGCN/GGNN/FiLM, and every engine scatter/gather op a ``repro.gnn``
    module imported by name. Not thread-safe: the patches are
    process-wide, so use it from single-threaded tests and benchmarks.
    """
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(GraphContext, "propagate_gcn", propagate_gcn))
        for layer, aggregate in (
            (RGCNLayer, rgcn_aggregate),
            (GGNNLayer, ggnn_aggregate),
            (FiLMLayer, film_aggregate),
        ):
            stack.enter_context(mock.patch.object(layer, "aggregate", aggregate))
        modules = [m for n, m in sys.modules.items() if n.startswith("repro.gnn")]
        for module in modules:
            for name, oracle in OPS.items():
                if getattr(module, name, None) is getattr(engine, name):
                    stack.enter_context(mock.patch.object(module, name, oracle))
        yield
