"""Mini-batching by disjoint union (the PyG convention).

Graphs are concatenated into one big disconnected graph; ``batch`` maps
each node to its source graph so pooling can separate them again.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.data import GraphData


class Batch:
    """Disjoint union of :class:`GraphData` samples."""

    def __init__(self, graphs: Sequence[GraphData]):
        if not graphs:
            raise ValueError("cannot batch zero graphs")
        dims = {g.feature_dim for g in graphs}
        if len(dims) != 1:
            raise ValueError(f"inconsistent feature dims in batch: {sorted(dims)}")
        self.graphs = list(graphs)
        counts = np.array([g.num_nodes for g in graphs], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        self.ptr = offsets
        self.num_graphs = len(graphs)
        self.num_nodes = int(offsets[-1])
        self.node_features = np.concatenate([g.node_features for g in graphs], axis=0)
        self.edge_index = np.concatenate(
            [g.edge_index + offsets[i] for i, g in enumerate(graphs)], axis=1
        )
        self.edge_type = np.concatenate([g.edge_type for g in graphs])
        self.edge_back = np.concatenate([g.edge_back for g in graphs])
        self.batch = np.repeat(np.arange(self.num_graphs, dtype=np.int64), counts)
        self.y = (
            np.stack([g.y for g in graphs])
            if all(g.y is not None for g in graphs)
            else None
        )
        self.node_labels = (
            np.concatenate([g.node_labels for g in graphs], axis=0)
            if all(g.node_labels is not None for g in graphs)
            else None
        )
        self.node_resources = (
            np.concatenate([g.node_resources for g in graphs], axis=0)
            if all(g.node_resources is not None for g in graphs)
            else None
        )
        #: Per-``num_edge_types`` GraphContext memo, filled by
        #: :meth:`repro.gnn.message_passing.GraphContext.from_batch` so a
        #: reused batch (the trainer's epoch loops over pinned batches)
        #: pays for topology precomputation — symmetrisation, GCN norms,
        #: scatter plans — exactly once. The serving tier builds a fresh
        #: batch per flush, so it never hits this memo.
        self._memo: dict = {}
        self._core_index: np.ndarray | None | bool = False

    @property
    def num_edges(self) -> int:
        return self.edge_index.shape[1]

    @property
    def core_index(self) -> np.ndarray | None:
        """Global row ids of *core* (seed) nodes, or ``None``.

        Sampled subgraphs from :class:`repro.graph.partition.NeighborSampler`
        order their seed nodes first and record the count in
        ``meta["sampled_core"]``; losses and metrics must only read those
        rows — the remaining rows are receptive-field support whose
        embeddings are biased by the fan-in cap. ``None`` means every row
        is a real target (no graph in the batch is a sampled subgraph).
        """
        if self._core_index is False:
            counts = [
                int(g.meta.get("sampled_core", g.num_nodes)) for g in self.graphs
            ]
            if all(c == g.num_nodes for c, g in zip(counts, self.graphs)):
                self._core_index = None
            else:
                self._core_index = np.concatenate(
                    [
                        np.arange(count, dtype=np.int64) + self.ptr[i]
                        for i, count in enumerate(counts)
                    ]
                )
        return self._core_index

    @property
    def feature_dim(self) -> int:
        return self.node_features.shape[1]

    def __repr__(self) -> str:
        return (
            f"Batch(graphs={self.num_graphs}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )


def batch_schedule(
    num_graphs: int,
    batch_size: int,
    rng: np.random.Generator | None = None,
) -> list[np.ndarray]:
    """Index chunks for one pass over ``num_graphs`` samples.

    Drawn once and replayed, this is what makes streaming training
    (lazy shard-backed batches, rebuilt every epoch) bitwise-identical
    to in-memory training (batches materialised once): both paths
    consume the same schedule from the same rng draw.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    order = np.arange(num_graphs)
    if rng is not None:
        rng.shuffle(order)
    return [
        order[start : start + batch_size]
        for start in range(0, num_graphs, batch_size)
    ]


def iter_batches(
    graphs: Sequence[GraphData],
    batch_size: int,
    rng: np.random.Generator | None = None,
):
    """Yield :class:`Batch` objects, shuffling when ``rng`` is given.

    ``graphs`` may be any sequence, including the lazy shard-backed
    readers from :mod:`repro.dataset.shards`.
    """
    for chunk in batch_schedule(len(graphs), batch_size, rng):
        yield Batch([graphs[int(i)] for i in chunk])
