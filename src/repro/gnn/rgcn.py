"""Relational GCN layer (Schlichtkrull et al., 2018).

One weight matrix per direction-aware relation; per-relation mean
normalisation (``1/c_{v,r}``) as in the original paper.

The relation transforms run through one :class:`~repro.nn.RelationLinear`
(stacked ``[R, D, D]`` weight), so the per-relation gather → transform →
``scatter_mean`` loop of the definition collapses into: one batched
relation transform producing every edge message (block or stacked
kernel, whichever transforms fewer rows) and ONE fused
``1/c_{v,r}``-weighted SpMM over all relations' edges. The loop itself
is the test oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from repro.gnn.message_passing import GraphContext
from repro.nn import Linear, Module, RelationLinear
from repro.tensor import Tensor


class RGCNLayer(Module):
    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        num_relations: int,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if num_relations < 1:
            raise ValueError("num_relations must be >= 1")
        self.num_relations = num_relations
        self.self_loop = Linear(in_dim, out_dim, rng=rng)
        self.relation_linear = RelationLinear(
            in_dim, out_dim, num_relations, bias=False, rng=rng
        )

    def aggregate(self, x: Tensor, ctx: GraphContext) -> Tensor | None:
        """Per-relation mean of transformed neighbours, summed over
        relations; ``None`` when the context has no edges."""
        fusion = ctx.relation_fusion(self.num_relations)
        if not fusion.num_edges:
            return None
        if fusion.prefer_block(len(x)):
            messages = self.relation_linear.edge_messages(x, fusion, path="block")
            return fusion.weighted_scatter(messages)
        return fusion.collect(self.relation_linear(x), weighted=True)

    def forward(self, x: Tensor, ctx: GraphContext) -> Tensor:
        if ctx.num_relations != self.num_relations:
            raise ValueError(
                f"layer built for {self.num_relations} relations, "
                f"context has {ctx.num_relations}"
            )
        out = self.self_loop(x)
        message = self.aggregate(x, ctx)
        return out if message is None else out + message
