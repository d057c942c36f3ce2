"""Gated graph neural network layer (Li et al., 2016).

Messages use edge-type-dependent weights; node states are updated with a
gated recurrent unit, so ``in_dim`` must equal ``out_dim`` (the network
builder guarantees this after the input encoder).

Message weights live in one stacked :class:`~repro.nn.RelationLinear`.
Because the aggregated message is a plain sum over relations, every
relation's edge messages come out of one batched kernel and land with
ONE ``scatter_sum`` (or one fused SpMM) over the whole partitioned edge
array — no per-relation loop, no R-term tensor addition chain.
"""

from __future__ import annotations

import numpy as np

from repro.gnn.message_passing import GraphContext
from repro.nn import Linear, Module, RelationLinear
from repro.tensor import Tensor, scatter_sum


class GGNNLayer(Module):
    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        num_relations: int,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if in_dim != out_dim:
            raise ValueError("GGNN requires in_dim == out_dim (recurrent update)")
        self.num_relations = num_relations
        self.message_linear = RelationLinear(
            in_dim, out_dim, num_relations, bias=False, rng=rng
        )
        # GRU gates: input is the aggregated message, hidden is the node state.
        self.w_update = Linear(out_dim, out_dim, rng=rng)
        self.u_update = Linear(out_dim, out_dim, bias=False, rng=rng)
        self.w_reset = Linear(out_dim, out_dim, rng=rng)
        self.u_reset = Linear(out_dim, out_dim, bias=False, rng=rng)
        self.w_cand = Linear(out_dim, out_dim, rng=rng)
        self.u_cand = Linear(out_dim, out_dim, bias=False, rng=rng)

    def aggregate(self, x: Tensor, ctx: GraphContext) -> Tensor | None:
        """Sum of transformed neighbours over every relation; ``None``
        when the context has no edges."""
        fusion = ctx.relation_fusion(self.num_relations)
        if not fusion.num_edges:
            return None
        if fusion.prefer_block(len(x)):
            messages = self.message_linear.edge_messages(x, fusion, path="block")
            return scatter_sum(
                messages, None, ctx.num_nodes, plan=fusion.plan("dst")
            )
        return fusion.collect(self.message_linear(x))

    def forward(self, x: Tensor, ctx: GraphContext) -> Tensor:
        message = self.aggregate(x, ctx)
        if message is None:
            message = x * 0.0
        update = (self.w_update(message) + self.u_update(x)).sigmoid()
        reset = (self.w_reset(message) + self.u_reset(x)).sigmoid()
        candidate = (self.w_cand(message) + self.u_cand(x * reset)).tanh()
        return x * (1.0 - update) + candidate * update
