"""GNN-FiLM layer (Brockschmidt, 2020).

Messages along relation ``r`` are modulated feature-wise by the *target*
node: ``gamma, beta = g_r(x_target)`` and the message becomes
``sigma(gamma * W_r x_source + beta)``. A self-loop relation is always
present so isolated nodes still update.

Both per-relation weight stacks (message transform and FiLM generator)
are :class:`~repro.nn.RelationLinear` modules. Per-edge message values
(gathered at ``src``) and per-edge FiLM parameters (gathered at
``dst``) come out of the batched relation kernels, are modulated
edge-wise and land with ONE fused ``1/c_{v,r}``-weighted SpMM — the
per-relation ``scatter_mean`` of the definition, whose loop is the test
oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from repro.gnn.message_passing import GraphContext
from repro.nn import Linear, Module, RelationLinear
from repro.tensor import Tensor, relu


class FiLMLayer(Module):
    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        num_relations: int,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        self.num_relations = num_relations
        self.message_linear = RelationLinear(
            in_dim, out_dim, num_relations, bias=False, rng=rng
        )
        # gamma and beta jointly predicted: [N, 2 * out_dim].
        self.film_generator = RelationLinear(
            in_dim, 2 * out_dim, num_relations, bias=True, rng=rng
        )
        self.self_linear = Linear(in_dim, out_dim, bias=False, rng=rng)
        self.self_film = Linear(in_dim, 2 * out_dim, rng=rng)
        self.out_dim = out_dim

    def _modulate(self, film: Tensor, value: Tensor) -> Tensor:
        gamma = film[:, : self.out_dim]
        beta = film[:, self.out_dim :]
        return relu(gamma * value + beta)

    def aggregate(self, x: Tensor, ctx: GraphContext) -> Tensor | None:
        """Per-relation mean of modulated messages, summed over
        relations; ``None`` when the context has no edges."""
        fusion = ctx.relation_fusion(self.num_relations)
        if not fusion.num_edges:
            return None
        value = self.message_linear.edge_messages(x, fusion, endpoint="src")
        film = self.film_generator.edge_messages(x, fusion, endpoint="dst")
        return fusion.weighted_scatter(self._modulate(film, value))

    def forward(self, x: Tensor, ctx: GraphContext) -> Tensor:
        out = self._modulate(self.self_film(x), self.self_linear(x))
        message = self.aggregate(x, ctx)
        return out if message is None else out + message
