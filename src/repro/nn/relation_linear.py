"""Batched per-relation affine transform — R ``Linear`` layers in one.

The relational GNN layers (RGCN, GGNN, FiLM) used to hold a
``ModuleList`` of per-relation ``Linear`` modules and pay one dense call
per relation per layer per step. :class:`RelationLinear` stacks the
weights into a single ``[R, D_in, D_out]`` parameter and offers two
execution paths:

- :meth:`forward` — transform *all* nodes for *all* relations in one
  batched matmul (``[R, N, D_out]`` out);
- :meth:`edge_messages` — produce exactly the per-edge messages a
  relational layer needs, in the relation-partitioned edge order of a
  :class:`~repro.gnn.message_passing.RelationFusion`, choosing between
  the gather-by-relation *block* kernel (cost ``E * D * O``) and the
  stacked *all-nodes* kernel (cost ``R * N * D * O``) — whichever
  transforms fewer rows.

The per-relation formulation (slice one weight, transform every node)
is the test oracle in ``tests/oracles.py``.

Weight initialisation draws R Glorot matrices from the rng in relation
order — the exact stream the old per-relation ``ModuleList`` consumed,
so refactored layers reproduce the seed-identical parameters.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import (
    Tensor,
    gather_rows,
    is_grad_enabled,
    relation_gather_matmul,
    relation_matmul,
)


class RelationLinear(Module):
    """``y_r = x @ W_r (+ b_r)`` for all relations ``r`` at once."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        num_relations: int,
        bias: bool = False,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature dimensions must be positive")
        if num_relations < 1:
            raise ValueError("num_relations must be >= 1")
        self.in_features = in_features
        self.out_features = out_features
        self.num_relations = num_relations
        self.weight = Parameter(
            np.stack(
                [
                    init.xavier_uniform((in_features, out_features), rng)
                    for _ in range(num_relations)
                ]
            )
        )
        self.bias = Parameter(init.zeros((num_relations, out_features))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        """Stacked transform of every node: ``[R, N, out_features]``."""
        return relation_matmul(x, self.weight, self.bias)

    def edge_messages(self, x: Tensor, fusion, endpoint: str = "src", path: str | None = None) -> Tensor:
        """Per-edge transformed rows in ``fusion``'s partitioned edge order.

        Row ``e`` of the result is ``x[idx_e] @ W_{r_e}`` where ``idx_e``
        is edge ``e``'s ``endpoint`` node (``"src"`` for messages,
        ``"dst"`` for target-conditioned terms like FiLM modulators) and
        ``r_e`` its relation. ``path`` pins the kernel (``"block"`` /
        ``"stacked"``) — by default the cheaper one is chosen by
        comparing rows transformed: ``E`` for the block path versus
        ``R * N`` for the stacked one.
        """
        if fusion.num_relations != self.num_relations:
            raise ValueError(
                f"layer built for {self.num_relations} relations, "
                f"fusion partition covers {fusion.num_relations}"
            )
        index = fusion.index(endpoint)
        if path is None:
            path = "block" if len(index) < self.num_relations * len(x) else "stacked"
        # Both gather plans only accelerate the input-gradient scatter,
        # so they are built only when that backward can run (an argsort
        # saved per forward under no_grad).
        if path == "block":
            needs_plan = is_grad_enabled() and x.requires_grad
            return relation_gather_matmul(
                x,
                self.weight,
                index,
                fusion.starts,
                fusion.ends,
                plan=fusion.plan(endpoint) if needs_plan else None,
                bias=self.bias,
            )
        if path != "stacked":
            raise ValueError(f"unknown edge_messages path '{path}'")
        stacked = self.forward(x)
        flat = stacked.reshape(self.num_relations * len(x), self.out_features)
        return gather_rows(
            flat,
            fusion.flat_index(endpoint),
            plan=fusion.flat_plan(endpoint) if flat.requires_grad else None,
        )

    def __repr__(self) -> str:
        return (
            f"RelationLinear(relations={self.num_relations}, "
            f"in={self.in_features}, out={self.out_features}, "
            f"bias={self.bias is not None})"
        )
