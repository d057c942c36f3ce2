"""Approach 2: knowledge-rich regression with HLS auxiliary features."""

from __future__ import annotations

import numpy as np

from repro.graph.data import GraphData
from repro.graph.partition import PartitionedGraph
from repro.models.base import PredictorConfig, apply_feature_view
from repro.models.off_the_shelf import OffTheShelfPredictor
from repro.training.checkpoint import CheckpointConfig
from repro.training.trainer import TrainResult


class KnowledgeRichPredictor:
    """Latest, most accurate prediction: per-node resource values from
    intermediate HLS results ride along as node features (both during
    training and inference — which is why this approach must wait for the
    HLS tool to run)."""

    feature_view = "rich"
    requires_hls = True

    def __init__(self, config: PredictorConfig | None = None):
        self.config = config or PredictorConfig()
        self._inner = OffTheShelfPredictor(self.config)

    def fit(
        self,
        train_graphs: list[GraphData],
        val_graphs: list[GraphData],
        *,
        checkpoint: CheckpointConfig | None = None,
        resume: bool = False,
    ) -> TrainResult:
        return self._inner.fit(
            apply_feature_view(train_graphs, "rich"),
            apply_feature_view(val_graphs, "rich"),
            checkpoint=checkpoint,
            resume=resume,
        )

    def predict(
        self, graphs: list[GraphData], batch_size: int = 64
    ) -> np.ndarray:
        return self._inner.predict(
            apply_feature_view(graphs, "rich"), batch_size=batch_size
        )

    def predict_streaming(
        self,
        graph: GraphData,
        *,
        max_block_nodes: int = 4096,
        seed: int = 0,
        partition: PartitionedGraph | None = None,
    ) -> np.ndarray:
        """Bounded-memory single-graph prediction (rich feature view).

        The view only appends feature columns, so a ``partition`` of the
        base graph's topology serves the rich graph unchanged.
        """
        (rich,) = apply_feature_view([graph], "rich")
        return self._inner.predict_streaming(
            rich, max_block_nodes=max_block_nodes, seed=seed, partition=partition
        )

    def evaluate(self, graphs: list[GraphData]) -> np.ndarray:
        return self._inner.evaluate(apply_feature_view(graphs, "rich"))

    # -- artifact export ------------------------------------------------
    # The inner model consumes *rich* features, so the recorded input
    # width already includes the three appended resource columns.
    @property
    def input_dims(self) -> dict[str, int]:
        return self._inner.input_dims

    def build(self, input_dims: dict[str, int]) -> "KnowledgeRichPredictor":
        self._inner.build(input_dims)
        return self

    def state_dict(self) -> dict[str, np.ndarray]:
        return self._inner.state_dict()

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self._inner.load_state_dict(state)
