"""Approach 1: off-the-shelf GNN regression on raw IR graphs."""

from __future__ import annotations

import numpy as np

from repro.gnn.network import GraphRegressor
from repro.gnn.streaming import predict_regressor_streaming, supports_streaming
from repro.graph.data import GraphData
from repro.graph.partition import PartitionedGraph
from repro.models.base import PredictorConfig
from repro.training.checkpoint import CheckpointConfig
from repro.training.trainer import (
    TrainResult,
    evaluate_regressor,
    predict_regressor,
    train_graph_regressor,
)


class OffTheShelfPredictor:
    """Earliest prediction: IR graph in, DSP/LUT/FF/CP out.

    Any of the 14 zoo architectures can back it (``config.model_name``).
    """

    #: Feature view this approach consumes (see ``apply_feature_view``).
    feature_view = "base"
    #: Whether request-time encoding needs intermediate HLS results.
    requires_hls = False

    def __init__(self, config: PredictorConfig | None = None):
        self.config = config or PredictorConfig()
        self.model: GraphRegressor | None = None

    def _build(self, in_dim: int) -> GraphRegressor:
        cfg = self.config
        return GraphRegressor(
            cfg.model_name,
            in_dim=in_dim,
            hidden_dim=cfg.hidden_dim,
            num_layers=cfg.num_layers,
            num_edge_types=cfg.num_edge_types,
            out_dim=4,
            pooling=cfg.pooling,
            dropout=cfg.dropout,
            rng=np.random.default_rng(cfg.seed),
        )

    def fit(
        self,
        train_graphs: list[GraphData],
        val_graphs: list[GraphData],
        *,
        checkpoint: CheckpointConfig | None = None,
        resume: bool = False,
    ) -> TrainResult:
        self.model = self._build(train_graphs[0].feature_dim)
        return train_graph_regressor(
            self.model,
            train_graphs,
            val_graphs,
            self.config.train,
            checkpoint=checkpoint,
            resume=resume,
        )

    def predict(
        self, graphs: list[GraphData], batch_size: int = 64
    ) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("predictor is not fitted")
        return predict_regressor(self.model, graphs, batch_size=batch_size)

    def predict_streaming(
        self,
        graph: GraphData,
        *,
        max_block_nodes: int = 4096,
        seed: int = 0,
        partition: PartitionedGraph | None = None,
    ) -> np.ndarray:
        """``[4]`` prediction for one (large) graph in bounded memory.

        Runs the layer-wise block-streaming path
        (:func:`repro.gnn.streaming.predict_regressor_streaming`): peak
        memory scales with ``max_block_nodes``, not graph size, and the
        output matches ``predict([graph])[0]`` within float
        reassociation tolerance. ``partition`` reuses a partition built
        for a graph of the same topology (then ``max_block_nodes`` and
        ``seed`` are the partition's own). Architectures that need
        whole-graph state (U-Net, virtual-node) fall back to the
        full-graph path.
        """
        if self.model is None:
            raise RuntimeError("predictor is not fitted")
        if not supports_streaming(self.model.encoder):
            return self.predict([graph])[0]
        return predict_regressor_streaming(
            self.model,
            graph,
            partition=partition,
            max_block_nodes=max_block_nodes,
            seed=seed,
        )

    def evaluate(self, graphs: list[GraphData]) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("predictor is not fitted")
        return evaluate_regressor(self.model, graphs)

    # -- artifact export ------------------------------------------------
    @property
    def input_dims(self) -> dict[str, int]:
        """Network input widths needed to rebuild the model untrained."""
        if self.model is None:
            raise RuntimeError("predictor is not fitted")
        return {"graph": self.model.encoder.input_proj.in_features}

    def build(self, input_dims: dict[str, int]) -> "OffTheShelfPredictor":
        """Construct the (untrained) network for checkpoint loading."""
        self.model = self._build(input_dims["graph"])
        return self

    def state_dict(self) -> dict[str, np.ndarray]:
        if self.model is None:
            raise RuntimeError("predictor is not fitted")
        return self.model.state_dict()

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if self.model is None:
            raise RuntimeError("call build() before loading a state dict")
        self.model.load_state_dict(state)
