"""Benchmark: partitioned layer-wise inference vs full-graph execution.

One ~110k-node synthetic CDFG (the ``ldrgen`` scale knob
:meth:`GeneratorConfig.cdfg_scaled` pins the statement budget so a
single program carries the whole node count) is pushed through the same
trained-shape GCN twice:

- **full** — the ordinary ``Batch`` forward over the whole graph;
- **partitioned** — :func:`partition_graph` blocks + halo, streamed
  layer-wise through :func:`predict_regressor_streaming`, peak live
  state bounded by the block size instead of the graph size.

Peak memory for both paths is measured with the shared
:func:`repro.obs.track_peak_memory` tracemalloc tracker (Python-level
allocations: stable across runners, unlike RSS); throughput is timed
separately so the tracer's overhead never contaminates nodes/sec.
Results land in ``BENCH_partition.json`` and the memory bound is gated
by ``check_regression.py``.

A second case measures **partition reuse**: directive rewrites of the
same graph (identical topology, new feature columns) streamed through a
:class:`~repro.serve.service.PredictionService` that keeps the partition
of earlier requests, against a fresh partition per request. Its
``reuse_speedup`` (streamed nodes/s, reused over fresh) is merged into
the same artifact and gated too.

Acceptance (asserted here): >=100k nodes, partitioned peak <= 0.5x the
full-graph peak, outputs matching within rtol 1e-4; reused-partition
outputs bitwise-equal to fresh-partition ones and ``reuse_speedup > 1``.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from benchmarks.conftest import write_bench_json
from repro.dataset.builder import lower_and_extract
from repro.dataset.features import NUM_EDGE_TYPES_WITH_BACK, FeatureEncoder
from repro.gnn.network import GraphRegressor
from repro.gnn.streaming import predict_regressor_streaming
from repro.graph.partition import partition_graph
from repro.ldrgen import GeneratorConfig, generate_program
from repro.models import OffTheShelfPredictor, PredictorConfig
from repro.obs import track_peak_memory
from repro.serve.service import PredictionService, ServiceConfig
from repro.training.trainer import predict_regressor

#: Node target for the synthetic CDFG (overshoots the 100k acceptance
#: floor — generated size is stochastic around the statement budget).
TARGET_NODES = 110_000
#: Streaming block size: ~4% of the graph, the memory-bound knob.
MAX_BLOCK_NODES = 4_096
HIDDEN_DIM = 32
NUM_LAYERS = 3
#: Directive rewrites timed per arm of the reuse case.
REUSE_REQUESTS = 3


@pytest.fixture(scope="module")
def large_cdfg():
    """(encoded graph, directive column slice) — built once per module."""
    config = GeneratorConfig.cdfg_scaled(TARGET_NODES)
    program = generate_program(config, seed=7)
    _, ir_graph, _ = lower_and_extract(program, "cdfg")
    # Encoding without the HLS flow: the benchmark needs the graph's
    # shape and features, not resource labels.
    encoder = FeatureEncoder()
    return encoder.encode(ir_graph), encoder.directive_slice


def _model(graph):
    return GraphRegressor(
        "gcn",
        in_dim=graph.feature_dim,
        hidden_dim=HIDDEN_DIM,
        num_layers=NUM_LAYERS,
        num_edge_types=NUM_EDGE_TYPES_WITH_BACK,
        pooling="mean",
        rng=np.random.default_rng(0),
    )


@pytest.mark.benchmark(group="partition", min_rounds=1, max_time=1)
def test_partitioned_inference_memory_bound(benchmark, scale, large_cdfg):
    graph, _ = large_cdfg
    assert graph.num_nodes >= 100_000, graph.num_nodes

    model = _model(graph)
    # context_cache_size=1 mirrors the on-the-fly partitions the predict
    # helpers build: single-pass streaming cannot reuse cached contexts.
    partition = partition_graph(graph, MAX_BLOCK_NODES, seed=0, context_cache_size=1)

    def run_full():
        return predict_regressor(model, [graph], batch_size=1)[0]

    def run_streamed():
        return predict_regressor_streaming(model, graph, partition=partition)

    def measure():
        # Warm once (lazy plan/operator caches), then trace the peaks of
        # steady-state runs so one-time setup cannot mask the bound.
        full_out = run_full()
        streamed_out = run_streamed()
        with track_peak_memory() as full_mem:
            run_full()
        with track_peak_memory() as streamed_mem:
            run_streamed()
        # Untraced timing (tracemalloc roughly doubles allocation cost).
        timings = {}
        for name, fn in (("full", run_full), ("streamed", run_streamed)):
            start = time.perf_counter()
            fn()
            timings[name] = time.perf_counter() - start
        denom = np.maximum(np.abs(full_out), 1e-12)
        return {
            "nodes": int(graph.num_nodes),
            "edges": int(graph.num_edges),
            "feature_dim": int(graph.feature_dim),
            "hidden_dim": HIDDEN_DIM,
            "num_layers": NUM_LAYERS,
            "max_block_nodes": MAX_BLOCK_NODES,
            "num_blocks": int(partition.num_blocks),
            "edge_cut": round(float(partition.edge_cut()), 4),
            "full_peak_mb": round(full_mem.peak_mb, 2),
            "streamed_peak_mb": round(streamed_mem.peak_mb, 2),
            "mem_ratio": round(streamed_mem.peak_mb / full_mem.peak_mb, 4),
            "full_nodes_per_s": round(graph.num_nodes / timings["full"], 1),
            "streamed_nodes_per_s": round(
                graph.num_nodes / timings["streamed"], 1
            ),
            "parity_max_rel_diff": float(
                np.abs(streamed_out - full_out).max() / denom.max()
            ),
        }

    payload = benchmark.pedantic(measure, rounds=1, iterations=1)
    payload["parity_ok"] = float(payload["parity_max_rel_diff"] <= 1e-4)
    payload["scale"] = scale.name
    path = write_bench_json("partition", payload)

    print()
    print(json.dumps(payload, indent=2))
    benchmark.extra_info.update(payload)

    assert path is None or path.is_file()
    # Acceptance: bounded memory (<= 0.5x the full-graph peak) with
    # full-graph-equivalent outputs.
    assert payload["mem_ratio"] <= 0.5, payload
    assert payload["parity_ok"] == 1.0, payload


def _directive_rewrite(graph, directive: slice, seed: int):
    """Same topology, new directive columns (one DSE design point)."""
    rng = np.random.default_rng([seed, 12])
    features = graph.node_features.copy()
    columns = range(*directive.indices(graph.feature_dim))
    features[:, directive] = rng.random((graph.num_nodes, len(columns)))
    return graph.with_features(features)


@pytest.mark.benchmark(group="partition", min_rounds=1, max_time=1)
def test_partition_reuse_speedup(benchmark, large_cdfg):
    graph, directive = large_cdfg
    predictor = OffTheShelfPredictor(
        PredictorConfig(
            model_name="gcn",
            hidden_dim=HIDDEN_DIM,
            num_layers=NUM_LAYERS,
            num_edge_types=NUM_EDGE_TYPES_WITH_BACK,
            pooling="mean",
        )
    )
    predictor.model = _model(graph)
    config = ServiceConfig(
        stream_nodes=MAX_BLOCK_NODES, stream_block_nodes=MAX_BLOCK_NODES
    )
    requests = [_directive_rewrite(graph, directive, seed) for seed in range(REUSE_REQUESTS)]

    def serve(service, request):
        start = time.perf_counter()
        value = service.predict([request])[0]
        return value, time.perf_counter() - start

    def measure():
        # Reused: one service; a warm-up variant pays the partition once.
        reused_service = PredictionService(predictor, config)
        serve(reused_service, _directive_rewrite(graph, directive, REUSE_REQUESTS))
        reused = [serve(reused_service, r) for r in requests]
        # Fresh: a new service (empty partition cache) per request.
        fresh = [serve(PredictionService(predictor, config), r) for r in requests]
        for (a, _), (b, _) in zip(reused, fresh):
            assert np.array_equal(a, b), "reused partition changed a prediction"
        stats = reused_service.stats
        assert stats.stream_partition_hits == REUSE_REQUESTS, stats
        nodes = REUSE_REQUESTS * graph.num_nodes
        reused_nps = nodes / sum(t for _, t in reused)
        fresh_nps = nodes / sum(t for _, t in fresh)
        return {
            "reuse_requests": REUSE_REQUESTS,
            "reused_nodes_per_s": round(reused_nps, 1),
            "fresh_nodes_per_s": round(fresh_nps, 1),
            "reuse_speedup": round(reused_nps / fresh_nps, 3),
        }

    payload = benchmark.pedantic(measure, rounds=1, iterations=1)
    path = write_bench_json("partition", payload, merge=True)

    print()
    print(json.dumps(payload, indent=2))
    benchmark.extra_info.update(payload)

    assert path is None or path.is_file()
    assert payload["reuse_speedup"] > 1.0, payload
