"""stream_large — one >=100k-node CDFG served through block streaming.

Closed loop, one request at a time. The topology is one fixed
``GeneratorConfig.cdfg_scaled`` CDFG; each request rewrites its
directive feature columns (per-region unroll/pipeline settings drawn
from ``--seed``, the way :mod:`repro.dse` derives candidate graphs), so
results never repeat while topology is fully shared. Requests go through
a :class:`repro.serve.PredictionService` whose ``stream_nodes`` is below
the graph size, so every request is partitioned and streamed.
"""

from __future__ import annotations

import time

import numpy as np

from pbench.common import SetupClock, max_rel_diff, peak_rss_mb
from pbench.stats import median

#: Unroll factors a rewritten region may take (log2 / log2(64) encoded).
UNROLLS = (1, 2, 4, 8, 16)


def large_graph(spec: dict):
    """The fixed large CDFG, encoded without the HLS flow."""
    from repro.dataset.builder import lower_and_extract
    from repro.dataset.features import FeatureEncoder
    from repro.ldrgen import GeneratorConfig, generate_program

    program = generate_program(
        GeneratorConfig.cdfg_scaled(spec["target_nodes"]), seed=spec["program_seed"]
    )
    _, graph, _ = lower_and_extract(program, "cdfg")
    encoder = FeatureEncoder()
    return encoder.encode(graph), encoder.directive_slice


def train_predictor(spec: dict):
    from repro.dataset import build_synthetic_dataset
    from repro.models import OffTheShelfPredictor, PredictorConfig
    from repro.training import TrainConfig

    model = spec["model"]
    samples = build_synthetic_dataset("cdfg", model["train_graphs"], seed=0)
    predictor = OffTheShelfPredictor(
        PredictorConfig(
            model_name="rgcn",
            hidden_dim=model["hidden_dim"],
            num_layers=model["num_layers"],
            # Mean pooling: a sum over 100k nodes leaves the log-space
            # range the regressor was trained on.
            pooling="mean",
            train=TrainConfig(epochs=model["epochs"], batch_size=16, verbose=False),
        )
    )
    split = len(samples) - len(samples) // 8
    predictor.fit(samples[:split], samples[split:])
    return predictor


class Requests:
    """Directive rewrites of one base graph, drawn from ``seed``.

    Nodes are grouped into contiguous regions (stand-ins for loop
    bodies); request ``i`` gives every region an unroll factor and a
    pipeline bit. Topology arrays are shared by every request.
    """

    def __init__(self, base, directive_slice: slice, seed: int, regions: int):
        self.base = base
        self.slice = directive_slice
        self.rng = np.random.default_rng([seed, 4])
        self.region_of = (np.arange(base.num_nodes) * regions) // base.num_nodes
        self.regions = regions
        self.seen: set[bytes] = set()

    def next(self):
        while True:
            table = np.zeros((self.regions, 3))
            unroll = self.rng.choice(UNROLLS, size=self.regions)
            table[:, 0] = np.log2(unroll) / np.log2(64)
            table[:, 1] = self.rng.random(self.regions) < 0.3
            key = table.tobytes()
            if key not in self.seen:
                self.seen.add(key)
                break
        features = self.base.node_features.copy()
        features[:, self.slice] = table[self.region_of]
        return self.base.with_features(features)


def new_service(predictor, spec: dict):
    from repro.serve import PredictionService, ServiceConfig

    return PredictionService(
        predictor,
        ServiceConfig(
            max_batch_size=1,
            stream_nodes=spec["stream_nodes"],
            stream_block_nodes=spec["block_nodes"],
        ),
    )


def halo_share(partition, hops: int) -> float:
    """Halo rows computed per core row in one layer pass (wasted work)."""
    core = halo = 0
    for block in range(partition.num_blocks):
        local, count = partition.block_nodes(block, hops)
        core += count
        halo += len(local) - count
    return halo / core


def run(ctx, result, nproc: int) -> None:
    spec = ctx.spec
    clock = SetupClock(ctx)
    base, directive_slice = clock.once(large_graph, spec)
    predictor = clock.repeated(lambda _: train_predictor(spec))
    result.details["setup"] = clock.as_dict()
    result.metric("setup_s", clock.setup_s, "s")
    requests = Requests(base, directive_slice, ctx.seed, spec["regions"])
    service = new_service(predictor, spec)
    result.details["input"] = {
        "nodes": base.num_nodes,
        "edges": base.num_edges,
        "topology_sharing_share": 1.0,
        "result_repeat_share": 0.0,
    }

    if ctx.trace:
        _traced(ctx, result, predictor, requests, service)
        return

    rates, walls, first, failed = [], [], None, 0
    deadline = time.perf_counter() + ctx.seconds
    while True:
        graph = requests.next()
        start = time.perf_counter()
        try:
            value = service.predict([graph])[0]
        except Exception:  # noqa: BLE001 - counted as a failed request
            failed += 1
            value = None
        wall = time.perf_counter() - start
        walls.append(wall)
        if value is not None:
            rates.append(graph.num_nodes / wall)
            first = first or (graph, value)
        if time.perf_counter() + 0.5 * median(walls) > deadline:
            break
    result.count(len(walls), failed)
    result.details.update(requests=len(walls), request_s=walls, stats=service.stats.as_dict())
    if first is None:
        result.check("large.requests_succeed", False, {"failed": failed})
        return
    result.metric("large.nodes_per_s", median(rates), "nodes/s")
    result.metric("throughput_per_s", median(rates), "1/s")
    result.metric("latency_p50_ms", 1000.0 * median(walls), "ms")

    from repro.obs import MetricsRegistry, track_peak_memory

    graph = requests.next()
    with track_peak_memory(MetricsRegistry()) as peak:
        service.predict([graph])
    result.metric("large.peak_mb", peak.peak_mb, "MB")
    result.metric("peak_rss_mb", peak_rss_mb(), "MB")
    _check(result, predictor, service, *first)


def _check(result, predictor, service, graph, streamed) -> None:
    """A streamed prediction matches the full-graph forward (rtol 1e-4)."""
    full = predictor.predict([graph])[0]
    rel = max_rel_diff(streamed, full, floor=1e-12)
    ok = bool(np.isfinite(full).all() and rel <= 1e-4)
    result.check(
        "large.stream_matches_full",
        ok and service.stats.streamed > 0,
        {"max_rel_diff": rel, "streamed": service.stats.streamed},
    )


def _traced(ctx, result, predictor, requests, service) -> None:
    """Untraced requests through the service, then the same number traced
    through the two layers the streaming path is made of."""
    from repro.gnn.streaming import layer_hops, predict_regressor_streaming
    from repro.graph.partition import partition_graph

    spec = ctx.spec
    count = spec["traced_requests"]
    untraced = []
    first = None
    for _ in range(count):
        graph = requests.next()
        start = time.perf_counter()
        value = service.predict([graph])[0]
        untraced.append(time.perf_counter() - start)
        first = first or (graph, value)
    traced, partition = [], None
    spans = ctx.spans
    for index in range(count):
        graph = requests.next()
        start = time.perf_counter()
        with spans.span("large.request", request=index):
            with spans.span("graph.partition"):
                partition = partition_graph(
                    graph, spec["block_nodes"], seed=0, context_cache_size=1
                )
            with spans.span("gnn.stream"):
                predict_regressor_streaming(predictor.model, graph, partition=partition)
        traced.append(time.perf_counter() - start)
    result.metric("trace.overhead_share", median(traced) / median(untraced) - 1.0, "ratio")
    result.metric("graph.partition_s", median(spans.durations("graph.partition")), "s")
    result.metric("gnn.stream_s", median(spans.durations("gnn.stream")), "s")
    result.metric("graph.num_blocks", partition.num_blocks, "count")
    result.metric("graph.edge_cut", partition.edge_cut(), "ratio")
    hops = max(layer_hops(layer) for layer in predictor.model.encoder.layers)
    result.metric("graph.halo_share", halo_share(partition, hops), "ratio")
    result.count(2 * count)
    result.details.update(untraced_s=untraced, traced_s=traced, spans=spans.totals())
    _check(result, predictor, service, *first)
