"""The prediction service: validation, micro-batching and caching.

Requests (graphs, programs or raw C source) are accepted one at a time
but evaluated in *batches*: ``submit`` queues a request and returns a
:class:`PendingPrediction`; the queue is flushed through the model as a
:class:`~repro.graph.batch.Batch` union when it reaches
``max_batch_size``, when ``flush()`` is called, or lazily when a pending
result is read. Duplicate requests are coalesced — identical graphs in
flight share one model evaluation, and completed results live in an LRU
keyed by :meth:`GraphData.fingerprint`, so the repeated queries of a DSE
loop hit memory instead of the model.

Graphs routed to the bounded-memory streaming path reuse their
partition across requests: a DSE loop's directive variants share one
topology, so partitions live in a small LRU keyed by the topology digest
(:meth:`GraphData.fingerprint_context`, hashed once per request and
reused to finish the request fingerprint) plus node count, block size
and seed. A partition holds topology only, never a request's features.

The service is deliberately synchronous and single-threaded: batching is
a throughput device (one fused forward pass over many graphs), not a
concurrency device. Each server worker owns its own service, so none of
its caches needs a lock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.faults import fault_point
from repro.graph.data import GraphData
from repro.graph.partition import PartitionedGraph, partition_graph
from repro.graph.validation import validate_inference_graph
from repro.obs.metrics import MetricsRegistry
from repro.serve.artifacts import Predictor, load_predictor
from repro.serve.encoding import encode_program, encode_source
from repro.serve.registry import LATEST, ModelRegistry
from repro.utils.cache import LRUCache

#: Leak guard on the per-service partition cache. A partition is
#: topology only (CSR, blocks, memoised int32 block edges — ~17 MB for a
#: 117k-node CDFG); a DSE stream cycles through few topologies at a time.
STREAM_PARTITION_CACHE_SIZE = 2
#: Partition seed of the streaming route (part of the cache key).
STREAM_PARTITION_SEED = 0


@dataclass
class ServiceConfig:
    """Batching, caching and validation knobs."""

    #: Flush automatically once this many distinct graphs are pending;
    #: also the chunk size of each model call.
    max_batch_size: int = 32
    #: LRU capacity in graphs; 0 disables result caching.
    cache_size: int = 1024
    #: Structurally validate every incoming graph (service boundary).
    validate: bool = True
    #: Graphs with at least this many nodes are evaluated one at a time
    #: through the predictor's bounded-memory ``predict_streaming`` path
    #: (layer-wise over partition blocks) instead of the fused batch.
    #: 0 disables streaming. Predictors without ``predict_streaming``
    #: always take the batched path.
    stream_nodes: int = 0
    #: Partition block size for the streaming path.
    stream_block_nodes: int = 4096

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if self.stream_nodes < 0:
            raise ValueError("stream_nodes must be >= 0")
        if self.stream_block_nodes < 1:
            raise ValueError("stream_block_nodes must be >= 1")


def validate_request(predictor: Predictor, graph: GraphData) -> None:
    """Boundary check of one request graph against ``predictor``.

    Views are derived inside the predictor, so the boundary expects
    *base* features: the rich view appends 3 resource columns to the
    recorded model input, the hierarchical graph stage consumes the node
    stage's width plus 3 inferred bits. Raises ``ValueError``.
    """
    dims = predictor.input_dims
    view = predictor.feature_view
    if view == "rich":
        feature_dim = dims["graph"] - 3
    elif view == "infused":
        feature_dim = dims["node"]
    else:
        feature_dim = dims["graph"]
    validate_inference_graph(
        graph,
        feature_dim=feature_dim,
        num_edge_types=predictor.config.num_edge_types,
    )
    if predictor.requires_hls and graph.node_resources is None:
        raise ValueError(
            "this predictor consumes intermediate HLS results; encode "
            "requests with node_resources (see encode_source(..., "
            "with_hls_resources=True))"
        )


#: Counter names under the ``serve.`` metrics namespace, in report order.
_STAT_FIELDS = (
    "requests",
    "cache_hits",
    "cache_misses",
    "coalesced",
    "rejected",
    "evictions",
    "batches",
    "flushes",
    "model_graphs",
    "bulk_calls",
    "streamed",
    "stream_partition_hits",
    "stream_partition_misses",
)


class ServiceStats:
    """Thin integer view over the service's ``serve.*`` metrics counters.

    The counters themselves live in the service's
    :class:`~repro.obs.MetricsRegistry` (alongside the request/batch
    latency histograms); this view keeps the historical attribute API —
    ``service.stats.cache_hits`` etc. — working unchanged.
    :class:`repro.serve.server.ServerStats` subclasses it with the
    serving tier's additional counters via the ``fields`` class
    attribute.

    Invariant: every accepted request is counted exactly once in
    ``cache_hits + cache_misses + coalesced``; requests rejected at the
    validation boundary land in ``rejected`` instead. ``model_graphs``
    counts *distinct* graphs evaluated by the model — with coalescing and
    bulk dedupe it never exceeds ``cache_misses``.
    """

    __slots__ = ("_metrics",)

    #: Counter names this view exposes (``serve.`` prefixed in the registry).
    fields: tuple[str, ...] = _STAT_FIELDS

    def __init__(self, metrics: MetricsRegistry | None = None):
        self._metrics = metrics if metrics is not None else MetricsRegistry()

    def __getattr__(self, name: str) -> int:
        if name in type(self).fields:
            return self._metrics.counter(f"serve.{name}").value
        raise AttributeError(name)

    def to_dict(self) -> dict[str, int]:
        """The counters as a plain dict — the one serialization path
        shared by ``BENCH_serve.json``, the serve CLI and the ledger."""
        return {name: getattr(self, name) for name in type(self).fields}

    # Historical name, kept for callers predating the obs layer.
    as_dict = to_dict

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.to_dict().items())
        return f"ServiceStats({fields})"


class _Inflight:
    """One distinct pending graph shared by all its tickets."""

    __slots__ = ("fingerprint", "graph", "topology", "value", "error")

    def __init__(
        self, fingerprint: str, graph: GraphData, topology: str | None = None
    ):
        self.fingerprint = fingerprint
        self.graph = graph
        #: Topology digest, when intake already hashed it (streamed graphs).
        self.topology = topology
        self.value: np.ndarray | None = None
        #: The exception that killed this entry's flush chunk, if any —
        #: surfaced to every ticket on the entry as ``__cause__``.
        self.error: BaseException | None = None


class PendingPrediction:
    """Handle for a queued request; ``result()`` flushes if needed."""

    def __init__(self, service: "PredictionService", entry: _Inflight):
        self._service = service
        self._entry = entry

    @property
    def done(self) -> bool:
        return self._entry.value is not None or self._entry.error is not None

    def result(self) -> np.ndarray:
        """The DSP/LUT/FF/CP prediction, forcing a flush if still queued.

        A request whose flush chunk failed raises ``RuntimeError`` with
        the underlying model exception chained as ``__cause__`` — callers
        see *why* the batch died, and only that batch is poisoned.
        """
        if self._entry.value is None and self._entry.error is None:
            try:
                self._service.flush()
            except Exception as exc:  # noqa: BLE001 - recorded, re-raised below
                if self._entry.error is None:
                    self._entry.error = exc
        if self._entry.value is None:
            raise RuntimeError(
                "prediction failed for this request; resubmit"
            ) from self._entry.error
        return self._entry.value.copy()


class PredictionService:
    """Serve a fitted predictor with batching, caching and validation."""

    def __init__(
        self,
        predictor: Predictor,
        config: ServiceConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.predictor = predictor
        self.config = config or ServiceConfig()
        #: Per-service registry by default, so each service's counters
        #: start at zero; pass a shared registry to aggregate services.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.stats = ServiceStats(self.metrics)
        # Pre-resolved instruments keep the hot path to one Counter.inc.
        self._count = {
            name: self.metrics.counter(f"serve.{name}") for name in _STAT_FIELDS
        }
        self._request_latency = self.metrics.timer("serve.request_latency_s")
        self._batch_latency = self.metrics.timer("serve.batch_latency_s")
        #: Result LRU keyed by request fingerprint; ``None`` when
        #: ``cache_size`` is 0 (no caching at all).
        self._cache = (
            LRUCache(self.config.cache_size) if self.config.cache_size else None
        )
        self._pending: list[_Inflight] = []
        self._inflight: dict[str, _Inflight] = {}
        self._partitions = LRUCache(STREAM_PARTITION_CACHE_SIZE)

    # -- construction ----------------------------------------------------
    @classmethod
    def from_artifact(
        cls, path: str | Path, config: ServiceConfig | None = None
    ) -> "PredictionService":
        return cls(load_predictor(path), config=config)

    @classmethod
    def from_registry(
        cls,
        root: str | Path,
        name: str,
        version: int | str = LATEST,
        config: ServiceConfig | None = None,
    ) -> "PredictionService":
        return cls(ModelRegistry(root).load(name, version), config=config)

    # -- request intake --------------------------------------------------
    def _should_stream(self, graph: GraphData) -> bool:
        """Route large graphs through the bounded-memory streaming path."""
        return (
            self.config.stream_nodes > 0
            and graph.num_nodes >= self.config.stream_nodes
            and getattr(self.predictor, "predict_streaming", None) is not None
        )

    def submit(
        self, graph: GraphData, fingerprint: str | None = None
    ) -> PendingPrediction:
        """Queue one graph; auto-flushes when the batch fills up.

        ``fingerprint`` may be supplied when the caller already computed
        it (the bulk path hashes every graph up front for dedupe).
        """
        self._count["requests"].inc()
        if self.config.validate:
            try:
                validate_request(self.predictor, graph)
            except ValueError:
                self._count["rejected"].inc()
                raise
        topology = None
        if fingerprint is None:
            if self._should_stream(graph):
                # Hash the topology once: it finishes the request key
                # here and keys the partition cache at flush time.
                context = graph.fingerprint_context()
                topology = context.hexdigest()
                fingerprint = graph.fingerprint(context=context)
            else:
                fingerprint = graph.fingerprint()
        cached = self._cache_get(fingerprint)
        if cached is not None:
            self._count["cache_hits"].inc()
            entry = _Inflight(fingerprint, graph)
            entry.value = cached
            return PendingPrediction(self, entry)
        inflight = self._inflight.get(fingerprint)
        if inflight is not None:
            self._count["coalesced"].inc()
            return PendingPrediction(self, inflight)
        self._count["cache_misses"].inc()
        entry = _Inflight(fingerprint, graph, topology)
        self._pending.append(entry)
        self._inflight[fingerprint] = entry
        ticket = PendingPrediction(self, entry)
        if len(self._pending) >= self.config.max_batch_size:
            self.flush()
        return ticket

    def flush(self) -> int:
        """Evaluate every pending graph; returns how many were run.

        Exception-safe, chunk-isolated: a failed model call poisons only
        the entries of *that* chunk — each records the exception (their
        tickets re-raise it as ``__cause__``) — while later chunks still
        run. Every flushed entry, resolved or poisoned, leaves the
        in-flight table, so later submissions of the same graphs get
        fresh evaluations instead of coalescing onto dead entries. The
        first chunk failure is re-raised once the whole flush completes.

        Graphs at or above ``config.stream_nodes`` bypass the fused
        batch: each runs alone through the predictor's bounded-memory
        ``predict_streaming`` path (errors isolated per graph), over a
        partition reused from earlier same-topology requests when the
        partition cache holds one.
        """
        pending, self._pending = self._pending, []
        if not pending:
            return 0
        self._count["flushes"].inc()
        size = self.config.max_batch_size
        first_error: BaseException | None = None
        streamed = [e for e in pending if self._should_stream(e.graph)]
        batched = [e for e in pending if not self._should_stream(e.graph)]
        try:
            for entry in streamed:
                try:
                    fault_point("serve.flush")
                    entry_start = time.perf_counter()
                    row = self.predictor.predict_streaming(
                        entry.graph,
                        max_block_nodes=self.config.stream_block_nodes,
                        partition=self._stream_partition(entry),
                    )
                except Exception as exc:  # noqa: BLE001 - isolate the entry
                    entry.error = exc
                    if first_error is None:
                        first_error = exc
                    continue
                self._request_latency.observe(time.perf_counter() - entry_start)
                self._count["streamed"].inc()
                self._count["model_graphs"].inc()
                entry.value = np.asarray(row, dtype=np.float64)
                self._cache_put(entry.fingerprint, entry.value)
            for start in range(0, len(batched), size):
                chunk = batched[start : start + size]
                try:
                    fault_point("serve.flush")
                    # max_batch_size governs the fused model batch end to
                    # end — without it the predictor would silently
                    # re-chunk.
                    chunk_start = time.perf_counter()
                    predictions = self.predictor.predict(
                        [e.graph for e in chunk], batch_size=size
                    )
                except Exception as exc:  # noqa: BLE001 - isolate the chunk
                    for entry in chunk:
                        entry.error = exc
                    if first_error is None:
                        first_error = exc
                    continue
                chunk_s = time.perf_counter() - chunk_start
                self._batch_latency.observe(chunk_s)
                # Per-graph share of the fused batch — what p50/p99 serve
                # latency means under a micro-batching service.
                per_graph = chunk_s / len(chunk)
                for _ in chunk:
                    self._request_latency.observe(per_graph)
                self._count["batches"].inc()
                self._count["model_graphs"].inc(len(chunk))
                for entry, row in zip(chunk, predictions):
                    entry.value = np.asarray(row, dtype=np.float64)
                    self._cache_put(entry.fingerprint, entry.value)
        finally:
            for entry in pending:
                self._inflight.pop(entry.fingerprint, None)
        if first_error is not None:
            raise first_error
        return len(pending)

    def _stream_partition(self, entry: _Inflight) -> PartitionedGraph:
        """The cached partition of ``entry.graph``'s topology, built on a
        miss (features are never part of it, so it serves every
        directive variant of the design)."""
        graph = entry.graph
        topology = entry.topology or graph.fingerprint_context().hexdigest()
        block_nodes = self.config.stream_block_nodes
        key = (topology, graph.num_nodes, block_nodes, STREAM_PARTITION_SEED)
        partition = self._partitions.get(key)
        if partition is not None:
            self._count["stream_partition_hits"].inc()
            return partition
        self._count["stream_partition_misses"].inc()
        # Context cache of 1: streaming walks blocks cyclically, so a
        # larger LRU never hits; the memoised block topology is what
        # carries over between requests.
        partition = partition_graph(
            graph, block_nodes, seed=STREAM_PARTITION_SEED, context_cache_size=1
        )
        self._partitions.put(key, partition)
        return partition

    # -- convenience front-ends -------------------------------------------
    def submit_many(
        self,
        graphs: list[GraphData],
        fingerprints: list[str] | None = None,
    ) -> list[PendingPrediction]:
        """Bulk intake with up-front fingerprint dedupe.

        Duplicate graphs within one bulk call share a single ticket (and
        a single model evaluation) *regardless* of cache configuration or
        where auto-flush boundaries fall inside the call. The per-request
        :meth:`submit` path cannot guarantee that: a duplicate submitted
        after its twin was flushed re-enters through the cache, and with
        a cold/zero-size cache it would be evaluated — and counted as a
        miss — a second time. DSE-style workloads (hundreds of candidate
        graphs per flush, many revisits) hit exactly that corner, so the
        bulk path dedupes before anything is queued.

        ``fingerprints`` may carry precomputed
        :meth:`~repro.graph.data.GraphData.fingerprint` values aligned
        with ``graphs`` (the DSE scoring path hashes a shared topology
        context once per family instead of per candidate).
        """
        if fingerprints is not None and len(fingerprints) != len(graphs):
            raise ValueError(
                f"{len(fingerprints)} fingerprints for {len(graphs)} graphs"
            )
        self._count["bulk_calls"].inc()
        tickets: dict[str, PendingPrediction] = {}
        out: list[PendingPrediction] = []
        for index, graph in enumerate(graphs):
            fingerprint = (
                fingerprints[index] if fingerprints is not None else graph.fingerprint()
            )
            ticket = tickets.get(fingerprint)
            if ticket is not None:
                self._count["requests"].inc()
                self._count["coalesced"].inc()
            else:
                ticket = self.submit(graph, fingerprint=fingerprint)
                tickets[fingerprint] = ticket
            out.append(ticket)
        return out

    def predict(
        self,
        graphs: list[GraphData],
        fingerprints: list[str] | None = None,
    ) -> np.ndarray:
        """Batched prediction for a list of graphs: ``[len(graphs), 4]``."""
        if not graphs:
            return np.empty((0, 4))
        tickets = self.submit_many(graphs, fingerprints=fingerprints)
        self.flush()
        return np.stack([t.result() for t in tickets])

    def predict_one(self, graph: GraphData) -> np.ndarray:
        """Single-request path (flushes immediately)."""
        return self.submit(graph).result()

    def predict_source(self, source: str, kind: str | None = None) -> np.ndarray:
        """End-to-end: mini-C source text in, DSP/LUT/FF/CP out."""
        graph = encode_source(
            source, kind=kind, with_hls_resources=self.predictor.requires_hls
        )
        return self.predict_one(graph)

    def predict_program(self, program, kind: str | None = None) -> np.ndarray:
        """Like :meth:`predict_source` for an already-built AST."""
        graph = encode_program(
            program, kind=kind, with_hls_resources=self.predictor.requires_hls
        )
        return self.predict_one(graph)

    # -- cache -----------------------------------------------------------
    def _cache_get(self, fingerprint: str) -> np.ndarray | None:
        return self._cache.get(fingerprint) if self._cache is not None else None

    def _cache_put(self, fingerprint: str, value: np.ndarray) -> None:
        if self._cache is not None:
            evicted = self._cache.put(fingerprint, value)
            if evicted:
                self._count["evictions"].inc(evicted)

    def clear_cache(self) -> None:
        if self._cache is not None:
            self._cache.clear()
