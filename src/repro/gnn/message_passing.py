"""Shared message-passing machinery.

IR graphs are directed. Convolution-style layers (GCN, SAGE, GIN, ...)
operate on the *symmetrised* edge set so information flows both along and
against data dependencies — the standard transform for program graphs.
Relational layers (RGCN, GGNN, FiLM) keep directionality by doubling the
relation vocabulary: relation ``r`` for forward edges and ``r + R`` for
their reverses.

:class:`GraphContext` precomputes and caches everything layers need once
per batch topology: symmetric edges, GCN normalisation, degrees, and —
the numpy-backend hot path — :class:`~repro.tensor.SegmentPlan` objects
turning every scatter/gather in the layer stack into planned kernels.
Plans and fused SpMM operators are built by the *active scatter
backend* (:mod:`repro.tensor.backends`: ``csr``, ``bucketed``, ...) and
memoised **per backend name**, so a session that switches backends
mid-stream — a benchmark sweep, a serving tier pinned to ``bucketed``
next to a trainer on ``csr`` — never executes one backend's kernels
through another's cached plans. GCN propagation and the relational
aggregations each run as one fused SpMM operator per direction. The
relation partition is one lexsort by (relation, dst): relation ``r``'s
edges are one dst-sorted slice of it, and :class:`RelationFusion` hands
the whole partition to the fused relation kernels at once (the
per-relation loop it replaces is the test oracle in
``tests/oracles.py``). Plans are built once per context
and shared by every layer of every forward over it; contexts are
additionally cached on the :class:`~repro.graph.batch.Batch` they came
from (per ``num_edge_types``), so a *reused* batch — the trainer's
epoch loops over pinned train/val batches — never rebuilds topology.
(Serving builds a fresh union batch per flush, so it gains the
per-forward plan sharing and fast kernels, not cross-flush reuse.)

Indices are validated once at context construction; every plan and
kernel downstream trusts them (``validate=False`` / ``validated=True``).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.graph.batch import Batch
from repro.tensor import SegmentPlan, Tensor, active_backend, get_default_dtype
from repro.utils.cache import memoize


class GraphContext:
    """Immutable per-batch topology bundle handed to every layer."""

    def __init__(
        self,
        edge_index: np.ndarray,
        edge_type: np.ndarray,
        num_nodes: int,
        batch: np.ndarray,
        num_graphs: int,
        num_edge_types: int,
        sym_degree: np.ndarray | None = None,
    ):
        self.edge_index = np.asarray(edge_index, dtype=np.int64).reshape(2, -1)
        self.edge_type = np.asarray(edge_type, dtype=np.int64).reshape(-1)
        self.num_nodes = int(num_nodes)
        self.batch = np.asarray(batch, dtype=np.int64)
        self.num_graphs = int(num_graphs)
        self.num_edge_types = int(num_edge_types)

        # One-time boundary validation; plans below skip their own scans.
        if self.edge_index.size and (
            self.edge_index.min() < 0 or self.edge_index.max() >= self.num_nodes
        ):
            raise ValueError("edge_index out of range for num_nodes")
        if len(self.batch) != self.num_nodes:
            raise ValueError(
                f"batch length {len(self.batch)} != num_nodes {self.num_nodes}"
            )
        if self.batch.size and (
            self.batch.min() < 0 or self.batch.max() >= self.num_graphs
        ):
            raise ValueError("batch vector out of range for num_graphs")

        src, dst = self.edge_index
        # Symmetrised edges for conv-style layers.
        self.sym_src = np.concatenate([src, dst])
        self.sym_dst = np.concatenate([dst, src])
        # Direction-aware relation ids for relational layers.
        self.sym_rel = np.concatenate(
            [self.edge_type, self.edge_type + self.num_edge_types]
        )
        self.num_relations = 2 * self.num_edge_types

        # In-degree over symmetric edges (plus self-loop) for GCN norm.
        # ``sym_degree`` may be overridden by the caller: a block context
        # cut out of a partitioned graph passes the *global* symmetric
        # degrees of its local nodes, so GCN normalisation (and PNA's
        # degree scalers) match full-graph execution exactly on the
        # block's core rows even though only the induced edges are here.
        if sym_degree is not None:
            deg = np.asarray(sym_degree, dtype=np.float64).reshape(-1)
            if len(deg) != self.num_nodes:
                raise ValueError(
                    f"sym_degree length {len(deg)} != num_nodes {self.num_nodes}"
                )
        else:
            deg = np.bincount(self.sym_dst, minlength=self.num_nodes).astype(np.float64)
        self.sym_degree = deg
        deg_loop = deg + 1.0
        inv_sqrt = 1.0 / np.sqrt(deg_loop)
        # GCN edge set = symmetric edges + self loops, with D^-1/2 A D^-1/2.
        loops = np.arange(self.num_nodes, dtype=np.int64)
        self.gcn_src = np.concatenate([self.sym_src, loops])
        self.gcn_dst = np.concatenate([self.sym_dst, loops])
        # Norm table in the active precision policy (computed in float64
        # for accuracy, stored once in the dtype the layers compute in so
        # float32 forwards are not silently promoted).
        self.gcn_norm = (
            np.concatenate(
                [
                    inv_sqrt[self.sym_src] * inv_sqrt[self.sym_dst],
                    inv_sqrt * inv_sqrt,
                ]
            )
            .astype(get_default_dtype())
            .reshape(-1, 1)
        )

        # Everything built lazily over this topology, keyed by what it
        # builds plus — for kernels — the active scatter backend's name,
        # so plans/operators built by one backend are never executed by
        # another (mixed-backend sessions stay isolated). The key space
        # is finite and the memo dies with the context: no bound needed.
        self._memo: dict = {}

    @classmethod
    def from_batch(cls, batch: Batch, num_edge_types: int) -> "GraphContext":
        """Context for ``batch``, memoised on the batch per ``num_edge_types``.

        Repeated forwards over the same :class:`Batch` object (every
        epoch of a training run) get the same context — and with it the
        same precomputed scatter plans.
        """
        return memoize(
            batch._memo,
            ("context", int(num_edge_types)),
            lambda: cls(
                edge_index=batch.edge_index,
                edge_type=batch.edge_type,
                num_nodes=batch.num_nodes,
                batch=batch.batch,
                num_graphs=batch.num_graphs,
                num_edge_types=num_edge_types,
            ),
        )

    # -- precomputed scatter plans (lazy, once per context per backend) --
    def _plan(
        self, key: str, index: np.ndarray, dim_size: int, assume_sorted: bool = False
    ) -> SegmentPlan:
        backend = active_backend()
        return memoize(
            self._memo,
            ("plan", backend.name, key),
            lambda: backend.build_plan(
                index, dim_size, validate=False, assume_sorted=assume_sorted
            ),
        )

    @property
    def sym_dst_plan(self) -> SegmentPlan:
        """Scatter-into-dst plan over symmetric edges (SAGE, GIN, PNA)."""
        return self._plan("sym_dst", self.sym_dst, self.num_nodes)

    @property
    def sym_src_plan(self) -> SegmentPlan:
        """Backward plan of ``gather_rows(x, sym_src)`` over symmetric edges."""
        return self._plan("sym_src", self.sym_src, self.num_nodes)

    @property
    def gcn_dst_plan(self) -> SegmentPlan:
        """Scatter plan over the GCN edge set (symmetric + self loops)."""
        return self._plan("gcn_dst", self.gcn_dst, self.num_nodes)

    @property
    def gcn_src_plan(self) -> SegmentPlan:
        """Backward plan of ``gather_rows(x, gcn_src)``."""
        return self._plan("gcn_src", self.gcn_src, self.num_nodes)

    @property
    def pool_plan(self) -> SegmentPlan:
        """Pooling plan: nodes into graphs by the ``batch`` vector."""
        return self._plan("pool", self.batch, self.num_graphs)

    @cached_property
    def mean_log_degree(self) -> float:
        """Batch-average ``log1p`` symmetric degree — PNA's scaler anchor.

        A plain cached property so a block context cut from a
        :class:`~repro.graph.partition.PartitionedGraph` can overwrite it
        with the *full-graph* average, keeping PNA's degree scalers
        identical under layer-wise streaming.
        """
        if self.num_nodes == 0:
            return 1e-6
        return max(float(np.log1p(self.sym_degree).mean()), 1e-6)

    # -- cached relation partition --------------------------------------
    @cached_property
    def _relation_partition(self):
        """Symmetric edges lexsorted by (relation, dst), with run bounds.

        One sort replaces the former O(R*E) boolean-mask sweep: relation
        ``r`` is the contiguous slice ``[starts[r], ends[r])`` of the
        sorted arrays, and within it ``dst`` is already non-decreasing.
        """
        order = np.lexsort((self.sym_dst, self.sym_rel))
        counts = np.bincount(self.sym_rel, minlength=self.num_relations)
        ends = np.cumsum(counts)
        return self.sym_src[order], self.sym_dst[order], ends - counts, ends

    def relation_fusion(self, num_relations: int) -> "RelationFusion":
        """Flattened relation partition for the fused relation kernels.

        ``num_relations`` is the *layer's* stacked-weight depth (it may
        exceed the context's direction-aware relation count, in which
        case only the context's relations carry edges). Memoised per
        depth; all layers of a network share one fusion per context.
        """
        return memoize(
            self._memo,
            ("fusion", int(num_relations)),
            lambda: RelationFusion(self, int(num_relations)),
        )

    def _gcn_operator(self):
        """The ``Â`` SpMM operator of the active backend.

        The whole GCN propagation — gather, edge-wise normalisation,
        scatter — collapses into one sparse matvec per direction (the
        adjoint serves the backward); duplicate (dst, src) pairs sum on
        conversion, matching the scatter semantics. Memoised per backend
        name so mixed-backend sessions never share kernels.
        """
        backend = active_backend()
        return memoize(
            self._memo,
            ("gcn_operator", backend.name),
            lambda: backend.sparse_operator(
                self.gcn_dst,
                self.gcn_src,
                self.gcn_norm.reshape(-1),
                (self.num_nodes, self.num_nodes),
            ),
        )

    # -- aggregation helpers ---------------------------------------------
    def propagate_gcn(self, x: Tensor) -> Tensor:
        """One application of the normalised adjacency ``D^-1/2 Ã D^-1/2``."""
        operator = self._gcn_operator()
        data = np.asarray(operator.apply(x.data))

        def backward(grad: np.ndarray) -> None:
            if x.requires_grad:
                x._accumulate(np.asarray(operator.apply_t(grad)))

        return Tensor._make(data, (x,), backward)

    def subgraph(self, keep: np.ndarray) -> "GraphContext":
        """Context induced on the kept nodes (used by Graph U-Net pooling).

        ``keep`` is an array of node ids (ascending). Edges with both
        endpoints kept survive, renumbered.
        """
        keep = np.asarray(keep, dtype=np.int64)
        remap = -np.ones(self.num_nodes, dtype=np.int64)
        remap[keep] = np.arange(len(keep))
        src, dst = self.edge_index
        mask = (remap[src] >= 0) & (remap[dst] >= 0)
        return GraphContext(
            edge_index=np.stack([remap[src[mask]], remap[dst[mask]]]),
            edge_type=self.edge_type[mask],
            num_nodes=len(keep),
            batch=self.batch[keep],
            num_graphs=self.num_graphs,
            num_edge_types=self.num_edge_types,
        )


class RelationFusion:
    """One flat view of the relation partition for fused relation kernels.

    Where a per-relation loop would hand layers R separate (src, dst)
    pairs, this hands them ONE relation-partitioned edge array: the
    context's lexsorted-by-(relation, dst) edges restricted to the
    relations the layer covers, with run bounds ``[starts[r], ends[r])``
    per relation. On top of it live, all built lazily and memoised:

    - ``plan(endpoint)`` — scatter plans over the full partitioned src /
      dst vectors (one scatter for ALL relations instead of R);
    - ``flat_index``/``flat_plan`` — gather indices into the
      ``[R * N, D]`` flattening of a stacked all-relations transform;
    - ``norm_for(dtype)`` — the per-edge ``1 / c_{v, r}`` column that
      turns the single fused ``scatter_sum`` into the per-relation
      ``scatter_mean`` RGCN and FiLM are defined with;
    - ``collect``/``weighted_scatter`` — fused SpMM operators built by
      the active scatter backend (the relational analogue of the GCN
      ``Â`` matmul), fusing gather + normalise + scatter into one sparse
      matvec per direction: ``collect`` maps a stacked ``[R, N, O]``
      transform straight to ``[N, O]`` aggregated messages,
      ``weighted_scatter`` lands per-edge messages with their
      ``1/c_{v,r}`` weights applied.
    """

    def __init__(self, ctx: GraphContext, num_relations: int):
        self.num_nodes = ctx.num_nodes
        #: Stacked-weight depth of the layers served (>= relations with edges).
        self.num_relations = num_relations
        active = min(num_relations, ctx.num_relations)
        src_sorted, dst_sorted, starts, ends = ctx._relation_partition
        stop = int(ends[active - 1]) if active else 0
        self.src = src_sorted[:stop]
        self.dst = dst_sorted[:stop]
        self.starts = starts[:active]
        self.ends = ends[:active]
        self.num_edges = stop
        # One memo like the context's: plan/operator keys carry the
        # active backend's name so each backend executes only kernels it
        # built itself.
        self._memo: dict = {}

    def prefer_block(self, num_nodes: int) -> bool:
        """Whether the gather-by-relation block kernel transforms fewer
        rows than a stacked all-nodes transform."""
        return self.num_edges < self.num_relations * num_nodes

    def index(self, endpoint: str) -> np.ndarray:
        """Partitioned node ids of edge ``endpoint`` (``"src"``/``"dst"``)."""
        if endpoint == "src":
            return self.src
        if endpoint == "dst":
            return self.dst
        raise ValueError(f"endpoint must be 'src' or 'dst', got '{endpoint}'")

    def plan(self, endpoint: str) -> SegmentPlan:
        """Scatter plan of ``index(endpoint)`` into the node table."""
        backend = active_backend()
        return memoize(
            self._memo,
            ("plan", backend.name, endpoint),
            lambda: backend.build_plan(
                self.index(endpoint), self.num_nodes, validate=False
            ),
        )

    @cached_property
    def _relation_ids(self) -> np.ndarray:
        """Per-edge relation id (the partition makes it a repeat pattern)."""
        return np.repeat(
            np.arange(len(self.starts), dtype=np.int64), self.ends - self.starts
        )

    def flat_index(self, endpoint: str) -> np.ndarray:
        """Row ids into the ``[num_relations * N, D]`` stacked transform."""
        return memoize(
            self._memo,
            ("flat_index", endpoint),
            lambda: self._relation_ids * self.num_nodes + self.index(endpoint),
        )

    def flat_plan(self, endpoint: str) -> SegmentPlan:
        """Backward plan of gathering ``flat_index`` from the stacked rows
        (built on first request — forwards without a backward skip it)."""
        backend = active_backend()
        return memoize(
            self._memo,
            ("flat_plan", backend.name, endpoint),
            lambda: backend.build_plan(
                self.flat_index(endpoint),
                self.num_relations * self.num_nodes,
                validate=False,
            ),
        )

    def norm_for(self, dtype) -> np.ndarray:
        """``[E, 1]`` column of ``1 / c_{v, r}`` (dst in-count per relation).

        Multiplying messages by it and scatter-summing over ``dst``
        reproduces the per-relation ``scatter_mean`` semantics in one
        fused scatter. Memoised per dtype so mixed float32/float64 runs
        over one context stay in their own precision.
        """
        dtype = np.dtype(dtype)

        def build() -> np.ndarray:
            # One flat bincount over the (relation, dst) key — no
            # per-relation loop.
            key = self._relation_ids * self.num_nodes + self.dst
            counts = np.bincount(key)
            inv = 1.0 / counts[key] if self.num_edges else np.empty(0)
            return inv.astype(dtype).reshape(-1, 1)

        return memoize(self._memo, ("norm", dtype), build)

    # -- fused SpMM operators (gather + normalise + scatter in one matvec) --
    def _collect_operator(self, dtype, weighted: bool):
        """``[N, R * N]`` SpMM operator summing a flattened stacked
        transform into per-node messages (optionally
        ``1/c_{v,r}``-weighted); the adjoint serves the backward."""
        backend = active_backend()

        def build():
            data = (
                self.norm_for(dtype).reshape(-1)
                if weighted
                else np.ones(self.num_edges, dtype=dtype)
            )
            return backend.sparse_operator(
                self.dst,
                self.flat_index("src"),
                data,
                (self.num_nodes, self.num_relations * self.num_nodes),
            )

        return memoize(
            self._memo, ("collect", backend.name, np.dtype(dtype), weighted), build
        )

    def _edge_operator(self, dtype):
        """``[N, E]`` SpMM operator landing per-edge messages on their dst
        rows with the ``1/c_{v,r}`` weight applied."""
        backend = active_backend()
        return memoize(
            self._memo,
            ("edge_operator", backend.name, np.dtype(dtype)),
            lambda: backend.sparse_operator(
                self.dst,
                np.arange(self.num_edges),
                self.norm_for(dtype).reshape(-1),
                (self.num_nodes, self.num_edges),
            ),
        )

    def collect(self, stacked: Tensor, weighted: bool = False) -> Tensor:
        """Aggregate a stacked ``[R, N, O]`` transform into ``[N, O]``.

        Row ``v`` of the result is ``sum_e w_e * stacked[r_e, src_e]``
        over edges into ``v`` (``w_e = 1/c_{v,r}`` when ``weighted`` —
        the per-relation mean — else 1): ONE sparse matvec per direction.
        """
        operator = self._collect_operator(stacked.dtype, weighted)
        flat = stacked.data.reshape(self.num_relations * self.num_nodes, -1)
        data = np.asarray(operator.apply(flat))

        def backward(grad: np.ndarray) -> None:
            if stacked.requires_grad:
                stacked._accumulate(
                    np.asarray(operator.apply_t(grad)).reshape(stacked.shape)
                )

        return Tensor._make(data, (stacked,), backward)

    def weighted_scatter(self, messages: Tensor) -> Tensor:
        """Land per-edge ``messages`` on dst rows, ``1/c_{v,r}``-weighted.

        The fused equivalent of ``messages * norm`` + ``scatter_sum`` —
        one sparse matvec per direction.
        """
        operator = self._edge_operator(messages.dtype)
        data = np.asarray(operator.apply(messages.data))

        def backward(grad: np.ndarray) -> None:
            if messages.requires_grad:
                messages._accumulate(np.asarray(operator.apply_t(grad)))

        return Tensor._make(data, (messages,), backward)
