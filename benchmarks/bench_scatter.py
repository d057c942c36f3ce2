"""Benchmark: the sorted-segment compute engine vs the ``np.add.at`` oracles.

The baselines are the reference implementations in ``tests/oracles.py``
(unbuffered ``np.add.at`` scatter ops, the per-relation loops and the
composed GCN propagation). Three views of the same substrate:

- **op-level** — each scatter primitive (forward + backward) over a grid
  of edge counts at the ci-scale feature width: with a reused plan,
  without one (a one-off plan per call), and the oracle op;
- **model-level** — a full forward+backward training step of the
  scatter-dominated GCN stack and of the relational RGCN stack on one
  reused batch, the engine (cached :class:`GraphContext` plans + fused
  SpMM kernels) vs the same model on the oracles;
- **backend-level** — the same GCN step on a *skew-heavy* batch
  (zipf-distributed targets: a few hub nodes absorb most edges) under
  every registered scatter backend, recorded as a per-backend metric
  dimension (``backends.gcn_skew.speedup.<backend>``). The bucketed
  backend's win comes from thread-sharded SpMM (scipy releases the GIL),
  so its >=1.2x-over-csr bar is asserted only on hosts with >=4 CPUs —
  single-core runners just record the ratio and gate it loosely through
  ``check_regression.py``.

Timings land in ``BENCH_scatter.json`` (via the shared
``write_bench_json`` helper) so later changes can compare. The main
assertion: the engine must deliver at least a 3x end-to-end step
speedup over the oracles on the scatter-dominated model.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import write_bench_json
from tests import oracles
from repro.gnn.network import GraphRegressor
from repro.graph.batch import Batch
from repro.graph.data import GraphData
from repro.tensor import (
    SegmentPlan,
    Tensor,
    available_backends,
    gather_rows,
    scatter_max,
    scatter_mean,
    scatter_softmax,
    scatter_sum,
    scatter_workers,
    use_backend,
)

#: ci-scale hidden width (REPRO_SCALE=ci presets use hidden_dim=40).
WIDTH = 40
#: Edge counts spanning one small graph to a full ci training batch.
SIZES = {"small": 2_000, "medium": 12_000, "large": 50_000}

OPS = {
    "sum": scatter_sum,
    "mean": scatter_mean,
    "max": scatter_max,
    "softmax": scatter_softmax,
}


def _best_of(fn, repeats: int = 3, inner: int = 2) -> float:
    fn()  # warm caches (plans, CSR operators, numpy buffers)
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


def _op_grid(rng: np.random.Generator) -> dict:
    """{op: {size: {planned|planless|oracle: seconds}}} forward+backward timings."""
    grid: dict[str, dict] = {}
    for size_name, num_edges in SIZES.items():
        num_nodes = max(num_edges // 8, 4)
        index = rng.integers(0, num_nodes, num_edges)
        plan = SegmentPlan(index, num_nodes)
        src = Tensor(rng.normal(size=(num_edges, WIDTH)), requires_grad=True)

        for op_name, op in OPS.items():
            def step(op=op, current_plan=None):
                out = op(src, index, num_nodes, plan=current_plan)
                out.backward(np.ones_like(out.data))
                src.grad = None

            oracle = oracles.OPS[op.__name__]
            timings = grid.setdefault(op_name, {}).setdefault(size_name, {})
            timings["planned"] = _best_of(lambda: step(current_plan=plan))
            timings["planless"] = _best_of(step)
            timings["oracle"] = _best_of(lambda: step(op=oracle))

        # gather backward (the other half of message passing's cost).
        nodes = Tensor(rng.normal(size=(num_nodes, WIDTH)), requires_grad=True)

        def gather_step(current_plan=None, gather=gather_rows):
            out = gather(nodes, index, plan=current_plan)
            out.backward(np.ones_like(out.data))
            nodes.grad = None

        timings = grid.setdefault("gather", {}).setdefault(size_name, {})
        timings["planned"] = _best_of(lambda: gather_step(plan))
        timings["planless"] = _best_of(gather_step)
        timings["oracle"] = _best_of(lambda: gather_step(gather=oracles.gather_rows))
    return grid


def _synthetic_batch(rng: np.random.Generator) -> Batch:
    """A ci-scale training batch dominated by message traffic."""
    graphs = []
    for _ in range(16):
        nodes, degree = 200, 8
        edges = nodes * degree
        graphs.append(
            GraphData(
                node_features=rng.normal(size=(nodes, 16)),
                edge_index=np.stack(
                    [rng.integers(0, nodes, edges), rng.integers(0, nodes, edges)]
                ),
                edge_type=rng.integers(0, 7, edges),
                edge_back=np.zeros(edges, dtype=np.int64),
                y=np.abs(rng.normal(size=4)),
            )
        )
    return Batch(graphs)


def _model_steps(rng: np.random.Generator) -> dict:
    """Forward+backward step timings for GCN and RGCN, engine vs oracles."""
    batch = _synthetic_batch(rng)
    results: dict[str, dict] = {
        "batch": {"graphs": batch.num_graphs, "nodes": batch.num_nodes,
                  "edges": batch.num_edges, "hidden_dim": WIDTH},
    }
    for model_name in ("gcn", "rgcn"):
        model = GraphRegressor(
            model_name,
            in_dim=batch.feature_dim,
            hidden_dim=WIDTH,
            num_layers=3,
            num_edge_types=7,
            rng=np.random.default_rng(1),
        )

        def step():
            out = model(batch)
            out.sum().backward()
            for p in model.parameters():
                p.grad = None

        timings = {"planned": _best_of(step, repeats=2, inner=2)}
        with oracles.reference_engine():
            timings["oracle"] = _best_of(step, repeats=2, inner=2)
        timings["speedup"] = round(timings["oracle"] / timings["planned"], 2)
        results[model_name] = timings
    return results


def _skewed_batch(rng: np.random.Generator) -> Batch:
    """A skew-heavy batch: zipf targets concentrate edges on hub nodes."""
    graphs = []
    for _ in range(8):
        nodes, edges = 400, 4_000
        dst = np.empty(0, dtype=np.int64)
        while len(dst) < edges:
            raw = rng.zipf(1.5, size=edges * 2)
            dst = np.concatenate([dst, (raw[raw <= nodes] - 1).astype(np.int64)])
        graphs.append(
            GraphData(
                node_features=rng.normal(size=(nodes, 16)),
                edge_index=np.stack(
                    [rng.integers(0, nodes, edges), dst[:edges]]
                ),
                edge_type=rng.integers(0, 7, edges),
                edge_back=np.zeros(edges, dtype=np.int64),
                y=np.abs(rng.normal(size=4)),
            )
        )
    return Batch(graphs)


def _backend_steps(rng: np.random.Generator) -> dict:
    """GCN step timings on the skew-heavy batch, one per backend.

    Every backend's forward is also checked against the oracles before
    timing — a backend that wins by computing the wrong thing must fail
    here, not in some downstream training run.
    """
    batch = _skewed_batch(rng)
    model = GraphRegressor(
        "gcn",
        in_dim=batch.feature_dim,
        hidden_dim=WIDTH,
        num_layers=3,
        num_edge_types=7,
        rng=np.random.default_rng(2),
    )

    def step():
        out = model(batch)
        out.sum().backward()
        for p in model.parameters():
            p.grad = None
        return out.data

    results: dict[str, object] = {
        "batch": {"graphs": batch.num_graphs, "nodes": batch.num_nodes,
                  "edges": batch.num_edges, "hidden_dim": WIDTH},
        "workers": scatter_workers(),
        "cpus": os.cpu_count() or 1,
    }
    with oracles.reference_engine():
        reference = step()
        oracle = _best_of(step, repeats=2, inner=2)
    timings: dict[str, object] = {"oracle": oracle, "speedup": {}}
    for name in available_backends():
        with use_backend(name):
            np.testing.assert_allclose(step(), reference, rtol=1e-3, atol=1e-4)
            timings[name] = _best_of(step, repeats=2, inner=2)
            timings["speedup"][name] = round(oracle / timings[name], 2)
    timings["bucketed_vs_csr"] = round(timings["csr"] / timings["bucketed"], 2)
    results["gcn_skew"] = timings
    return results


@pytest.mark.benchmark(group="scatter", min_rounds=1, max_time=1)
def test_scatter_engine_speedup(benchmark, scale):
    rng = np.random.default_rng(7)

    def measure():
        return {
            "ops": _op_grid(rng),
            "models": _model_steps(rng),
            "backends": _backend_steps(rng),
        }

    payload = benchmark.pedantic(measure, rounds=1, iterations=1)
    payload["scale"] = scale.name
    path = write_bench_json("scatter", payload)

    summary = {
        f"{name}/{size}": round(t["oracle"] / t["planned"], 2)
        for name, sizes in payload["ops"].items()
        for size, t in sizes.items()
    }
    summary["gcn_step"] = payload["models"]["gcn"]["speedup"]
    summary["rgcn_step"] = payload["models"]["rgcn"]["speedup"]
    skew = payload["backends"]["gcn_skew"]
    for backend, ratio in skew["speedup"].items():
        summary[f"gcn_skew/{backend}"] = ratio
    summary["gcn_skew/bucketed_vs_csr"] = skew["bucketed_vs_csr"]
    print()
    print(json.dumps(summary, indent=2))
    benchmark.extra_info.update(summary)

    # Acceptance: >=3x end-to-end forward+backward over the oracles on the
    # scatter-dominated model step, artifact emitted with both paths'
    # timings (unless the --bench-json skip knob suppressed artifact
    # writing).
    assert path is None or path.is_file()
    scatter_dominated = payload["models"]["gcn"]
    assert scatter_dominated["speedup"] >= 3.0, payload["models"]
    # The relational stack is matmul-heavy, so the bar is lower: the
    # engine must not fall behind the per-relation loop oracle (0.8
    # leaves headroom for scheduler noise on loaded machines).
    assert payload["models"]["rgcn"]["speedup"] >= 0.8, payload["models"]
    # Per-backend bars on the skew-heavy step. The bucketed backend's
    # edge is thread-level (sharded SpMM over a GIL-free scipy kernel),
    # so >=1.2x over csr is only achievable with cores to shard across;
    # single-core hosts just must not fall off a cliff (mirrors the
    # BENCH_dataset parallel-speedup policy).
    assert skew["speedup"]["csr"] >= 2.0, skew
    if (os.cpu_count() or 1) >= 4:
        assert skew["bucketed_vs_csr"] >= 1.2, skew
    else:
        assert skew["bucketed_vs_csr"] >= 0.5, skew
