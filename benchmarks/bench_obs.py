"""Benchmark: tensor-engine profiling overhead.

Measures one GCN training step three ways — baseline (profiling never
touched), after a ``use_profiling()`` session has ended (the disabled
path must cost one context-variable lookup per op), and with profiling enabled
(op counts + kernel timers collecting). The acceptance bar is the obs
PR's: the disabled toggle stays within 5% of baseline step cost.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from benchmarks.conftest import write_bench_json
from repro.dataset import build_synthetic_dataset
from repro.gnn import GraphRegressor
from repro.graph import Batch
from repro.obs import best_of
from repro.tensor import Tensor, use_profiling

TYPES = 8
#: Same gating idea as bench_dataset: loaded single-core hosts record the
#: ratio without failing on scheduler noise.
MAX_DISABLED_OVERHEAD = 1.05


@pytest.fixture(scope="module")
def gcn_step(scale):
    samples = build_synthetic_dataset("cdfg", max(16, scale.num_cdfg // 4), seed=9)
    batch = Batch(samples[:16])
    model = GraphRegressor(
        "gcn",
        in_dim=batch.feature_dim,
        hidden_dim=48,
        num_layers=3,
        num_edge_types=TYPES,
        rng=np.random.default_rng(0),
    )
    target = Tensor(np.log1p(batch.y))

    def step():
        model.zero_grad()
        out = model(batch)
        loss = ((out - target) ** 2).mean()
        loss.backward()

    step()  # warm caches (graph contexts, scatter plans)
    return step


@pytest.mark.benchmark(group="obs", min_rounds=1, max_time=1)
def test_profiling_overhead(benchmark, gcn_step):
    def measure():
        baseline_s = best_of(gcn_step, repeats=5)
        with use_profiling() as prof:
            enabled_s = best_of(gcn_step, repeats=5)
        disabled_s = best_of(gcn_step, repeats=5)
        return baseline_s, disabled_s, enabled_s, prof

    baseline_s, disabled_s, enabled_s, prof = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    snap = prof.snapshot()
    summary = {
        "baseline_ms": round(1000 * baseline_s, 3),
        "disabled_ms": round(1000 * disabled_s, 3),
        "enabled_ms": round(1000 * enabled_s, 3),
        "disabled_overhead": round(disabled_s / baseline_s, 3),
        "enabled_overhead": round(enabled_s / baseline_s, 3),
        "ops_per_step": prof.total_ops // 5,
        "kernels_timed": len(snap["kernels"]),
        "cpus": os.cpu_count() or 1,
    }
    path = write_bench_json("obs", summary)
    print()
    print(json.dumps(summary, indent=2))
    if path:
        print(f"wrote {path}")
    benchmark.extra_info.update(summary)

    # Enabled profiling actually collected: tape ops and kernel timings.
    assert prof.total_ops > 0
    assert snap["kernels"], "no kernel timings recorded under use_profiling"
    if summary["cpus"] >= 4:
        assert summary["disabled_overhead"] < MAX_DISABLED_OVERHEAD, summary
