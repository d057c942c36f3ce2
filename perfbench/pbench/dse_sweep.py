"""dse_sweep — two greedy DSE campaigns over the explorable suite kernels.

Closed loop: each campaign explores every kernel in turn with the
``python -m repro.dse explore`` defaults (greedy, budget
``min(space, 256)``, batch 64), and both campaigns share one
:class:`repro.serve.PredictionService` serving an off-the-shelf RGCN —
two designers exploring the same suites. Kernels are compiled once per
kernel per campaign (the evaluator's set-up, inside the timed region).
The second campaign's revisits hit the service cache.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from pbench.common import SetupClock, max_rel_diff, peak_rss_mb, share
from pbench.stats import median

#: The CLI's exploration defaults.
UNROLL = (1, 2, 4, 8)
BUDGET_CAP = 256
BATCH = 64


def kernels():
    """(program, space) for every suite kernel that has loops to explore."""
    from repro.dse import DesignSpace
    from repro.suites.registry import all_programs

    out = []
    for program in all_programs():
        try:
            space = DesignSpace.from_program(program, unroll_options=UNROLL)
        except ValueError:  # no loops: nothing to explore
            continue
        out.append((program, space))
    return out


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
            train=TrainConfig(epochs=model["epochs"], batch_size=16, verbose=False),
        )
    )
    split = len(samples) - len(samples) // 8
    predictor.fit(samples[:split], samples[split:])
    return predictor


def new_service(predictor):
    """The CLI's service configuration (cold cache)."""
    from repro.serve import PredictionService, ServiceConfig

    return PredictionService(
        predictor, ServiceConfig(max_batch_size=256, cache_size=8192, validate=False)
    )


def campaign_seed(seed: int, campaign: int, kernel: int) -> int:
    return int(np.random.default_rng([seed, campaign, kernel]).integers(2**31))


def run_round(seed: int, predictor, suite, spans=None):
    """Both campaigns through one fresh service.

    Returns ``(wall, service, results, kernel_walls)``: ``results[c][k]``
    is ``(evaluator, ExplorationResult)`` of campaign ``c`` on kernel
    ``k``, ``kernel_walls`` the wall time of each kernel's exploration
    (evaluator set-up included) — a designer's wait per kernel. With
    ``spans`` the round is traced: the service's and each evaluator's
    entry points are wrapped in spans.
    """
    from repro.dse import PredictorEvaluator, explore

    span = spans.span if spans is not None else lambda name: contextlib.nullcontext()
    service = new_service(predictor)
    if spans is not None:
        service.predict = spans.wrap(service.predict, "serve.service_predict")
    results: list[list] = [[], []]
    kernel_walls: list[float] = []
    start = time.perf_counter()
    for campaign in (0, 1):
        for k, (program, space) in enumerate(suite):
            kernel_start = time.perf_counter()
            with span("dse.evaluator_setup"):
                evaluator = PredictorEvaluator(service, program, space)
            if spans is not None:
                evaluator.evaluate_many = spans.wrap(
                    evaluator.evaluate_many, "dse.evaluate_many"
                )
            with span("dse.explore"):
                result = explore(
                    space,
                    evaluator,
                    strategy="greedy",
                    budget=min(space.size, BUDGET_CAP),
                    seed=campaign_seed(seed, campaign, k),
                    batch_size=BATCH,
                )
            results[campaign].append((evaluator, result))
            kernel_walls.append(time.perf_counter() - kernel_start)
    return time.perf_counter() - start, service, results, kernel_walls


def points(results) -> int:
    return sum(r.evaluated for campaign in results for _, r in campaign)


def mean_adrs(suite, results, limit: int) -> tuple[float, int]:
    """Mean ADRS of campaign 0's frontiers vs exhaustive ground truth,
    over the kernels with at most ``limit`` design points."""
    from repro.dse import GroundTruthEvaluator, adrs, explore, pareto_front

    scores = []
    for (program, space), (_, result) in zip(suite, results[0]):
        if space.size > limit:
            continue
        truth = GroundTruthEvaluator(program, space)
        reference = explore(space, truth, strategy="exhaustive", budget=space.size)
        chosen = truth.evaluate_many([e.point for e in result.frontier])
        front = pareto_front(chosen, key=lambda e: e.objectives())
        scores.append(
            adrs(reference.frontier_objectives(), [e.objectives() for e in front])
        )
    return float(np.mean(scores)), len(scores)


def check(ctx, predictor, results, result, sample: int = 16) -> None:
    """A sample of evaluations equals direct predictions; frontiers non-empty."""
    rng = np.random.default_rng([ctx.seed, 3])
    flat = [(ev, e) for campaign in results for ev, r in campaign for e in r.evaluations]
    worst = 0.0
    for i in rng.choice(len(flat), min(sample, len(flat)), replace=False):
        evaluator, evaluation = flat[i]
        direct = predictor.predict([evaluator.graph_for(evaluation.point)])[0]
        served = np.array([evaluation.dsp, evaluation.lut, evaluation.ff, evaluation.cp_ns])
        worst = max(worst, max_rel_diff(served, direct))
    bad = sum(1 for _, e in flat if not np.isfinite(e.objectives()).all())
    finite = bad == 0
    result.count(len(flat), bad)
    result.check(
        "dse.evaluations_match_predict",
        finite and worst <= 1e-4,
        {"compared": min(sample, len(flat)), "max_rel_diff": worst, "finite": finite},
    )
    empty = sum(1 for campaign in results for _, r in campaign if not r.frontier)
    result.check("dse.frontiers_non_empty", empty == 0, {"empty_frontiers": empty})


def run(ctx, result, nproc: int) -> None:
    clock = SetupClock(ctx)
    suite = clock.once(kernels)
    predictor = clock.repeated(lambda _: train_predictor(ctx.spec))
    result.details["setup"] = clock.as_dict()
    result.metric("setup_s", clock.setup_s, "s")
    result.details["kernels"] = len(suite)

    if ctx.trace:
        _traced(ctx, result, predictor, suite)
        return

    rates, walls, kernel_ms = [], [], []
    deadline = time.perf_counter() + ctx.seconds
    while True:
        # Drop the previous round first: its live objects would slow the
        # next round's garbage collection.
        service = results = None
        wall, service, results, kernel_walls = run_round(ctx.seed, predictor, suite)
        rates.append(points(results) / wall)
        walls.append(wall)
        kernel_ms.append(1000.0 * median(kernel_walls))
        # Start another round only if it is likely to end within the
        # budget: a round is ~15 s, so a half-round overrun would make the
        # run's length (and its round count) flip between budgets.
        if time.perf_counter() + median(walls) > deadline:
            break
    result.metric("dse.points_per_s", median(rates), "points/s")
    result.metric("throughput_per_s", median(rates), "1/s")
    result.metric("latency_p50_ms", median(kernel_ms), "ms")
    score, scored = mean_adrs(suite, results, ctx.spec["adrs_limit"])
    result.metric("dse.adrs", score, "ratio")
    result.metric("peak_rss_mb", peak_rss_mb(), "MB")
    stats = service.stats
    result.details.update(
        rounds=len(rates),
        round_wall_s=walls,
        kernel_p50_ms=kernel_ms,
        points_per_s=rates,
        adrs_kernels=scored,
        points_per_round=points(results),
        service=stats.as_dict(),
        input={
            "result_repeat_share": share(stats.cache_hits + stats.coalesced, stats.requests),
            # Every candidate of a kernel shares that kernel's topology.
            "topology_sharing_share": 1.0 - len(suite) / max(stats.requests, 1),
        },
    )
    check(ctx, predictor, results, result)


def _traced(ctx, result, predictor, suite) -> None:
    """One untraced round, then one traced round with every layer wrapped."""
    from repro.tensor.profiling import use_profiling

    untraced_wall, _, _, _ = run_round(ctx.seed, predictor, suite)
    spans = ctx.spans
    # The predictor is shared by every service; wrap it for this round only.
    predictor.predict = spans.wrap(predictor.predict, "models.predict")
    try:
        with use_profiling() as profile:
            wall, service, results, _ = run_round(ctx.seed, predictor, suite, spans)
    finally:
        del predictor.predict
    totals = spans.totals()
    result.metric("trace.overhead_share", wall / untraced_wall - 1.0, "ratio")
    setups = spans.durations("dse.evaluator_setup")
    result.metric("dse.evaluator_setup_ms", 1000.0 * sum(setups) / len(setups), "ms")
    result.metric("dse.evaluate_self_s", totals["dse.evaluate_many"]["self_s"], "s")
    result.metric("dse.strategy_self_s", totals["dse.explore"]["self_s"], "s")
    proposed = sum(r.proposed for c in results for _, r in c)
    result.metric("dse.distinct_share", points(results) / proposed, "ratio")
    stats = service.stats
    result.metric("serve.cache_hit_share", share(stats.cache_hits, stats.requests), "ratio")
    result.metric("serve.coalesced_share", share(stats.coalesced, stats.requests), "ratio")
    result.metric("serve.service_self_s", totals["serve.service_predict"]["self_s"], "s")
    model = totals["models.predict"]
    result.metric("models.predict_s", model["total_s"], "s")
    result.metric("models.graphs_per_s", stats.model_graphs / model["total_s"], "graphs/s")
    snapshot = profile.snapshot()
    kernel_s = sum(k["total_s"] for k in snapshot["kernels"].values())
    result.metric("tensor.ops_per_step", profile.total_ops / model["count"], "ops")
    result.metric("tensor.kernel_s", kernel_s, "s")
    result.details.update(spans=totals, service=stats.as_dict(), kernels_profiled=snapshot["kernels"])
    check(ctx, predictor, results, result)
