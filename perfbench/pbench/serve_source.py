"""serve_source — open-loop C-source traffic against a PredictionServer.

One submitting thread sends unique mini-C kernels (ldrgen DFG and CDFG
programs printed as source text, about one in twenty a ~1-2k-node CDFG)
on a fixed schedule to a registry-loaded server holding the paper's
hierarchical RGCN-I predictor. The traffic walks a fixed ladder of
rates; each request's latency runs from its *due* time to its
resolution, so generator lag and queueing both count. Two closed-loop
phases follow on the same server and give the end-to-end pair: one
request in flight (a single user's latency on an idle server) and 32 in
flight (capacity). The ladder's latencies and ``serve.max_rps`` go to
the report.
"""

from __future__ import annotations

import math
import time
from collections import Counter, deque

import numpy as np

from pbench.common import SetupClock, max_rel_diff, peak_rss_mb, share
from pbench.stats import StepResult, backlog_series, max_rate, median, tail_percentile

#: A request whose send is this late is not sent: it already missed any
#: deadline, and sending it would stretch the step without bound.
MAX_SEND_LAG_S = 1.0


def _generator_configs(spec: dict):
    from repro.ldrgen import GeneratorConfig

    large = spec["large"]
    return {
        "dfg": GeneratorConfig.dfg(),
        "cdfg": GeneratorConfig.cdfg(),
        "large": GeneratorConfig.cdfg_scaled(
            large["target_nodes"], max_loops=large["loops"][1]
        ),
    }


def _top_level_loops(program) -> int:
    from repro.frontend.ast_ import For

    return sum(isinstance(stmt, For) for stmt in program.top.body)


def make_requests(seed: int, count: int, spec: dict) -> list[tuple[str, str, str]]:
    """``count`` unique ``(kind, mix, source)`` requests.

    Fixed positions: one large request in every ``1 / share``, the rest
    alternating DFG / CDFG, so every rate step carries the same share of
    heavy work. Small kernels come from ``seed``. The large kernels are a
    fixed corpus (ldrgen seed ``large.corpus_seed``) consumed in order:
    the 1-2k-node CDFGs dominate the latency tail, and a tail estimated
    from ~10 of them per step would otherwise swing with their sizes.
    """
    from repro.frontend import to_c_source
    from repro.ldrgen.generator import generate_sample

    configs = _generator_configs(spec)
    large = spec["large"]
    # cdfg_scaled draws its loop count uniformly; ~85 graph nodes per
    # top-level loop, so this window keeps large requests at ~1-2k nodes.
    min_loops = large["loops"][0]
    every = round(1.0 / large["share"])
    seen: set[str] = set()
    out = []
    cursor = {"small": 0, "large": 0}
    while len(out) < count:
        position = len(out)
        if position % every == every - 1:
            mix, stream, base = "large", "large", large["corpus_seed"]
        else:
            mix, stream, base = ("dfg" if position % 2 == 0 else "cdfg"), "small", seed
        while True:
            program = generate_sample(configs[mix], base, cursor[stream])
            cursor[stream] += 1
            if mix != "large" or _top_level_loops(program) >= min_loops:
                break
        source = to_c_source(program)
        if source not in seen:
            seen.add(source)
            out.append(("dfg" if mix == "dfg" else "cdfg", mix, source))
    return out


def train_and_publish(workdir, spec: dict):
    """Train the hierarchical RGCN-I predictor and publish it to a registry."""
    from repro.dataset import build_synthetic_dataset
    from repro.models import HierarchicalPredictor, PredictorConfig
    from repro.serve import ModelRegistry
    from repro.training import TrainConfig

    model = spec["model"]
    samples = build_synthetic_dataset("dfg", model["train_graphs"], seed=0)
    samples += build_synthetic_dataset("cdfg", model["train_graphs"], seed=0)
    config = PredictorConfig(
        model_name="rgcn",
        hidden_dim=model["hidden_dim"],
        num_layers=model["num_layers"],
        train=TrainConfig(epochs=model["epochs"], batch_size=16, verbose=False),
    )
    predictor = HierarchicalPredictor(config)
    split = len(samples) - len(samples) // 8
    predictor.fit(samples[:split], samples[split:])
    registry = ModelRegistry(workdir)
    registry.register("rgcn-i", predictor)
    return registry


def open_server(registry, spec: dict, nproc: int):
    from repro.serve import PredictionServer, ServerConfig

    server_cfg = spec["server"]
    config = ServerConfig(
        # One core stays with the submitting thread (which also encodes).
        workers=max(1, nproc - 1),
        queue_depth=server_cfg["queue_depth"],
        max_batch_size=server_cfg["max_batch_size"],
        max_wait_ms=server_cfg["max_wait_ms"],
        default_deadline_ms=server_cfg["deadline_ms"],
    )
    return PredictionServer(registry, "rgcn-i", config=config)


def _setup_server(ctx, nproc, index):
    registry = train_and_publish(ctx.workdir / f"setup{index}", ctx.spec)
    server = open_server(registry, ctx.spec, nproc)
    return registry, server


class _Sent:
    __slots__ = ("index", "due", "sent", "admitted", "ticket", "error")

    def __init__(self, index, due):
        self.index = index
        self.due = due
        self.sent = self.admitted = math.nan
        self.ticket = None
        self.error = None


def run_step(server, requests, rate: float, admit=None) -> list[_Sent]:
    """Send ``requests`` at ``rate`` req/s on a fixed schedule; wait for all.

    ``admit(server, index, source)`` replaces ``server.submit(source=...)``
    (the traced pass splits admission by layer).
    """
    from repro.serve import Overloaded

    if admit is None:
        def admit(server, index, source):
            return server.submit(source=source)

    sent: list[_Sent] = []
    start = time.perf_counter() + 0.005
    for index, (_kind, _mix, source) in enumerate(requests):
        record = _Sent(index, start + index / rate)
        sent.append(record)
        now = time.perf_counter()
        if now < record.due:
            time.sleep(record.due - now)
        record.sent = time.perf_counter()
        if record.sent - record.due > MAX_SEND_LAG_S:
            record.error = "send_lag"
            record.admitted = record.sent
            continue
        try:
            record.ticket = admit(server, index, source)
        except Overloaded:
            record.error = "shed"
        record.admitted = time.perf_counter()
    for record in sent:
        if record.ticket is not None:
            record.ticket.outcome(timeout=60.0)
    return sent


def summarize_step(rate: float, sent: list[_Sent]) -> tuple[StepResult, dict]:
    """Latency from due time (failures as inf), backlog and failure counts."""
    latencies, resolved = [], []
    counts = {"ok": 0, "shed": 0, "send_lag": 0, "deadline": 0, "failed": 0,
              "degraded": 0, "closed": 0}
    for record in sent:
        if record.ticket is None:
            counts[record.error] += 1
            latencies.append(math.inf)
            resolved.append(record.admitted)
            continue
        outcome = record.ticket.outcome()
        done = record.admitted + outcome.latency_s
        resolved.append(done)
        counts[outcome.status] += 1
        latencies.append((done - record.due) * 1000.0 if outcome.status == "ok" else math.inf)
    backlog = backlog_series([r.due for r in sent], resolved)
    step = StepResult(rate, latencies, backlog)
    return step, counts


def run_closed(server, requests, window: int, budget_s: float) -> dict:
    """Closed loop: keep ``window`` requests in flight until ``budget_s``
    has passed or the requests run out, then drain.

    ``window`` 1 is a single user on an idle server: each request's
    latency (submit to resolution) is pure service time, with no queueing
    and no overlap between the submitting thread's encoding and the
    worker's model pass. A wide window saturates the server: answered
    requests per second over the phase is the serving capacity, encoding
    in submit included. (An open-loop step far above capacity cannot
    measure that: its generator falls behind and skips requests, and the
    answered count depends on where the skips land.)
    """
    from repro.serve import Overloaded

    inflight: deque = deque()
    latencies_ms: list[float] = []
    counts: Counter = Counter()

    def settle():
        sent, admitted, ticket = inflight.popleft()
        outcome = ticket.outcome(timeout=60.0)
        counts[outcome.status] += 1
        if outcome.status == "ok":
            latencies_ms.append((admitted + outcome.latency_s - sent) * 1000.0)

    start = time.perf_counter()
    for _kind, _mix, source in requests:
        if time.perf_counter() - start >= budget_s:
            break
        if len(inflight) >= window:
            settle()
        sent = time.perf_counter()
        try:
            ticket = server.submit(source=source)
        except Overloaded:
            counts["shed"] += 1
            continue
        inflight.append((sent, time.perf_counter(), ticket))
    while inflight:
        settle()
    return {
        "answered_per_s": counts["ok"] / (time.perf_counter() - start),
        "p50_ms": median(latencies_ms) if latencies_ms else math.nan,
        "outcomes": dict(counts),
    }


def _latency_metrics(result, label: str, step: StepResult, slo_ms: float) -> dict:
    finite = [v for v in step.latencies_ms if math.isfinite(v)]
    # A failed request misses any latency limit: it enters the tail as
    # ten times the SLO, so a failing step shows in the percentile.
    penalised = [v if math.isfinite(v) else 10.0 * slo_ms for v in step.latencies_ms]
    tail = tail_percentile(penalised, 99.0)
    result.metric(f"serve.{label}.p50_ms", median(penalised), "ms")
    result.metric(f"serve.{label}.p99_ms", tail.value, "ms")
    return {
        "samples": step.attempted,
        "ok": len(finite),
        "p50_ms": median(penalised),
        "tail": tail.as_dict(),
    }


def check_answers(ctx, registry, requests, sent, result, limit: int = 32) -> None:
    """``ok`` answers equal the predictor's own predict on our encoding."""
    from pbench.layers import encode_source

    predictor = registry.load("rgcn-i")
    ok = [r for r in sent if r.ticket is not None and r.ticket.outcome().status == "ok"]
    rng = np.random.default_rng([ctx.seed, 2])
    picked = [ok[i] for i in sorted(rng.choice(len(ok), min(limit, len(ok)), replace=False))]
    worst = 0.0
    for record in picked:
        graph = encode_source(requests[record.index][2], kind=requests[record.index][0])
        direct = predictor.predict([graph])[0]
        served = record.ticket.outcome().values
        worst = max(worst, max_rel_diff(served, direct))
    result.check(
        "serve.answers_match_predict",
        bool(picked) and worst <= 1e-4,
        {"compared": len(picked), "max_rel_diff": worst},
    )


def run(ctx, result, nproc: int) -> None:
    spec = ctx.spec
    clock = SetupClock(ctx)
    ladder = spec["ladder"]
    slo_ms = spec["slo"]["p99_ms"]
    max_fail = spec["slo"]["max_fail_share"]
    step_s = {step["name"]: ctx.seconds * step["share"] for step in ladder}
    if ctx.trace:
        # Traced run: the `high` step untraced, then again traced.
        ladder = [step for step in ladder if step["name"] == "high"]
        step_s = {"high": ctx.seconds / 2.0}
        passes = [("high", False), ("high", True)]
    else:
        passes = [(step["name"], False) for step in ladder]
    rates = {step["name"]: step["rate"] for step in ladder}
    counts = {name: max(1, round(rates[name] * step_s[name])) for name, _ in passes}
    # Closed-loop phases after the ladder (untraced runs only), each with
    # enough requests for its time share at up to max_rate; a phase ends
    # early if the server answers faster than that.
    closed = [] if ctx.trace else spec["closed"]
    closed_n = {p["name"]: round(p["max_rate"] * p["share"] * ctx.seconds) for p in closed}
    total = sum(counts[name] for name, _ in passes) + sum(closed_n.values())
    requests = clock.once(make_requests, ctx.seed, total, spec)
    registry, server = clock.repeated(
        lambda index: _setup_server(ctx, nproc, index),
        cleanup=lambda pair: pair[1].close(),
    )
    result.details["setup"] = clock.as_dict()
    result.metric("setup_s", clock.setup_s, "s")

    steps: dict[str, StepResult] = {}
    step_counts: dict[str, dict] = {}
    sent_by_key = {}
    all_sent = []
    cursor = 0
    cpu: dict[bool, float] = {}
    graphs: list = []
    try:
        for name, traced in passes:
            chunk = requests[cursor : cursor + counts[name]]
            cursor += counts[name]
            admit = None
            if traced:
                from pbench.layers import input_properties, traced_admit

                admit = traced_admit(ctx, chunk, graphs)
            before_cpu = time.process_time()
            sent = run_step(server, chunk, rates[name], admit)
            cpu[traced] = (time.process_time() - before_cpu) / len(chunk)
            step, tally = summarize_step(rates[name], sent)
            key = f"{name}.traced" if traced else name
            steps[key] = step
            step_counts[key] = tally
            sent_by_key[key] = sent
            all_sent.append((chunk, sent))
            if traced:
                _layer_metrics(ctx, result, server, step, sent, step_s[name])
                result.details["input_graphs"] = input_properties(graphs)
        for phase in closed:
            chunk = requests[cursor : cursor + closed_n[phase["name"]]]
            cursor += len(chunk)
            result.details[phase["name"]] = run_closed(
                server, chunk, phase["window"], phase["share"] * ctx.seconds
            )
    finally:
        server.close()

    # Operation accounting: the low/high steps and the closed-loop phases
    # are the judged traffic; the ladder steps above high exist to locate
    # max_rps and report their failures separately.
    judged = [k for k in steps if k.split(".")[0] in ("low", "high")]
    for key in judged:
        result.count(steps[key].attempted, steps[key].failed)
    for phase in closed:
        tally = result.details[phase["name"]]["outcomes"]
        result.count(sum(tally.values()), sum(tally.values()) - tally.get("ok", 0))
    result.details["steps"] = {
        key: {
            "rate": steps[key].rate,
            "attempted": steps[key].attempted,
            "failed": steps[key].failed,
            "outcomes": step_counts[key],
            "tail": steps[key].tail().as_dict() if steps[key].attempted else None,
            "backlog_max": max(steps[key].backlog, default=0),
            # Where the median request's time went: admission (generator
            # lag + encoding in submit) and resolution inside the server.
            "lag_p50_ms": median([(r.sent - r.due) * 1000.0 for r in sent_by_key[key]]),
            "admit_p50_ms": median(
                [(r.admitted - r.due) * 1000.0 for r in sent_by_key[key]]
            ),
            "resolve_p50_ms": median(
                [r.ticket.outcome().latency_s * 1000.0 for r in sent_by_key[key] if r.ticket]
            ),
            "meets_slo": steps[key].meets(slo_ms, max_fail),
        }
        for key in steps
    }
    result.details["above_saturation_failed"] = sum(
        steps[k].failed for k in steps if k not in judged
    )

    if ctx.trace:
        result.metric("trace.overhead_share", cpu[True] / cpu[False] - 1.0, "ratio")
    else:
        for label in ("low", "high"):
            result.details[f"serve.{label}"] = _latency_metrics(
                result, label, steps[label], slo_ms
            )
        best = max_rate(list(steps.values()), slo_ms, max_fail)
        below = best is None
        if below:
            # Nothing on the ladder met the SLO; report half the lowest
            # rate rather than 0 so the metric stays comparable.
            best = min(s.rate for s in steps.values()) / 2.0
        result.details["max_rps_below_ladder"] = below
        result.metric("serve.max_rps", best, "req/s")
        # The common end-to-end pair: answered requests per second at
        # saturation, and one user's median latency on an idle server.
        result.metric("throughput_per_s", result.details["capacity"]["answered_per_s"], "1/s")
        result.metric("latency_p50_ms", result.details["single"]["p50_ms"], "ms")
        result.metric("peak_rss_mb", peak_rss_mb(), "MB")

    chunk, sent = all_sent[0]
    check_answers(ctx, registry, chunk, sent, result)
    mixes = [mix for _, mix, _ in requests]
    result.details["input"] = {
        "requests": len(requests),
        "distinct_sources": len({s for _, _, s in requests}),
        "mix": {m: mixes.count(m) / len(mixes) for m in sorted(set(mixes))},
    }


def _layer_metrics(ctx, result, server, step: StepResult, sent, wall_s: float) -> None:
    """Per-layer numbers of the traced high step (spans + server counters)."""
    from pbench.layers import span_ms

    spans = ctx.spans
    result.metric("frontend.parse_ms", span_ms(spans, "frontend.parse"), "ms")
    result.metric("ir.lower_extract_ms", span_ms(spans, "ir.lower_extract"), "ms")
    result.metric("dataset.encode_ms", span_ms(spans, "dataset.encode"), "ms")
    admit = [(r.admitted - r.due) * 1000.0 for r in sent if r.ticket is not None]
    resolve = [r.ticket.outcome().latency_s * 1000.0 for r in sent if r.ticket is not None]
    lag = [max(0.0, (r.sent - r.due) * 1000.0) for r in sent]
    result.metric("serve.admit_ms.p50", median(admit), "ms")
    result.metric("serve.admit_ms.p99", tail_percentile(admit).value, "ms")
    result.metric("serve.resolve_ms.p50", median(resolve), "ms")
    result.metric("serve.resolve_ms.p99", tail_percentile(resolve).value, "ms")
    result.metric("loadgen.lag_p99_ms", tail_percentile(lag).value, "ms")
    stats = server.stats
    result.metric("serve.batch_size.mean", share(stats.model_graphs, stats.batches), "graphs")
    batch_timer = server.metrics.timer("serve.batch_latency_s")
    result.metric("serve.model_busy_share", batch_timer.total / wall_s, "ratio")
    result.metric("serve.backlog.max", max(step.backlog, default=0), "count")
    result.metric("serve.cache_hit_share", share(stats.cache_hits, stats.requests), "ratio")
    result.metric("serve.coalesced_share", share(stats.coalesced, stats.requests), "ratio")
    model_s = batch_timer.total
    result.metric("models.predict_s", model_s, "s")
    result.metric("models.graphs_per_s", share(stats.model_graphs, model_s), "graphs/s")
