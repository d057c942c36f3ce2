"""Planned (SegmentPlan/CSR) kernels vs the ``np.add.at`` oracles.

Every scatter op must produce the forward values and gradients of the
unbuffered reference ops in ``tests/oracles.py`` — with a caller's plan
or without one, across unsorted, duplicated and empty segments, single-
and multi-graph batches, and under EVERY registered scatter backend
(csr, bucketed, and whatever plugs in later). Also pins the
context-reuse contract: one :class:`GraphContext` per :class:`Batch`
per ``num_edge_types``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gnn.message_passing import GraphContext
from repro.gnn.network import GraphRegressor
from repro.graph.batch import Batch
from repro.tensor import (
    SegmentPlan,
    Tensor,
    available_backends,
    build_plan,
    default_dtype,
    gather_rows,
    gradcheck,
    scatter_max,
    scatter_mean,
    scatter_min,
    scatter_softmax,
    scatter_std,
    scatter_sum,
    use_backend,
)
from tests import oracles

TYPES = 7

OPS = {
    "sum": scatter_sum,
    "mean": scatter_mean,
    "max": scatter_max,
    "min": scatter_min,
    "std": scatter_std,
    "softmax": scatter_softmax,
}

#: Op name -> its ``np.add.at`` oracle.
ORACLES = {name: oracles.OPS[op.__name__] for name, op in OPS.items()}


def _run(op, src_data, idx, dim, plan):
    src = Tensor(src_data.copy(), requires_grad=True)
    out = op(src, idx, dim, plan=plan)
    out.backward(np.ones_like(out.data))
    return out.data, src.grad


def _oracle(name, src_data, idx, dim):
    return _run(ORACLES[name], src_data, idx, dim, None)


def _gather_grad(gather, x_data, idx, plan):
    x = Tensor(x_data.copy(), requires_grad=True)
    out = gather(x, idx, plan=plan)
    out.backward(np.ones_like(out.data))
    return out.data, x.grad


@st.composite
def _segment_case(draw):
    # Empty sources, empty tail segments and repeated indices all occur.
    n_src = draw(st.integers(0, 14))
    # dim may exceed every index (empty tail segments) and indices repeat.
    dim = draw(st.integers(1, 8))
    width = draw(st.integers(1, 3))
    idx = np.array(
        draw(st.lists(st.integers(0, dim - 1), min_size=n_src, max_size=n_src))
    )
    values = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False),
            min_size=n_src * width,
            max_size=n_src * width,
        )
    )
    return np.array(values).reshape(n_src, width), idx, dim


class TestPlannedMatchesFallback:
    """Every op, with the caller's plan and without one, == the oracle."""

    @pytest.mark.parametrize("name", sorted(OPS))
    @given(case=_segment_case())
    @settings(max_examples=40, deadline=None)
    def test_forward_and_grad_parity(self, name, case):
        src, idx, dim = case
        reference_out, reference_grad = _oracle(name, src, idx, dim)
        for plan in (SegmentPlan(idx, dim), None):
            out, grad = _run(OPS[name], src, idx, dim, plan)
            np.testing.assert_allclose(out, reference_out, atol=1e-9)
            np.testing.assert_allclose(grad, reference_grad, atol=1e-9)

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_empty_source(self, name):
        src = np.empty((0, 2))
        idx = np.empty(0, dtype=np.int64)
        reference_out, _ = _oracle(name, src, idx, 3)
        for plan in (SegmentPlan(idx, 3), None):
            out, _ = _run(OPS[name], src, idx, 3, plan)
            np.testing.assert_allclose(out, reference_out)
            if name != "std":  # std of an empty segment is sqrt(eps), not 0
                np.testing.assert_allclose(out, 0.0)

    @given(case=_segment_case())
    @settings(max_examples=40, deadline=None)
    def test_gather_backward_parity(self, case):
        values, idx, dim = case
        x_data = np.resize(values, (dim, values.shape[1]))
        reference_out, reference_grad = _gather_grad(oracles.gather_rows, x_data, idx, None)
        for plan in (SegmentPlan(idx, dim), None):
            out, grad = _gather_grad(gather_rows, x_data, idx, plan)
            np.testing.assert_array_equal(out, reference_out)
            np.testing.assert_allclose(grad, reference_grad, atol=1e-9)

    @pytest.mark.parametrize("name", sorted(OPS))
    @pytest.mark.parametrize("bad", [-1, 4])
    def test_out_of_range_index_raises(self, name, bad):
        src = Tensor(np.ones((3, 2)))
        idx = np.array([0, bad, 1])
        with pytest.raises(ValueError, match="out of range"):
            OPS[name](src, idx, 4)
        with pytest.raises(ValueError, match="out of range"):
            SegmentPlan(idx, 4)


class TestPlannedGradcheck:
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_against_finite_differences(self, name, rng):
        src = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        idx = np.array([3, 0, 0, 2, 3, 3])  # unsorted, duplicated, seg 1 empty
        plan = SegmentPlan(idx, 4)
        tol = {"atol": 1e-3, "rtol": 1e-3} if name == "std" else {}
        assert gradcheck(lambda: OPS[name](src, idx, 4, plan=plan), [src], **tol)


class TestSegmentPlanContract:
    def test_counts_cached_on_plan(self):
        idx = np.array([1, 1, 3, 0])
        plan = SegmentPlan(idx, 5)
        np.testing.assert_allclose(plan.counts, [1, 2, 0, 1, 0])
        assert plan.counts is plan.counts  # one array, not recomputed

    def test_plan_validates_at_construction(self):
        with pytest.raises(ValueError):
            SegmentPlan(np.array([0, 7]), 3)

    def test_plan_shape_mismatch_rejected(self):
        plan = SegmentPlan(np.array([0, 1]), 2)
        with pytest.raises(ValueError):
            scatter_sum(Tensor(np.ones((3, 1))), None, 2, plan=plan)
        with pytest.raises(ValueError):
            scatter_sum(Tensor(np.ones((2, 1))), None, 5, plan=plan)
        with pytest.raises(ValueError):
            gather_rows(Tensor(np.ones((4, 1))), np.array([0, 1]), plan=plan)

    def test_wrong_index_for_plan_rejected(self):
        plan = SegmentPlan(np.array([2, 0, 1]), 3)
        src = Tensor(np.ones((3, 1)))
        with pytest.raises(ValueError):
            scatter_sum(src, np.array([0, 0, 2]), 3, plan=plan)
        with pytest.raises(ValueError):
            gather_rows(Tensor(np.ones((3, 1))), np.array([0, 0, 2]), plan=plan)

    def test_assume_sorted_skips_argsort(self):
        idx = np.array([0, 0, 2, 2, 2])
        sorted_plan = SegmentPlan(idx, 4, assume_sorted=True)
        assert sorted_plan.order is None
        values = np.arange(10.0).reshape(5, 2)
        np.testing.assert_allclose(
            sorted_plan.segment_sum(values),
            SegmentPlan(idx, 4).segment_sum(values),
        )


def _skewed_case(dtype, rng):
    """A hub-heavy index: one segment holds ~60% of rows, a block of
    segments is empty — the degree distribution the bucketed backend's
    nonzero-balanced sharding exists for."""
    n_src, dim = 220, 40
    idx = rng.integers(20, dim, n_src)
    idx[: int(n_src * 0.6)] = 3  # hub segment; segments [0, 20) stay empty
    rng.shuffle(idx)
    values = rng.normal(size=(n_src, 5)).astype(dtype)
    return values, idx, dim


class TestBackendParity:
    """Differential parity of every registered backend vs the oracles.

    The ``np.add.at`` oracles are the single source of truth; each
    backend's planned kernels must reproduce their forward values and
    gradients for all six ops, both float dtypes, and the degree
    distributions that stress bucketing.
    """

    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize("name", sorted(OPS))
    @given(case=_segment_case())
    @settings(max_examples=15, deadline=None)
    def test_forward_and_grad_parity(self, backend_name, name, case):
        src, idx, dim = case
        op = OPS[name]
        with use_backend(backend_name):
            plan = build_plan(idx, dim)
            planned_out, planned_grad = _run(op, src, idx, dim, plan)
        reference_out, reference_grad = _oracle(name, src, idx, dim)
        np.testing.assert_allclose(planned_out, reference_out, atol=1e-9)
        np.testing.assert_allclose(planned_grad, reference_grad, atol=1e-9)

    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_skewed_degree_graph(self, backend_name, dtype, name, rng):
        src, idx, dim = _skewed_case(dtype, rng)
        # float32 reductions reorder across kernels; the parity band is
        # the same one the planned-vs-fallback model tests rely on.
        tol = dict(atol=1e-4, rtol=1e-4) if dtype == np.float32 else dict(atol=1e-9)
        with use_backend(backend_name):
            plan = build_plan(idx, dim)
            planned_out, planned_grad = _run(OPS[name], src, idx, dim, plan)
        reference_out, reference_grad = _oracle(name, src, idx, dim)
        np.testing.assert_allclose(planned_out, reference_out, **tol)
        np.testing.assert_allclose(planned_grad, reference_grad, **tol)

    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_empty_segment_graph(self, backend_name, name):
        src = np.empty((0, 2))
        idx = np.empty(0, dtype=np.int64)
        with use_backend(backend_name):
            plan = build_plan(idx, 4)
            planned_out, _ = _run(OPS[name], src, idx, 4, plan)
        reference_out, _ = _oracle(name, src, idx, 4)
        np.testing.assert_allclose(planned_out, reference_out)

    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_against_finite_differences(self, backend_name, name, rng):
        src = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        idx = np.array([3, 0, 0, 2, 3, 3])  # unsorted, duplicated, seg 1 empty
        tol = {"atol": 1e-3, "rtol": 1e-3} if name == "std" else {}
        with use_backend(backend_name):
            plan = build_plan(idx, 4)
            assert gradcheck(lambda: OPS[name](src, idx, 4, plan=plan), [src], **tol)

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_gather_backward_parity(self, backend_name, rng):
        x_data = rng.normal(size=(5, 3))
        idx = np.array([4, 0, 0, 2, 4, 4])
        _, reference = _gather_grad(oracles.gather_rows, x_data, idx, None)
        with use_backend(backend_name):
            for plan in (build_plan(idx, 5), None):
                _, grad = _gather_grad(gather_rows, x_data, idx, plan)
                np.testing.assert_allclose(grad, reference, atol=1e-12)


@pytest.mark.parametrize("backend_name", available_backends())
@pytest.mark.parametrize("model_name", ["gcn", "rgcn"])
def test_model_parity_per_backend(dfg_samples, backend_name, model_name):
    """Whole-network forward/backward parity with the oracles under each
    backend (f64)."""
    with default_dtype(np.float64):
        batch = Batch(dfg_samples[:6])
        model = GraphRegressor(
            model_name,
            in_dim=batch.feature_dim,
            hidden_dim=8,
            num_layers=2,
            num_edge_types=TYPES,
            rng=np.random.default_rng(3),
        )
        with use_backend(backend_name):
            planned_out, planned_grads = _model_step(model, batch)
        with oracles.reference_engine():
            fallback_out, fallback_grads = _model_step(model, batch)
    np.testing.assert_allclose(planned_out, fallback_out, atol=1e-8)
    for name in planned_grads:
        planned, fallback = planned_grads[name], fallback_grads[name]
        if planned is None or fallback is None:
            assert planned is None and fallback is None, name
            continue
        np.testing.assert_allclose(planned, fallback, atol=1e-7, err_msg=name)


def _model_step(model, batch):
    out = model(batch)
    out.sum().backward()
    grads = {
        name: (None if p.grad is None else p.grad.copy())
        for name, p in model.named_parameters()
    }
    for p in model.parameters():
        p.grad = None
    return out.data.copy(), grads


@pytest.mark.parametrize("model_name", ["gcn", "rgcn", "gat", "pna"])
@pytest.mark.parametrize("batch_slice", [slice(0, 1), slice(0, 6)])
def test_model_forward_backward_parity(dfg_samples, model_name, batch_slice):
    """Whole-network parity, single- and multi-graph batches.

    Pinned to float64: the comparison probes *kernel* equivalence
    (engine vs ``np.add.at`` oracles), so float32 summation-order noise
    must not drown the 1e-7 band.
    """
    with default_dtype(np.float64):
        batch = Batch(dfg_samples[batch_slice])
        model = GraphRegressor(
            model_name,
            in_dim=batch.feature_dim,
            hidden_dim=8,
            num_layers=2,
            num_edge_types=TYPES,
            rng=np.random.default_rng(3),
        )
        planned_out, planned_grads = _model_step(model, batch)
        with oracles.reference_engine():
            fallback_out, fallback_grads = _model_step(model, batch)
    np.testing.assert_allclose(planned_out, fallback_out, atol=1e-8)
    assert planned_grads.keys() == fallback_grads.keys()
    for name in planned_grads:
        planned, fallback = planned_grads[name], fallback_grads[name]
        if planned is None or fallback is None:
            # e.g. relation weights for relations absent from the batch
            assert planned is None and fallback is None, name
            continue
        np.testing.assert_allclose(planned, fallback, atol=1e-7, err_msg=name)


class TestContextReuse:
    def test_context_identity_per_batch_and_edge_types(self, dfg_samples):
        batch = Batch(dfg_samples[:4])
        first = GraphContext.from_batch(batch, TYPES)
        assert GraphContext.from_batch(batch, TYPES) is first
        other = GraphContext.from_batch(batch, TYPES + 1)
        assert other is not first
        assert GraphContext.from_batch(Batch(dfg_samples[:4]), TYPES) is not first

    def test_one_context_per_batch_across_training(self, dfg_samples, monkeypatch):
        from repro.training.trainer import TrainConfig, train_graph_regressor

        constructed = []
        original = GraphContext.__init__

        def counting(self, *args, **kwargs):
            constructed.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(GraphContext, "__init__", counting)
        train, val = dfg_samples[:12], dfg_samples[12:16]
        model = GraphRegressor(
            "gcn",
            in_dim=train[0].feature_dim,
            hidden_dim=8,
            num_layers=2,
            num_edge_types=TYPES,
            rng=np.random.default_rng(0),
        )
        train_graph_regressor(
            model, train, val, TrainConfig(epochs=4, batch_size=8, lr=1e-3)
        )
        # 2 train batches + 1 val batch, regardless of epoch count.
        assert len(constructed) == 3

    def test_relation_edges_match_mask_reference_and_are_dst_sorted(
        self, dfg_samples
    ):
        batch = Batch(dfg_samples[:5])
        ctx = GraphContext.from_batch(batch, TYPES)
        fusion = ctx.relation_fusion(ctx.num_relations)
        for relation in range(ctx.num_relations):
            run = slice(fusion.starts[relation], fusion.ends[relation])
            src, dst = fusion.src[run], fusion.dst[run]
            assert sorted(zip(src, dst)) == sorted(
                zip(*oracles.relation_edges(ctx, relation))
            )
            assert (np.diff(dst) >= 0).all()  # dst-sorted within each relation
        assert fusion.plan("src").size == fusion.num_edges == len(ctx.sym_src)

    def test_context_validates_indices_once(self):
        with pytest.raises(ValueError):
            GraphContext(
                edge_index=np.array([[0], [5]]),
                edge_type=np.array([0]),
                num_nodes=3,
                batch=np.zeros(3, dtype=np.int64),
                num_graphs=1,
                num_edge_types=2,
            )
