"""Unit tests for the autograd core: arithmetic, reductions, shape ops."""

import threading

import numpy as np
import pytest

from repro.tensor import (
    OpProfile,
    Tensor,
    active_backend,
    default_dtype,
    get_default_dtype,
    gradcheck,
    is_grad_enabled,
    no_grad,
    profiling_enabled,
    use_backend,
    use_profiling,
)


class TestConstruction:
    def test_float_data_preserved(self):
        t = Tensor(np.array([1.5, 2.5]))
        assert t.dtype == np.float64
        assert t.shape == (2,)

    def test_int_input_promoted_to_float(self):
        t = Tensor([1, 2, 3])
        assert np.issubdtype(t.dtype, np.floating)

    def test_requires_grad_flag(self):
        assert Tensor([1.0], requires_grad=True).requires_grad
        assert not Tensor([1.0]).requires_grad

    def test_detach_shares_data_but_cuts_graph(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))

    def test_len_and_size(self):
        t = Tensor(np.zeros((3, 4)))
        assert len(t) == 3
        assert t.size == 12
        assert t.ndim == 2


class TestArithmetic:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_add_scalar_broadcast(self):
        out = Tensor([1.0, 2.0]) + 1.0
        np.testing.assert_allclose(out.data, [2.0, 3.0])

    def test_radd(self):
        out = 1.0 + Tensor([1.0])
        np.testing.assert_allclose(out.data, [2.0])

    def test_sub_and_rsub(self):
        np.testing.assert_allclose((Tensor([3.0]) - 1.0).data, [2.0])
        np.testing.assert_allclose((5.0 - Tensor([3.0])).data, [2.0])

    def test_mul_div(self):
        np.testing.assert_allclose((Tensor([2.0]) * 3.0).data, [6.0])
        np.testing.assert_allclose((Tensor([6.0]) / 3.0).data, [2.0])
        np.testing.assert_allclose((6.0 / Tensor([3.0])).data, [2.0])

    def test_neg_pow(self):
        np.testing.assert_allclose((-Tensor([2.0])).data, [-2.0])
        np.testing.assert_allclose((Tensor([3.0]) ** 2).data, [9.0])

    def test_tensor_exponent_rejected(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_matmul_2d(self):
        a = Tensor(np.eye(2) * 2)
        b = Tensor(np.arange(4.0).reshape(2, 2))
        np.testing.assert_allclose((a @ b).data, 2 * np.arange(4.0).reshape(2, 2))


class TestBackwardBasics:
    def test_add_grad_accumulates_to_both(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_mul_grad(self):
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([5.0], requires_grad=True)
        (a * b).backward()
        np.testing.assert_allclose(a.grad, [5.0])
        np.testing.assert_allclose(b.grad, [2.0])

    def test_reused_tensor_accumulates(self):
        a = Tensor([3.0], requires_grad=True)
        (a * a).backward()
        np.testing.assert_allclose(a.grad, [6.0])

    def test_broadcast_unreduces_grad(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(b.grad, [3.0, 3.0])

    def test_backward_without_requires_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_no_grad_disables_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad

    def test_no_grad_is_per_thread(self):
        # Two threads whose no_grad blocks overlap first-in-first-out (two
        # serving workers predicting at once) must neither see each
        # other's switch nor leave it off for the rest of the process.
        first_in, second_in, first_out = (threading.Event() for _ in range(3))
        seen = []

        def first():
            with no_grad():
                first_in.set()
                second_in.wait(5)
            first_out.set()

        def second():
            first_in.wait(5)
            with no_grad():
                second_in.set()
                first_out.wait(5)
                seen.append(is_grad_enabled())

        threads = [threading.Thread(target=run) for run in (first, second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert seen == [False]
        assert is_grad_enabled()
        assert (Tensor([1.0], requires_grad=True) * 2.0).requires_grad

    def test_diamond_graph_gradient(self):
        # f = (a + a*2) -> grad 3
        a = Tensor([1.0], requires_grad=True)
        left = a * 2.0
        (a + left).backward()
        np.testing.assert_allclose(a.grad, [3.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).backward()
        a.zero_grad()
        assert a.grad is None


def _interleave(enter, probe):
    """Two threads overlap ``enter()`` blocks first-in-first-out.

    A enters, B enters, A exits, then B calls ``probe()`` while still
    inside its block, then B exits — the order in which a
    restore-the-previous-global switch leaks A's exit into B and B's
    exit into the rest of the process. Returns what B's probe saw.
    """
    first_in, second_in, first_out = (threading.Event() for _ in range(3))
    seen = []

    def first():
        with enter():
            first_in.set()
            second_in.wait(5)
        first_out.set()

    def second():
        first_in.wait(5)
        with enter():
            second_in.set()
            first_out.wait(5)
            seen.append(probe())

    threads = [threading.Thread(target=run) for run in (first, second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 1, "thread B never probed"
    return seen[0]


class TestScopedSwitchesPerThread:
    """``use_backend``, ``default_dtype`` and ``use_profiling`` scope to
    the calling thread, like ``no_grad``."""

    def test_use_backend_is_per_thread(self):
        before = active_backend()
        other = "csr" if before.name == "bucketed" else "bucketed"
        assert _interleave(lambda: use_backend(other), lambda: active_backend().name) == other
        assert active_backend() is before

    def test_default_dtype_is_per_thread(self):
        before = get_default_dtype()
        other = np.float32 if before == np.float64 else np.float64
        assert _interleave(lambda: default_dtype(other), get_default_dtype) == other
        assert get_default_dtype() == before

    def test_use_profiling_is_per_thread(self):
        profiles = []

        def enter():
            profiles.append(OpProfile())
            return use_profiling(profiles[-1])

        def probe():
            Tensor([1.0]) + Tensor([2.0])
            return profiling_enabled()

        assert _interleave(enter, probe)
        assert not profiling_enabled()
        # Only B's profile counted B's op, and A's counted nothing.
        assert [p.op_count("Tensor.__add__") for p in profiles] == [0, 1]


class TestGradcheckElementwise:
    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: x + 2.0,
            lambda x: x * 3.0 - 1.0,
            lambda x: x / 2.0,
            lambda x: 2.0 / (x + 3.0),
            lambda x: x**3,
            lambda x: (-x) * 0.5,
            lambda x: x.exp(),
            lambda x: (x + 3.1).log(),
            lambda x: (x + 3.1).sqrt(),
            lambda x: x.tanh(),
            lambda x: x.sigmoid(),
            lambda x: x.abs(),
        ],
        ids=["add", "affine", "div", "rdiv", "pow", "neg", "exp", "log",
             "sqrt", "tanh", "sigmoid", "abs"],
    )
    def test_elementwise(self, fn, rng):
        x = Tensor(rng.normal(size=(3, 4)) + 0.1, requires_grad=True)
        assert gradcheck(lambda: fn(x), [x])

    def test_relu_gradcheck_away_from_kink(self, rng):
        x = Tensor(rng.normal(size=(4, 4)) + 5.0, requires_grad=True)
        assert gradcheck(lambda: x.relu(), [x])

    def test_clip_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(3, 3)) * 3.0, requires_grad=True)
        assert gradcheck(lambda: x.clip(-1.0, 1.0), [x], eps=1e-7)


class TestMatmulGrad:
    def test_matmul_gradcheck(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        assert gradcheck(lambda: a @ b, [a, b])

    def test_matmul_chain_gradcheck(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        assert gradcheck(lambda: ((a @ b).tanh() @ b).sum(axis=0), [a, b])


class TestReductions:
    def test_sum_all(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert float(t.sum().data) == 15.0

    def test_sum_axis_keepdims(self):
        t = Tensor(np.ones((2, 3)))
        assert t.sum(axis=0).shape == (3,)
        assert t.sum(axis=0, keepdims=True).shape == (1, 3)

    def test_mean_matches_numpy(self, rng):
        x = rng.normal(size=(4, 5))
        np.testing.assert_allclose(Tensor(x).mean(axis=1).data, x.mean(axis=1))

    def test_sum_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        assert gradcheck(lambda: x.sum(axis=1), [x])

    def test_mean_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        assert gradcheck(lambda: x.mean(axis=0), [x])

    def test_max_value_and_grad_routing(self):
        x = Tensor([[1.0, 5.0], [7.0, 2.0]], requires_grad=True)
        out = x.max(axis=1)
        np.testing.assert_allclose(out.data, [5.0, 7.0])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_max_tie_splits_gradient(self):
        x = Tensor([[2.0, 2.0]], requires_grad=True)
        x.max(axis=1).backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5]])

    def test_min_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        assert gradcheck(lambda: x.min(axis=1), [x])


class TestShapes:
    def test_reshape_roundtrip(self, rng):
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        assert x.reshape(3, 4).shape == (3, 4)
        assert gradcheck(lambda: x.reshape(3, 4) * 2.0, [x])

    def test_transpose_default_reverses(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)))
        assert x.transpose().shape == (4, 3, 2)
        assert x.T.shape == (4, 3, 2)

    def test_transpose_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        assert gradcheck(lambda: x.T @ x, [x])

    def test_squeeze_unsqueeze(self):
        x = Tensor(np.zeros((2, 1, 3)))
        assert x.squeeze(1).shape == (2, 3)
        assert x.squeeze(1).unsqueeze(0).shape == (1, 2, 3)

    def test_squeeze_wrong_axis_raises(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 3))).squeeze(0)

    def test_getitem_rows_grad(self):
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        idx = np.array([0, 0, 2])
        x[idx].sum().backward()
        np.testing.assert_allclose(x.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    def test_getitem_slice(self):
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = x[1:]
        assert out.shape == (2, 2)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [[0, 0], [1, 1], [1, 1]])

    def test_getitem_with_tensor_index_rejected(self):
        x = Tensor(np.zeros((3, 2)))
        with pytest.raises(TypeError):
            x[Tensor([0.0])]
