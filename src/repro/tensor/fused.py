"""Fused dense kernels for the matmul-bound hot path.

With message passing scatter-lean, what remains on the relational stack
is dense-transform cost: a per-relation formulation pays a separate
``Linear`` call per relation, layer and step (and a separate autograd
node for the matmul, the bias add and the activation). The kernels here
collapse those chains:

- :func:`addmm` — ``x @ W + b`` as ONE tape node with one backward
  closure (adopted by :class:`repro.nn.Linear`);
- :func:`linear_act` — linear + activation fused, saving the
  pre-activation tensor and a closure (the MLP hot path);
- :func:`relation_matmul` — a stacked ``[R, D_in, D_out]`` relation
  weight applied to all nodes in one batched matmul, ``[R, N, D_out]``
  out, single-einsum forward/backward;
- :func:`relation_gather_matmul` — the gather-by-relation "block" path:
  each relation transforms only its gathered edge rows, so the cost
  scales with the edge count instead of ``R * N``.

:class:`repro.nn.relation_linear.RelationLinear` picks between the two
relation kernels from ``(R, E, N)``. The per-relation loop they replace
lives on as the test oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.profiling import profiled
from repro.tensor.scatter import SegmentPlan, _backend_plan
from repro.tensor.tensor import Tensor, stable_sigmoid

#: The per-relation GEMM of the block path, kept as a module attribute so
#: regression tests can spy on exactly which row blocks get transformed.
_block_gemm = np.matmul


@profiled("addmm")
def addmm(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight (+ bias)`` as a single autograd node.

    ``weight`` is ``[D_in, D_out]`` (the :class:`repro.nn.Linear`
    layout); ``x`` is ``[..., D_in]``. One output buffer (the bias is
    added in place) and one backward closure replace the two-node
    matmul-then-add chain.
    """
    data = np.matmul(x.data, weight.data)
    if bias is not None:
        data += bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.matmul(grad, weight.data.T))
        if weight.requires_grad:
            a = x.data.reshape(-1, x.data.shape[-1])
            g = grad.reshape(-1, grad.shape[-1])
            weight._accumulate(a.T @ g)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.reshape(-1, grad.shape[-1]).sum(axis=0))

    return Tensor._make(data, parents, backward)


@profiled("linear_act")
def linear_act(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    activation: str = "relu",
) -> Tensor:
    """Fused ``activation(x @ weight + bias)`` — one node, one closure.

    Supports ``relu``, ``tanh`` and ``sigmoid`` (activations whose local
    derivative is recoverable from the output or a boolean mask, so the
    pre-activation buffer can be dropped after the forward).
    """
    if activation not in ("relu", "tanh", "sigmoid"):
        raise ValueError(f"unsupported fused activation '{activation}'")
    pre = np.matmul(x.data, weight.data)
    if bias is not None:
        pre += bias.data
    if activation == "relu":
        out = np.maximum(pre, 0.0)
        local = pre > 0
    elif activation == "tanh":
        out = np.tanh(pre)
        local = None
    else:
        out = stable_sigmoid(pre)
        local = None
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        if activation == "relu":
            g = grad * local
        elif activation == "tanh":
            g = grad * (1.0 - out * out)
        else:
            g = grad * out * (1.0 - out)
        if x.requires_grad:
            x._accumulate(np.matmul(g, weight.data.T))
        if weight.requires_grad:
            a = x.data.reshape(-1, x.data.shape[-1])
            weight._accumulate(a.T @ g.reshape(-1, g.shape[-1]))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.reshape(-1, g.shape[-1]).sum(axis=0))

    return Tensor._make(out, parents, backward)


@profiled("relation_matmul")
def relation_matmul(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """All-relations transform ``[N, D] x [R, D, O] -> [R, N, O]``.

    One batched matmul replaces R separate ``Linear`` calls; the backward
    is likewise two batched contractions (a tensordot for ``dx``, a
    broadcast matmul for ``dW``).
    """
    if x.data.ndim != 2 or weight.data.ndim != 3:
        raise ValueError(
            f"relation_matmul expects [N, D] x [R, D, O], "
            f"got {x.shape} x {weight.shape}"
        )
    data = np.matmul(x.data, weight.data)
    if bias is not None:
        data += bias.data[:, None, :]
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.tensordot(grad, weight.data, axes=((0, 2), (0, 2))))
        if weight.requires_grad:
            weight._accumulate(np.matmul(x.data.T, grad))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=1))

    return Tensor._make(data, parents, backward)


@profiled("relation_gather_matmul")
def relation_gather_matmul(
    x: Tensor,
    weight: Tensor,
    index: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    plan: SegmentPlan | None = None,
    bias: Tensor | None = None,
) -> Tensor:
    """Per-relation transform of *gathered* rows only (the block path).

    ``index`` is a relation-partitioned row-id vector (relation ``r``
    occupies ``index[starts[r]:ends[r]]``); the output row ``e`` is
    ``x[index[e]] @ weight[r_e] (+ bias[r_e])``. Only gathered source
    rows are transformed — a relation touching 10 edges costs a
    ``[10, D] @ [D, O]`` GEMM, never ``[N, D] @ [D, O]`` — so the total
    dense cost is ``E * D * O`` instead of ``R * N * D * O``.

    ``plan`` (a :class:`SegmentPlan` over ``index``) runs the
    scatter-add of the input gradient, exactly like ``gather_rows``;
    without one the backward builds its own from the active backend.
    """
    xd, wd = x.data, weight.data
    num_rows = len(index)
    dtype = np.result_type(xd.dtype, wd.dtype)
    out = np.empty((num_rows, wd.shape[2]), dtype=dtype)
    blocks = [
        (r, slice(int(s), int(e)))
        for r, (s, e) in enumerate(zip(starts, ends))
        if e > s
    ]
    for r, run in blocks:
        out[run] = _block_gemm(xd[index[run]], wd[r])
        if bias is not None:
            out[run] += bias.data[r]
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            gw = np.zeros_like(wd)
            for r, run in blocks:
                gw[r] = xd[index[run]].T @ grad[run]
            weight._accumulate(gw)
        if bias is not None and bias.requires_grad:
            gb = np.zeros_like(bias.data)
            for r, run in blocks:
                gb[r] = grad[run].sum(axis=0)
            bias._accumulate(gb)
        if x.requires_grad:
            gathered = np.empty((num_rows, xd.shape[1]), dtype=grad.dtype)
            for r, run in blocks:
                gathered[run] = grad[run] @ wd[r].T
            scatter = plan if plan is not None else _backend_plan(index, len(xd))
            x._accumulate(scatter.segment_sum(gathered))

    return Tensor._make(out, parents, backward)
