"""A small reverse-mode automatic-differentiation engine on numpy.

This package substitutes for PyTorch in the original paper's stack. It
provides a :class:`Tensor` wrapping a ``numpy.ndarray`` together with a
dynamically built computation graph, a functional namespace mirroring the
subset of ``torch`` that the GNN zoo needs, the scatter/gather
primitives that message passing is built from, and fused dense kernels
(:mod:`repro.tensor.fused`) for the matmul-bound relational hot path.

Precision policy
----------------
The engine computes in **float32 by default**: tensors built from python
scalars, lists or integer data, every parameter initialiser, dataset
feature encodings and the per-batch topology tables all adopt
:func:`get_default_dtype` (float32 unless changed). Numpy arrays carrying
an explicit floating dtype are respected, so float64 gradchecks keep
working untouched. To opt a whole code path back into float64::

    from repro.tensor import default_dtype
    with default_dtype(np.float64):
        model = GraphRegressor(...)   # float64 parameters
        ...                           # contexts/targets built here are f64

or call :func:`set_default_dtype` once at process start. Mixed-precision
interactions follow numpy promotion: float64 inputs flowing into a
float32 model compute in float64 from that op onward, so pin the policy
*before* building data and parameters.

Scoped switches
---------------
``default_dtype``, ``no_grad``, ``use_backend`` and ``use_profiling``
apply to the calling thread only (:mod:`repro.utils.scoped`), so
serving workers cannot flip or restore each other's state.
``set_default_dtype``, ``set_backend`` and the ``REPRO_SCATTER_BACKEND``
environment variable set the process-wide value that new threads start
from.
"""

from repro.tensor.tensor import (
    Tensor,
    default_dtype,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
)
from repro.tensor.ops import (
    abs_,
    concat,
    dropout,
    elu,
    exp,
    leaky_relu,
    log,
    log_softmax,
    logsumexp,
    maximum,
    minimum,
    relu,
    sigmoid,
    softmax,
    sqrt,
    stack,
    tanh,
    where,
)
from repro.tensor.scatter import (
    SegmentPlan,
    gather_rows,
    scatter_max,
    scatter_mean,
    scatter_min,
    scatter_softmax,
    scatter_std,
    scatter_sum,
    segment_counts,
)
from repro.tensor.backends import (
    ScatterBackend,
    active_backend,
    available_backends,
    build_plan,
    get_backend,
    register_backend,
    scatter_workers,
    set_backend,
    use_backend,
)
from repro.tensor.fused import (
    addmm,
    linear_act,
    relation_gather_matmul,
    relation_matmul,
)
from repro.tensor.profiling import (
    OpProfile,
    profiling_enabled,
    use_profiling,
)
from repro.tensor.gradcheck import gradcheck

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "default_dtype",
    "get_default_dtype",
    "set_default_dtype",
    "addmm",
    "linear_act",
    "relation_matmul",
    "relation_gather_matmul",
    "abs_",
    "concat",
    "dropout",
    "elu",
    "exp",
    "leaky_relu",
    "log",
    "log_softmax",
    "logsumexp",
    "maximum",
    "minimum",
    "relu",
    "sigmoid",
    "softmax",
    "sqrt",
    "stack",
    "tanh",
    "where",
    "SegmentPlan",
    "ScatterBackend",
    "active_backend",
    "available_backends",
    "build_plan",
    "get_backend",
    "register_backend",
    "scatter_workers",
    "set_backend",
    "use_backend",
    "gather_rows",
    "scatter_max",
    "scatter_mean",
    "scatter_min",
    "scatter_softmax",
    "scatter_std",
    "scatter_sum",
    "segment_counts",
    "OpProfile",
    "profiling_enabled",
    "use_profiling",
    "gradcheck",
]
