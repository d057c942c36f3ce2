"""Core :class:`Tensor` type with reverse-mode automatic differentiation.

The design follows the classic tape-free "micrograd" pattern generalised to
numpy arrays: every operation returns a new :class:`Tensor` holding a closure
that, given the output gradient, accumulates gradients into its parents.
``Tensor.backward`` topologically sorts the graph and runs the closures.

Only floating-point data lives in tensors. Integer index arrays (edge
indices, batch vectors, ...) are passed around as plain ``numpy`` arrays.

Precision policy
----------------
Tensors built from python scalars, lists or integer data adopt the
process-wide *default dtype* (``float32`` out of the box — halving the
memory traffic of the dense hot path); numpy arrays with an explicit
floating dtype are taken as-is. :func:`set_default_dtype` flips the
policy for every thread and :func:`default_dtype` scopes it to a block
in the calling thread::

    with default_dtype(np.float64):
        ...  # parameters, features and context tables built here are f64

Parameter initialisation (:mod:`repro.nn.init`), dataset feature
encoding (:class:`repro.graph.data.GraphData`), trainer targets and the
per-batch topology tables of
:class:`~repro.gnn.message_passing.GraphContext` all follow the policy,
so the stack computes end-to-end in the default dtype. Gradient checking
stays in float64 by constructing explicit ``float64`` arrays (what the
test suite does) or by wrapping the check in ``default_dtype(np.float64)``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.tensor import profiling as _profiling
from repro.utils.scoped import ScopedValue


#: Autograd switch. ``no_grad`` overrides it per thread: serving workers
#: predicting concurrently must not restore each other's state.
_GRAD_ENABLED = ScopedValue("grad_enabled", True)

#: Floating dtype adopted by data without an explicit float dtype.
_DEFAULT_DTYPE = ScopedValue("default_dtype", np.dtype(np.float32))


def get_default_dtype() -> np.dtype:
    """The floating dtype adopted by data without an explicit float dtype."""
    return _DEFAULT_DTYPE.get()


def _floating(dtype) -> np.dtype:
    dtype = np.dtype(dtype)
    if not np.issubdtype(dtype, np.floating):
        raise ValueError(f"default dtype must be floating, got {dtype}")
    return dtype


def set_default_dtype(dtype) -> None:
    """Set the process-wide default floating dtype (float32 or float64)."""
    _DEFAULT_DTYPE.set(_floating(dtype))


def default_dtype(dtype):
    """Scope a different precision policy to a block in this thread."""
    return _DEFAULT_DTYPE.scoped(_floating(dtype))


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED.get()


def no_grad():
    """Context manager disabling graph construction in this thread."""
    return _GRAD_ENABLED.scoped(False)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so its shape matches ``shape`` after broadcasting.

    Numpy broadcasting may have expanded the operand either by prepending
    dimensions or by stretching size-1 dimensions; the adjoint of a
    broadcast is a sum over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] > 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def stable_sigmoid(values: np.ndarray) -> np.ndarray:
    """Numerically stable logistic on a raw array.

    Shared by :meth:`Tensor.sigmoid` and the fused linear+activation
    kernel so the two paths cannot drift numerically.
    """
    clipped = np.clip(values, -60, 60)
    return np.where(
        values >= 0,
        1.0 / (1.0 + np.exp(-clipped)),
        np.exp(clipped) / (1.0 + np.exp(clipped)),
    )


def _as_array(value) -> np.ndarray:
    if isinstance(value, Tensor):
        raise TypeError("expected raw data, got a Tensor")
    if isinstance(value, np.ndarray):
        # Explicit numpy floating dtypes are respected (float64 gradchecks
        # coexist with a float32 default policy); everything else adopts it.
        if np.issubdtype(value.dtype, np.floating):
            return value
        return value.astype(_DEFAULT_DTYPE.get())
    arr = np.asarray(value)
    dtype = _DEFAULT_DTYPE.get()
    if arr.dtype == dtype:
        return arr
    return arr.astype(dtype)


class Tensor:
    """A numpy array with an autograd tape.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts; non-floating input is converted
        to ``float64``.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_parents",
        "_backward",
        "_grad_owned",
        "name",
    )

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED.get()
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._grad_owned = False
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_note})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(
                f"item() requires a tensor with exactly one element, "
                f"got shape {self.shape}"
            )
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the autograd graph."""
        return Tensor(self.data, requires_grad=False, name=self.name)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Build an op output, recording the tape only when needed."""
        profile = _profiling._PROFILE.get()
        if profile is not None:
            profile.count(backward.__qualname__)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out._grad_owned = False
        out.name = ""
        needs = _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)
        out.requires_grad = needs
        if needs:
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        # Single-consumer fast path: adopt the incoming buffer outright —
        # no zeros_like + add. The buffer may alias another node's gradient
        # (ops like ``add`` pass their output grad through untouched), so an
        # adopted gradient is never mutated in place; a second accumulation
        # allocates a fresh owned buffer, and only that one is added into.
        # Adopted buffers are frozen so external in-place writes to
        # ``.grad`` (the old ``p.grad *= s`` idiom) fail loudly instead of
        # corrupting a sibling's gradient; consumers must replace rather
        # than mutate (see ``clip_grad_norm``).
        if self.grad is None:
            if isinstance(grad, np.ndarray):
                grad.flags.writeable = False
            self.grad = grad  # numpy scalars are immutable — safe as-is
            self._grad_owned = False
        elif self._grad_owned:
            self.grad += grad
        else:
            self.grad = self.grad + grad
            self._grad_owned = True

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to ones, which is the usual convention for scalar
        losses (and a deliberate choice for non-scalars).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            stack.extend(
                (parent, False)
                for parent in node._parents
                if id(parent) not in visited and parent.requires_grad
            )
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            # Copy the caller's seed: leaves may adopt the accumulation
            # buffer outright, and it must not alias caller-owned memory.
            grad = np.array(grad, dtype=self.data.dtype)
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # The buffer escaped into the closures (pass-through ops
                # adopt it); it is no longer exclusively ours to mutate.
                # A later backward() without zero_grad falls back to the
                # out-of-place accumulation.
                node._grad_owned = False

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad, other.shape))

        return Tensor._make(data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                g = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                g = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._make(data, (self, other), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            # Read-only broadcast view: safe to adopt, _accumulate never
            # mutates an unowned buffer in place.
            self._accumulate(np.broadcast_to(g, self.shape))

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for ax in axes:
                count *= self.shape[ax]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def _extremum(self, axis, keepdims: bool, mode: str) -> "Tensor":
        reducer = np.max if mode == "max" else np.min
        data = reducer(self.data, axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            full = reducer(self.data, axis=axis, keepdims=True)
            mask = (self.data == full).astype(self.data.dtype)
            # Split gradient equally among ties so the adjoint stays a
            # partition of unity even on plateaus.
            ties = mask.sum(axis=axis, keepdims=True)
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(mask / ties * g)

        return Tensor._make(data, (self,), backward)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return self._extremum(axis, keepdims, "max")

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return self._extremum(axis, keepdims, "min")

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def squeeze(self, axis: int) -> "Tensor":
        shape = list(self.shape)
        if shape[axis] != 1:
            raise ValueError(f"cannot squeeze axis {axis} of shape {self.shape}")
        shape.pop(axis)
        return self.reshape(tuple(shape))

    def unsqueeze(self, axis: int) -> "Tensor":
        shape = list(self.shape)
        if axis < 0:
            axis += self.ndim + 1
        shape.insert(axis, 1)
        return self.reshape(tuple(shape))

    # ------------------------------------------------------------------
    # Indexing (basic slices plus integer-array row selection)
    # ------------------------------------------------------------------
    def __getitem__(self, key) -> "Tensor":
        if isinstance(key, Tensor):
            raise TypeError("index with numpy arrays, not Tensors")
        data = self.data[key]

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            out = np.zeros_like(self.data)
            np.add.at(out, key, grad)
            self._accumulate(out)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise transcendental methods (thin wrappers used by ops.py)
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * 0.5 / data)

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - data**2))

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = stable_sigmoid(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data * (1.0 - data))

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (self.data > 0))

        return Tensor._make(data, (self,), backward)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        return Tensor._make(data, (self,), backward)

    def clip(self, low: float | None, high: float | None) -> "Tensor":
        data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            mask = np.ones_like(self.data)
            if low is not None:
                mask = mask * (self.data >= low)
            if high is not None:
                mask = mask * (self.data <= high)
            self._accumulate(grad * mask)

        return Tensor._make(data, (self,), backward)


def parameters_of(tensors: Iterable[Tensor]) -> list[Tensor]:
    """Filter an iterable down to tensors that require gradients."""
    return [t for t in tensors if isinstance(t, Tensor) and t.requires_grad]
