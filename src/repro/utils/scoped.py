"""Engine settings with a process-wide value and per-thread overrides.

The tensor engine has a few switches that code scopes to a block: the
scatter backend (``use_backend``), the default dtype
(``default_dtype``), op profiling (``use_profiling``) and autograd
(``no_grad``). Serving runs models on worker threads, so a block in
one thread must neither leak into another thread nor restore another
thread's value on exit. A :class:`ScopedValue` keeps its overrides in a
:class:`contextvars.ContextVar`: each thread (and each asyncio task)
sees only the overrides its own blocks made, and new threads start
from the process-wide value.
"""

from __future__ import annotations

import contextlib
import contextvars
from collections.abc import Iterator
from typing import Generic, TypeVar

T = TypeVar("T")

_UNSET = object()


class ScopedValue(Generic[T]):
    """A process-wide value that a ``with`` block can override locally."""

    __slots__ = ("_process", "_override")

    def __init__(self, name: str, value: T):
        self._process = value
        self._override = contextvars.ContextVar(name, default=_UNSET)

    def get(self) -> T:
        """The innermost override of the current context, else the process value."""
        value = self._override.get()
        return self._process if value is _UNSET else value

    def set(self, value: T) -> None:
        """Change the process-wide value; live overrides still win."""
        self._process = value

    @contextlib.contextmanager
    def scoped(self, value: T) -> Iterator[T]:
        """Override the value in the current context for the block."""
        token = self._override.set(value)
        try:
            yield value
        finally:
            self._override.reset(token)
