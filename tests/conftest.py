"""Shared fixtures: tiny cached datasets and sample programs.

Dataset construction (compile + HLS) is deterministic, so session-scoped
fixtures keep the suite fast while every test sees identical data.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.dataset import build_synthetic_dataset
from repro.frontend import (
    ArrayRef,
    Assign,
    BinOp,
    Decl,
    For,
    Function,
    If,
    IntConst,
    Program,
    Return,
    Var,
)
from repro.typesys import CArray, CInt

INT16, INT32 = CInt(16), CInt(32)


#: Dtype policies the CI matrix may request; anything else is a typo we
#: want to stop the run over, not silently fall through to float32.
_VALID_DTYPES = ("float32", "float64")


def pytest_configure(config):
    """Honour ``REPRO_DTYPE`` and ``REPRO_SCATTER_BACKEND`` (CI matrix).

    The suite normally runs under the production float32 policy and the
    default ``csr`` scatter backend; the CI matrix re-runs it with
    ``REPRO_DTYPE=float64`` (the opt-out path of
    :func:`repro.tensor.set_default_dtype`, process-wide so server
    worker threads see it too) and with ``REPRO_SCATTER_BACKEND=bucketed``
    so both registered backends (csr, bucketed) keep the whole suite
    green. Unknown values for either variable abort collection with the
    valid set — a misspelled matrix entry must not silently test the
    defaults twice.
    """
    dtype = os.environ.get("REPRO_DTYPE")
    if dtype:
        if dtype not in _VALID_DTYPES:
            raise pytest.UsageError(
                f"REPRO_DTYPE={dtype!r} is not a supported dtype policy; "
                f"valid values: {', '.join(_VALID_DTYPES)}"
            )
        from repro.tensor import set_default_dtype

        set_default_dtype(np.dtype(dtype))

    backend = os.environ.get("REPRO_SCATTER_BACKEND")
    if backend:
        # repro.tensor.backends applies the variable at import, so an
        # unknown name raises as soon as the package loads; surface it
        # as a clean usage error either way.
        try:
            from repro.tensor import get_backend

            get_backend(backend)
        except ValueError as exc:
            raise pytest.UsageError(str(exc)) from None


@pytest.fixture(scope="session")
def dfg_samples():
    return build_synthetic_dataset("dfg", 24, seed=11)


@pytest.fixture(scope="session")
def cdfg_samples():
    return build_synthetic_dataset("cdfg", 16, seed=12)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def make_straightline_program(name: str = "straight") -> Program:
    """A small fixed DFG program used across compiler tests."""
    body = [
        Decl("t0", INT32, BinOp("*", Var("a"), Var("b"))),
        Decl("t1", INT32, BinOp("+", Var("t0"), Var("c"))),
        Decl("t2", INT32, BinOp("^", Var("t1"), IntConst(255))),
        Return(BinOp("-", Var("t2"), Var("a"))),
    ]
    fn = Function(name, [("a", INT32), ("b", INT32), ("c", INT32)], INT32, body)
    return Program(name, [fn])


def make_loop_program(name: str = "loopy") -> Program:
    """A fixed CDFG program: loop + branch + array traffic."""
    body = [
        Decl("acc", INT32, IntConst(0)),
        For("i", 0, 8, 1, body=[
            Decl("v", INT32, ArrayRef("x", Var("i"))),
            If(BinOp(">", Var("v"), IntConst(0)),
               then_body=[Assign(Var("acc"), BinOp("+", Var("acc"), Var("v")))],
               else_body=[Assign(Var("acc"), BinOp("-", Var("acc"), IntConst(1)))]),
        ]),
        Return(Var("acc")),
    ]
    fn = Function(name, [("x", CArray(INT16, 8))], INT32, body)
    return Program(name, [fn])


@pytest.fixture()
def straightline_program() -> Program:
    return make_straightline_program()


@pytest.fixture()
def loop_program() -> Program:
    return make_loop_program()
