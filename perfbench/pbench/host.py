"""Host pinning and the fingerprint every result carries.

:func:`pin_environment` must run before numpy is imported: BLAS pools
read their thread counts once, at load time.
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

#: BLAS / OpenMP pools pinned to one thread: the benchmark's own threads
#: (load generator, server workers, pipeline processes) are the
#: parallelism under test, and nested pools would oversubscribe them.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def pin_environment() -> None:
    """Pin BLAS to one thread and cap ``REPRO_SCATTER_WORKERS`` at nproc."""
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    cap = nproc()
    raw = os.environ.get("REPRO_SCATTER_WORKERS")
    try:
        workers = min(int(raw), cap) if raw else cap
    except ValueError:
        workers = cap
    os.environ["REPRO_SCATTER_WORKERS"] = str(max(1, workers))


def _git_commit(root: Path) -> str | None:
    """HEAD commit read straight from ``.git`` (no git binary needed)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            packed = (root / ".git" / "packed-refs").read_text().splitlines()
            for line in packed:
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def source_digest(src: Path) -> str:
    """sha256 over the program's python sources — identifies the code
    measured even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(root: Path) -> dict:
    import numpy
    import scipy

    from repro.tensor import get_default_dtype
    from repro.tensor.backends import active_backend, scatter_workers

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "scatter_backend": active_backend().name,
        "scatter_workers": scatter_workers(),
        "default_dtype": str(get_default_dtype()),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(root),
        "source_digest": source_digest(root / "src"),
        "machine": platform.machine(),
    }
