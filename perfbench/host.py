"""The shared result envelope: which host, interpreter, BLAS and commit ran.

Every benchmark result carries this record, so numbers from different
runs can be compared only when they came from comparable hosts.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

#: OpenBLAS thread-count queries: numpy wheels' ILP64 build, then plain.
_BLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_info() -> dict:
    """BLAS vendor and version from numpy's build config, plus live threads.

    numpy before 1.26 cannot report its build config as data; vendor and
    version are then ``"unknown"``.
    """
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "vendor": blas.get("name", "unknown"),
        "version": blas.get("version", "unknown"),
        "threads": blas_threads(),
    }


def blas_threads() -> int | str:
    """Threads the loaded BLAS will use, asked of the library itself.

    ``"unknown"`` when the library exposes none of the known query symbols
    (a BLAS other than OpenBLAS): the pin is then set but not verified.
    """
    core = getattr(np, "_core", None) or np.core  # numpy 2.x, then 1.x
    library = ctypes.CDLL(core._multiarray_umath.__file__)
    for symbol in _BLAS_THREAD_QUERIES:
        query = getattr(library, symbol, None)
        if query is not None:
            query.restype = ctypes.c_int
            return int(query())
    return "unknown"


def cpu_ticks() -> list[int] | None:
    """System-wide CPU tick counters (``/proc/stat``), or ``None`` off Linux."""
    try:
        with open("/proc/stat") as stat:
            return [int(field) for field in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor gave to other guests in between.

    Recorded with each result: on a shared VM it is the interference a
    result was measured under (the eighth ``/proc/stat`` field is steal).
    """
    if before is None or after is None or len(after) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total else 0.0


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git.

    A source export has no ``.git``; it reports ``"unknown"``.
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def envelope(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """The record every result line carries."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git_sha": git_sha(root),
    }
