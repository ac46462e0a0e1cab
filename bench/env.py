"""Machine fingerprint and the check that thread pinning took effect."""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import subprocess
import sys

from bench import PIN_VARS, ROOT

_GET_THREADS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_GET_CONFIG = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def openblas_info() -> tuple[int, str] | None:
    """``(threads, config string)`` of the OpenBLAS that NumPy loaded.

    Reads the library path from ``/proc/self/maps`` and asks the library
    itself, so the answer is the *effective* thread count, not the
    environment's wish.  ``None`` when NumPy is not backed by OpenBLAS.
    """
    import numpy  # noqa: F401  (loads the BLAS we are about to look for)

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        threads = next((getattr(lib, n) for n in _GET_THREADS if hasattr(lib, n)), None)
        config = next((getattr(lib, n) for n in _GET_CONFIG if hasattr(lib, n)), None)
        if threads is None:
            continue
        threads.restype = ctypes.c_int
        text = ""
        if config is not None:
            config.restype = ctypes.c_char_p
            text = (config() or b"").decode(errors="replace")
        return int(threads()), text
    return None


def assert_pinned() -> None:
    """Fail loudly when NumPy's BLAS would use more than one thread."""
    info = openblas_info()
    if info is not None and info[0] != 1:
        raise RuntimeError(
            f"OpenBLAS runs {info[0]} threads; the benchmark's fixed condition is 1 "
            "(was NumPy imported before `bench`?)"
        )


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """HEAD of the checkout, or None (the driver's checkout is not a git repo)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def fingerprint(seed: int) -> dict:
    import numpy

    info = openblas_info()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "openblas": info[1] if info else None,
        "openblas_threads": info[0] if info else None,
        "env": {v: os.environ.get(v) for v in PIN_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def peak_rss_mb() -> tuple[float, float]:
    """``(this process, largest reaped child)`` peak resident set, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, children / 1024.0
