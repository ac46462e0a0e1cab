"""Machine-speed calibration: a fixed kernel timed at every round boundary.

The benchmark's box is a shared two-core VM whose cores flip between a fast
and a ~1.3x slower state, for seconds or for minutes at a time (measured: a
pure ``zlib.compress`` loop reads 1.02 ms or 1.35 ms, nothing in between,
with under 1 % steal).  Identical code therefore reads 20-30 % apart from
run to run, which is more than any bound a regression gate could use.

The kernel below uses only NumPy and zlib, never the program under test, so
its time moves with the machine and not with the code.  It mixes the kinds
of work the program does (BLAS, a sort, a fancy-index gather, element-wise
math, deflate).  Dividing a round's wall time by the kernel's time taken
next to it, relative to ``REFERENCE_S``, gives the round's time at reference
machine speed; the raw wall times are kept beside it in every result file.
"""

from __future__ import annotations

import time
import zlib

import numpy as np

#: the kernel's time on this box in its fast state; it only fixes the unit,
#: so that calibrated seconds read like wall seconds on a quiet machine
REFERENCE_S = 0.0038

_rng = np.random.default_rng(0)
_TABLE = _rng.normal(size=(100, 5130))
_SQUARE = _rng.normal(size=(192, 192))
_IMAGES = _rng.normal(size=(16, 16, 18, 18))
_INDEX = _rng.integers(0, _TABLE.size, size=120_000)
_BLOB = (_rng.normal(size=5130) * 1e-3).tobytes()


def _one_pass() -> float:
    t0 = time.perf_counter()
    np.sort(_TABLE, axis=0)
    _TABLE.ravel()[_INDEX].sum()
    _SQUARE @ _SQUARE
    np.exp(_IMAGES * 0.1).sum()
    zlib.compress(_BLOB, 1)
    return time.perf_counter() - t0


def kernel_s() -> float:
    """Time the calibration kernel: the fastest of four back-to-back passes.

    Between round boundaries the program evicts the kernel's data, and the
    first passes partly measure a cold cache, which is not the machine state
    the rounds ran in.  Measured after a cache-clearing sweep, the fastest of
    two passes still read 0.86-1.12 of the reference (5th-95th percentile),
    the fastest of four 0.85-0.98.
    """
    return min(_one_pass() for _ in range(4))
