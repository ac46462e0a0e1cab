"""The repo benchmark: four workloads, end-to-end metrics, and a layer trace.

Importing this package does the two things every entry point needs before
anything else loads:

* pin BLAS/OpenMP to one thread, *before* NumPy is imported.  The box has
  two cores; unpinned, a 2-worker TCP run is 2 workers x 2 BLAS threads on
  2 cores and measures slower than the serial simulation (see README.md).
  Worker processes inherit the variables through ``launcher._worker_env``.
* put ``<checkout>/src`` on ``sys.path`` so ``repro`` is the checkout's own
  source, never an installed copy.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sim_hetero", "tcp_hetero", "tcp_fullweight", "server_fanin")
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

for _var in PIN_VARS:
    os.environ[_var] = "1"

_src = ROOT / "src"
if _src.is_dir() and str(_src) not in sys.path:
    sys.path.insert(0, str(_src))
