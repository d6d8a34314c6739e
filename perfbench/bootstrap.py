"""Process set-up shared by the benchmark entry point and its self-tests.

Importing this module pins the BLAS thread pool (it must run before numpy
is first imported, because OpenBLAS reads its thread count at load time)
and puts the repository's ``src`` directory first on ``sys.path``, so the
benchmark always measures the library in the checkout it sits in.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
# One BLAS thread: the benchmark drives the library from one closed-loop
# caller, and a second OpenBLAS thread spin-waits between the many small
# calls, which on a two-core machine lengthened step-time tails.
BLAS_THREADS = 1

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

if not (SRC / "vawgan" / "__init__.py").is_file():
    raise ImportError(f"no vawgan package under {SRC}; run from a checkout of the repository")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
