"""Test-session setup: one BLAS thread, as `bench/run.py` runs the program.

The variables must be set before numpy loads its BLAS, so they live here, in
the conftest that pytest imports before any test module. A value already in
the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
