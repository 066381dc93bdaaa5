"""Test-session setup: BLAS runs on one thread unless the environment says
otherwise.

The package's matrices (192 x 1024 at desk scale, 16 x 16 blocks in the basis
optimizer) are too small to gain from BLAS threads; on a 2-core machine the
desk joint G-BPDN test took 1.24 s with OpenBLAS's default two threads and
0.27 s with one.  BLAS reads the thread count once, when numpy loads it, so the
variables are set here, before any test module imports numpy.
"""

import os
import sys

if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")
