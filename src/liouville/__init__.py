"""Tools for the Liouville equations u_xy = K e^(a u) and
Lap u = K e^(a u): closed-form solutions, finite-difference solvers that
are verified against them, a continuation engine for the fold of
Lap u + lambda e^u = 0, and the variational form of the elliptic
problem.
"""

import os

# numpy's OpenBLAS starts one worker thread per extra CPU when it loads,
# and the worker spins on its core for as long as the process lives.
# Nothing here makes a BLAS call that a second thread speeds up (see
# elliptic._gmres), so numpy is loaded with one BLAS thread.  OpenBLAS
# reads the variable once, at load: it is removed again so child
# processes do not inherit it, a value the caller set is left alone, and
# a numpy imported before this package keeps its pool.
if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

__version__ = "0.1.0"
