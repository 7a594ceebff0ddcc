import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from liouville.elliptic import DiskGeometry, continue_branch


@pytest.fixture(scope="session")
def disk_branch_2049():
    """Continuation branch on the fine radial disk grid, shared by the
    fold and lower-branch acceptance checks.  Returns (geometry, branch,
    wall seconds spent tracing)."""
    geometry = DiskGeometry(2049)
    t0 = time.perf_counter()
    branch = continue_branch(geometry)
    elapsed = time.perf_counter() - t0
    return geometry, branch, elapsed


@pytest.fixture
def per_block_height(monkeypatch):
    """``run(fn)`` calls ``fn`` once per row-block height of the package's
    blocked evaluation (1, 7, the default, and one block spanning the
    whole grid) and returns the results in that order."""
    from liouville import fields

    def run(fn):
        results = []
        for rows in (1, 7, fields._BLOCK_ROWS, 10 ** 9):
            with monkeypatch.context() as m:
                m.setattr(fields, "_BLOCK_ROWS", rows)
                results.append(fn())
        return results
    return run


@pytest.fixture
def fresh_python():
    """``run(code, **env)`` runs ``code`` in a new interpreter that imports
    the package from this checkout's ``src/`` and returns its stdout.  The
    interpreter's environment is this one without the variables OpenBLAS
    takes its thread count from, plus ``env``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    blas = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

    def run(code, **env):
        base = {k: v for k, v in os.environ.items() if k not in blas}
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys; sys.path.insert(0, {src!r}); {code}"],
            capture_output=True, text=True, check=True, env={**base, **env})
        return proc.stdout
    return run
