"""Running CLI pipelines, judging their output, summary statistics and
run metadata.

A pipeline's processes are reaped with ``os.wait4`` so each one's CPU
time and peak resident set come from the kernel's accounting of that
process alone.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Optional

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI = (sys.executable, "-c", "import liouville.cli as c; c.main()")


def child_env() -> dict:
    """The caller's environment with the checkout's ``src`` first on the
    import path; thread settings are passed through untouched."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def require_source() -> None:
    if not (SRC / "liouville" / "cli.py").is_file():
        raise FileNotFoundError(f"no liouville sources under {SRC}")


# --- pipelines ---------------------------------------------------------------


@dataclass
class PipelineResult:
    returncodes: list
    stdout: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_pipeline(stages, env: dict) -> PipelineResult:
    """Run ``stages`` (argv tails for the CLI) as one shell-style pipe.
    Only the last stdout is read; stderr is discarded."""
    procs = []
    t0 = time.perf_counter()
    try:
        upstream = subprocess.DEVNULL
        for argv in stages:
            p = subprocess.Popen(CLI + tuple(argv), stdin=upstream,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
            if upstream is not subprocess.DEVNULL:
                upstream.close()  # the child holds its own copy
            upstream = p.stdout
            procs.append(p)
        out = upstream.read()
        upstream.close()
        cpu, rss = 0.0, 0.0
        for p in procs:
            _, status, ru = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
            cpu += ru.ru_utime + ru.ru_stime
            rss = max(rss, ru.ru_maxrss / 1024.0)  # kB on Linux
    finally:
        for p in procs:
            if p.returncode is None:
                p.kill()
                p.wait()
    return PipelineResult([p.returncode for p in procs],
                          out.decode("utf-8", "replace"),
                          time.perf_counter() - t0, cpu, rss)


def split_summary(stdout: str):
    """(summary, body, problem): the one JSON summary line, the lines
    before it, and why the output breaks the contract (None if not)."""
    lines = stdout.splitlines()
    marks = [i for i, ln in enumerate(lines) if ln.startswith("{")]
    if len(marks) != 1:
        return None, lines, f"{len(marks)} summary lines, expected 1"
    if marks[0] != len(lines) - 1:
        return None, lines, "summary line is not the last line"
    try:
        summary = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        return None, lines, f"summary is not JSON: {exc}"
    if not isinstance(summary, dict):
        return None, lines, "summary is not a JSON object"
    return summary, lines[:-1], None


def judge(op, returncodes, summary: Optional[dict], body) -> Optional[str]:
    """Why ``op`` failed, or None.  A failure is a nonzero exit, a status
    other than ok, a null headline value or a failed oracle check."""
    for k, rc in enumerate(returncodes):
        if rc != 0:
            return f"stage {k} ({op.stages[k][0]}) exited {rc}"
    if summary.get("status") != "ok":
        return f"status {summary.get('status')!r}: {summary.get('error')}"
    if summary.get(op.headline) is None:
        return f"headline {op.headline} is null"
    return op.check(summary, body)


def assess(op, returncodes, stdout: str) -> Optional[str]:
    """Why a finished run of ``op`` failed, or None."""
    summary, body, problem = split_summary(stdout)
    if problem is None or any(returncodes):
        problem = judge(op, returncodes, summary, body)
    return problem


def run_op(op, env: dict):
    """Run and judge one op: (PipelineResult, failure reason or None)."""
    res = run_pipeline(op.stages, env)
    return res, assess(op, res.returncodes, res.stdout)


# --- passes -------------------------------------------------------------------

SETUPS = 5


def warm_up(env: dict) -> None:
    """One fresh interpreter importing the CLI, so byte-code and file
    caches are warm before anything is timed."""
    subprocess.run(CLI[:2] + ("import liouville.cli",), env=env,
                   cwd=ROOT, check=True, timeout=120)


def setup(workload: str, seed: int, env: dict):
    """Generate the op list (with its oracle references) and warm up,
    ``SETUPS`` times; returns the ops and the median set-up time."""
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        ops = workloads.make_ops(workload, seed)
        warm_up(env)
        times.append(time.perf_counter() - t0)
    return ops, median(times)


def timed_passes(ops, seconds: float, env: dict):
    """Repeat the op list while another pass fits in ``seconds``.  Yields
    one dict per pass."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        cpu = rss = 0.0
        failures, op_walls = [], []
        for op in ops:
            res, problem = run_op(op, env)
            cpu += res.cpu_s
            rss = max(rss, res.peak_rss_mb)
            op_walls.append(res.wall_s)
            if problem is not None:
                failures.append(f"{op.name}: {problem}")
        wall = time.perf_counter() - t0
        yield {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
               "failures": failures, "op_walls": op_walls}
        if time.perf_counter() - start + wall > seconds:
            return


# --- statistics --------------------------------------------------------------


def median(values) -> float:
    return percentile(values, 50.0)


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def top_percentile(n: int) -> Optional[int]:
    """Highest of the percentiles 50, 90, 99, 99.9 that leaves at least
    ten of ``n`` samples above it, or None."""
    best = None
    for q in (50, 90, 99, 99.9):
        if n * (1000 - round(10 * q)) >= 10 * 1000:  # per mille, exact
            best = q
    return best


# --- metadata ----------------------------------------------------------------

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def _version(dist: str) -> Optional[str]:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():  # an exported checkout has no history
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "liouville").glob("*.py")))


def run_metadata() -> dict:
    """Recorded next to the metrics, never gated."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_lines": src_lines(),
    }
