"""Traced run: the per-layer split of a workload.

Each op is replayed inside this process.  Every stage's argv goes
through ``liouville.cli.build_parser().parse_args``, and the handler
below calls, in the CLI handler's order, the same public functions on
the same inputs, with streams replaced by in-memory text.  Every call
sits in a span recording (name, start, end, op name, op id).  Spans stay
in memory until the run ends and are then written to
``perfbench/out/trace-<workload>-seed<seed>.json``.

``expr.eval`` spans are probes: the closed-form samplers and marchers
evaluate their expressions internally, so the probe times the same
``eval_dual``/``eval_complex`` calls on the op's sample points
separately.  Probes are left out of ``trace.coverage``.

Imports are timed in fresh child interpreters, and one CLI pass without
spans gives the ``cpu_s`` that the coverage is a share of.
"""

from __future__ import annotations

import io
import json
import math
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

import harness

sys.path.insert(0, str(harness.SRC))

from liouville import action as action_mod  # noqa: E402
from liouville import closedform, elliptic, hyperbolic  # noqa: E402
from liouville.cli import build_parser  # noqa: E402
from liouville.errors import LiouvilleError  # noqa: E402
from liouville.expr import eval_complex, eval_dual, parse  # noqa: E402
from liouville.fields import (  # noqa: E402
    Grid2D,
    LiouvilleParams,
    ScalarField2D,
    norms,
    residual_elliptic,
    residual_hyperbolic,
    residual_log,
)

IMPORT_SAMPLES = 5
PROBES = ("expr.eval",)
# span name -> per-layer metric (seconds, summed over a pass)
SPAN_METRICS = (
    "cli.parse", "expr.parse", "expr.eval", "closedform.sample",
    "closedform.curve", "fields.write_csv", "fields.read_csv",
    "fields.residual", "fields.norms", "action.value", "action.gradient",
    "hyperbolic.march", "hyperbolic.backlund", "elliptic.solve_rect",
    "elliptic.branch_rect", "elliptic.branch_disk", "elliptic.blowup_disk",
)
COUNT_METRICS = {
    "cli.processes": "count", "fields.csv_bytes": "B",
    "hyperbolic.masked_nodes": "count", "elliptic.newton_iters": "count",
    "elliptic.branch_points": "count",
}


class Tracer:
    """Spans and counts of one replay pass."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = ("", "")

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, t0, time.perf_counter()) + self.op)

    def seconds(self, name: str) -> float:
        return sum(end - start for n, start, end, *_ in self.spans
                   if n == name)


# --- stage handlers: (tracer, namespace, stdin text) -> (stdout text, payload)


def _num(x):
    v = float(x)
    return v if math.isfinite(v) else None


def _grid(ns) -> Grid2D:
    x0, y0, x1, y1 = ns.domain
    return Grid2D.from_bounds(x0, y0, x1, y1, ns.nx, ns.ny)


def _parse(t, text, variables):
    with t.span("expr.parse"):
        return parse(text, variables)


def _write_field(t, field) -> str:
    buf = io.StringIO()
    with t.span("fields.write_csv"):
        field.write_csv(buf)
    text = buf.getvalue()
    t.counts["fields.csv_bytes"] += len(text)  # ASCII: characters are bytes
    return text


def _read_field(t, text) -> ScalarField2D:
    with t.span("fields.read_csv"):
        return ScalarField2D.read_csv(io.StringIO(text))


def _write_table(t, table) -> str:
    buf = io.StringIO()
    with t.span("io.table_write"):
        table.write_csv(buf)
    return buf.getvalue()


def _stats(field) -> dict:
    v = field.values
    finite = np.isfinite(v)
    return {"n_masked": int(v.size - finite.sum())}


def _exact_h(t, ns, _):
    f, g = _parse(t, ns.f, ("x",)), _parse(t, ns.g, ("y",))
    grid = _grid(ns)
    with t.span("expr.eval"):
        eval_dual(f, grid.x(), "x")
        eval_dual(g, grid.y(), "y")
    with t.span("closedform.sample"):
        field = closedform.hyperbolic_exact(
            closedform.CharacteristicPair(f, g), LiouvilleParams(ns.K, ns.a),
            grid)
    return _write_field(t, field), _stats(field)


def _exact_e(t, ns, _):
    F = _parse(t, ns.F, ("z",))
    grid = _grid(ns)
    with t.span("expr.eval"):
        X, Y = grid.meshgrid()
        eval_complex(F, X + 1j * Y)
    with t.span("closedform.sample"):
        field = closedform.elliptic_exact(closedform.AnalyticSeed(F, ns.sign),
                                          ns.K, ns.a, grid)
    return _write_field(t, field), _stats(field)


def _blowup_exact(t, ns, _):
    with t.span("closedform.sample"):
        field = closedform.boundary_blowup_exact(_grid(ns))
    return _write_field(t, field), _stats(field)


def _blowup_curve(t, ns, _):
    f, g = _parse(t, ns.f, ("x",)), _parse(t, ns.g, ("y",))
    with t.span("expr.eval"):
        for x in np.linspace(*ns.x_range, ns.samples):
            eval_dual(f, float(x), "x")
        for y in np.linspace(*ns.y_range, ns.samples):
            eval_dual(g, float(y), "y")
    with t.span("closedform.curve"):
        curve = closedform.blowup_curve(closedform.CharacteristicPair(f, g),
                                        tuple(ns.x_range), tuple(ns.y_range),
                                        ns.samples, ns.tol)
    found = sum(1 for _, y in curve.samples if y is not None)
    return _write_table(t, curve), {"samples": len(curve.samples),
                                    "n_found": found}


def _verify(t, ns, text):
    field = _read_field(t, text)
    with t.span("fields.residual"):
        if ns.eq == "hyperbolic":
            res = residual_hyperbolic(field, LiouvilleParams(ns.K, ns.a))
        elif ns.eq == "elliptic":
            res = residual_elliptic(field, LiouvilleParams(ns.K, ns.a))
        else:
            res = residual_log(field, ns.K)
    with t.span("fields.norms"):
        nm = norms(res)
    return "", {"eq": ns.eq, "max_abs": _num(nm.max_abs), "l2": _num(nm.l2),
                "cells": int(np.isfinite(res.values).sum())}


def _geometry(ns):
    if ns.geometry == "disk":
        return elliptic.DiskGeometry(ns.n), "disk"
    return elliptic.RectangleGeometry(_grid(ns)), "rect"


def _solve_elliptic(t, ns, _):
    geometry, kind = _geometry(ns)
    try:
        boundary = float(ns.boundary)
    except ValueError:
        boundary = _parse(t, ns.boundary, ("x", "y"))
    problem = elliptic.DirichletProblem(geometry, LiouvilleParams(ns.K, ns.a),
                                        boundary)
    with t.span(f"elliptic.solve_{kind}"):
        solution, report = elliptic.solve_dirichlet(problem, tol=ns.tol,
                                                    max_iter=ns.max_iter)
    t.counts["elliptic.newton_iters"] += report.iterations
    if kind == "disk":
        return _write_table(t, solution), {"u_center": _num(solution.u0)}
    return _write_field(t, solution), _stats(solution)


def _gelfand(t, ns, _):
    geometry, kind = _geometry(ns)
    with t.span(f"elliptic.branch_{kind}"):
        branch = elliptic.continue_branch(
            geometry, ns.lam_start, ns.max_steps, ns.ds, lam_stop=ns.lam_stop,
            u0_cap=ns.u0_cap, tol=ns.tol, fold_tol=ns.fold_tol)
    t.counts["elliptic.branch_points"] += len(branch.points)
    fold = branch.fold
    return _write_table(t, branch), {
        "points": len(branch.points), "aborted": branch.aborted,
        "lambda0": None if fold is None else _num(fold.lam0)}


def _blowup_approx(t, ns, _):
    with t.span("elliptic.blowup_disk"):
        profiles = elliptic.boundary_blowup_approx(
            elliptic.DiskGeometry(ns.n), list(ns.M), tol=ns.tol)
    text = "\n".join(_write_table(t, prof) for prof in profiles)
    centers = [prof.u0 for prof in profiles]
    return text, {"centers": [_num(c) for c in centers],
                  "gaps": [_num(math.log(8.0) - c) for c in centers]}


def _march(t, ns, _):
    phi, psi = _parse(t, ns.phi, ("x",)), _parse(t, ns.psi, ("y",))
    grid = _grid(ns)
    with t.span("expr.eval"):
        eval_dual(phi, grid.x(), "x")
        eval_dual(psi, grid.y(), "y")
    with t.span("hyperbolic.march"):
        result = hyperbolic.march(hyperbolic.GoursatData(phi, psi),
                                  LiouvilleParams(ns.K, ns.a), grid,
                                  ns.threshold)
    t.counts["hyperbolic.masked_nodes"] += result.n_masked
    return _write_field(t, result.field), _stats(result.field)


def _doubled(axis):
    out = np.empty(2 * axis.size - 1)
    out[0::2] = axis
    out[1::2] = 0.5 * (axis[:-1] + axis[1:])
    return out


def _backlund(t, ns, _):
    wp, ws = _parse(t, ns.w_phi, ("x",)), _parse(t, ns.w_psi, ("y",))
    grid = _grid(ns)
    with t.span("expr.eval"):
        eval_dual(wp, _doubled(grid.x()), "x")
        eval_dual(ws, _doubled(grid.y()), "y")
    with t.span("hyperbolic.backlund"):
        field = hyperbolic.backlund(hyperbolic.WaveSolution(wp, ws), ns.bt_a,
                                    ns.u_corner, grid, ns.order)
    return _write_field(t, field), _stats(field)


def _action(t, ns, text):
    field = _read_field(t, text)
    p = action_mod.ActionParams(ns.C, ns.mu)
    with t.span("action.value"):
        value = action_mod.action_value(field, p)
    with t.span("action.gradient"):
        grad = action_mod.action_gradient(field, p)
    return "", {"value": _num(value),
                "grad_max": _num(np.abs(grad.values).max())}


def _convert_log(t, ns, text):
    field = _read_field(t, text)
    with t.span("closedform.sample"):
        out = closedform.convert_log_form(field,
                                          ns.direction.replace("-", "_"))
    return _write_field(t, out), _stats(out)


HANDLERS = {
    "exact-h": _exact_h, "exact-e": _exact_e, "blowup-exact": _blowup_exact,
    "blowup-curve": _blowup_curve, "verify": _verify,
    "solve-elliptic": _solve_elliptic, "gelfand": _gelfand,
    "blowup-approx": _blowup_approx, "march": _march, "backlund": _backlund,
    "action": _action, "convert-log": _convert_log,
}


def replay(op, t: Tracer):
    """Replay ``op`` and judge it like the CLI run; failure or None."""
    text = ""
    try:
        for argv in op.stages:
            with t.span("cli.parse"):
                ns = build_parser().parse_args(list(argv))
            t.counts["cli.processes"] += 1
            text, payload = HANDLERS[ns.command](t, ns, text)
    except LiouvilleError as exc:
        return f"{type(exc).__name__}: {exc}"
    summary = dict(payload, status="ok")
    return harness.judge(op, [0] * len(op.stages), summary,
                         text.splitlines())


# --- the traced run ---------------------------------------------------------


def import_seconds(env: dict) -> float:
    """Median time of ``import liouville.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import liouville.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(harness.CLI[:2] + (code,), env=env,
                             cwd=harness.ROOT, capture_output=True, text=True,
                             check=True, timeout=120)
        samples.append(float(out.stdout))
    return harness.median(samples)


def measure(workload: str, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    env = harness.child_env()
    ops, _ = harness.setup(workload, seed, env)
    import_s = import_seconds(env)
    cli_pass = next(harness.timed_passes(ops, 0.0, env))
    failures = [f"cli {f}" for f in cli_pass["failures"]]

    tracers = []
    while True:
        t0 = time.perf_counter()
        t = Tracer()
        for k, op in enumerate(ops):
            t.op = (op.name, f"{len(tracers)}:{k}")
            problem = replay(op, t)
            if problem is not None:
                failures.append(f"replay {op.name}: {problem}")
        tracers.append(t)
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - t0) > seconds:
            break
    metrics = {"cli.import_s": (import_s, "s")}
    for name in SPAN_METRICS:
        metrics[name + "_s"] = (harness.median(t.seconds(name)
                                               for t in tracers), "s")
    unsteady = []
    for name, unit in COUNT_METRICS.items():
        values = {t.counts[name] for t in tracers}
        if len(values) > 1:
            unsteady.append(f"count {name} differs between passes: {values}")
        metrics[name] = (min(values), unit)
    spans = harness.median(
        sum(end - s for n, s, end, *_ in t.spans if n not in PROBES)
        for t in tracers)
    covered = spans + import_s * metrics["cli.processes"][0]
    metrics["trace.coverage"] = (covered / cli_pass["cpu_s"], "1")
    for f in sorted(set(failures)) + unsteady:
        print(f"FAILED {f}")
    print(f"{workload} seed {seed}: {len(tracers)} traced passes of "
          f"{len(ops)} ops; coverage is the spans plus {import_s:.3f} s per "
          f"import over the CLI pass's cpu_s {cli_pass['cpu_s']:.3f} s")

    out = harness.ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    doc = {"workload": workload, "seed": seed,
           "fields": ["name", "start", "end", "op", "op_id"],
           "spans": [[n, s - start, e - start, op, oid]
                     for t in tracers for n, s, e, op, oid in t.spans]}
    (out / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(doc))

    attempted = len(ops) * (1 + len(tracers))
    return {"correct": not failures and not unsteady, "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}
