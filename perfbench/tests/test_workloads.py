"""Seeded op generation: determinism, argv that the CLI accepts, and the
integer oracle for blowup-exact."""

import math

import numpy as np
import pytest

from liouville.cli import build_parser
import workloads

SEEDS = (0, 1, 7, 12345)


def argvs(workload, seed):
    return [op.stages for op in workloads.make_ops(workload, seed)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_ops(workload):
    assert argvs(workload, 3) == argvs(workload, 3)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_other_seed_other_inputs(workload):
    a, b = argvs(workload, 3), argvs(workload, 4)
    assert [len(s) for s in a] == [len(s) for s in b]
    assert a != b


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", SEEDS)
def test_every_argv_parses(workload, seed):
    parser = build_parser()
    for op in workloads.make_ops(workload, seed):
        for argv in op.stages:
            ns = parser.parse_args(list(argv))
            assert ns.command == argv[0]


def test_leading_minus_uses_equals_form():
    argv = workloads.cli_argv("march", phi="-2*ln(2-x)", psi="ln(1+y)",
                              K=-0.5, domain=[-1.0, -1.0, 1.0, 1.0])
    assert argv == ("march", "--phi=-2*ln(2-x)", "--psi", "ln(1+y)",
                    "--K=-0.5", "--domain", "-1.0", "-1.0", "1.0", "1.0")
    ns = build_parser().parse_args(list(argv))
    assert (ns.phi, ns.K, ns.domain) == ("-2*ln(2-x)", -0.5,
                                         [-1.0, -1.0, 1.0, 1.0])


def test_march_edge_data_starts_with_minus():
    ops = workloads.make_ops("field-large", 5)
    march = next(op for op in ops if op.name == "march|verify")
    assert any(a.startswith("--phi=-") for a in march.stages[0])


@pytest.mark.parametrize("seed", SEEDS)
def test_blowup_exact_count_matches_float_grid(seed):
    op = next(o for o in workloads.make_ops("cli-small", seed)
              if o.name == "blowup-exact")
    ns = build_parser().parse_args(list(op.stages[0]))
    x0, y0, x1, y1 = ns.domain
    x = x0 + (x1 - x0) / (ns.nx - 1) * np.arange(ns.nx)
    y = y0 + (y1 - y0) / (ns.ny - 1) * np.arange(ns.ny)
    X, Y = np.meshgrid(x, y)
    outside = int((X * X + Y * Y >= 1.0).sum())
    assert op.check.keywords["expected"] == outside


def test_closed_forms_solve_their_equations():
    """The oracle fields are exact: their residual falls like h^2."""
    levels = []
    for n in (33, 65):
        g = workloads.Grid(0.5, 0.5, 1.5, 1.5, n, n)
        levels.append(workloads.hyperbolic_level(
            workloads.exp_pair_field(0.7, 1.3, 2.0, g), g, 2.0))
    assert 1.8 <= math.log2(levels[0] / levels[1]) <= 2.2
