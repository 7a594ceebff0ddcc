"""Discrete action: closed-form values on simple fields, exactness of
the hand-coded gradient, and consistency with the elliptic solver."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liouville.action import ActionParams, action_gradient, action_value
from liouville.elliptic import DirichletProblem, RectangleGeometry, solve_dirichlet
from liouville.errors import FieldsError
from liouville.fields import Grid2D, LiouvilleParams, ScalarField2D

UNIT9 = Grid2D.from_bounds(0.0, 0.0, 1.0, 1.0, 9, 9)


def field(grid, fn):
    X, Y = grid.meshgrid()
    return ScalarField2D(grid, np.asarray(fn(X, Y), dtype=float))


class TestValue:
    def test_zero_field_unit_square(self):
        phi = field(UNIT9, lambda X, Y: 0.0 * X)
        assert action_value(phi, ActionParams(1.0, 1.0)) == 1.0

    def test_constant_field_formula(self):
        g = Grid2D.from_bounds(0.0, 0.0, 2.0, 1.0, 9, 5)
        phi = field(g, lambda X, Y: 0.7 + 0.0 * X)
        S = action_value(phi, ActionParams(2.0, 1.5))
        assert S == pytest.approx(2.0 * 1.5 ** 2 * math.exp(0.7) * 2.0, rel=1e-14)

    def test_linear_field_without_potential(self):
        phi = field(UNIT9, lambda X, Y: X)
        assert action_value(phi, ActionParams(1.0, 0.0)) == pytest.approx(0.5, abs=1e-15)

    def test_mu_sign_irrelevant(self):
        phi = field(UNIT9, lambda X, Y: X * Y)
        assert (action_value(phi, ActionParams(1.0, 1.5))
                == action_value(phi, ActionParams(1.0, -1.5)))

    def test_scaling_in_C_is_exact(self):
        phi = field(UNIT9, lambda X, Y: np.sin(X + Y))
        p1, p2 = ActionParams(1.0, 1.0), ActionParams(2.0, 1.0)
        assert action_value(phi, p2) == 2.0 * action_value(phi, p1)
        g1 = action_gradient(phi, p1).values
        g2 = action_gradient(phi, p2).values
        assert np.array_equal(g2, 2.0 * g1)

    def test_single_cell_grid(self):
        g = Grid2D.from_bounds(0.0, 0.0, 0.5, 0.5, 2, 2)
        phi = ScalarField2D(g, np.zeros((2, 2)))
        assert action_value(phi, ActionParams(1.0, 1.0)) == pytest.approx(0.25)
        assert np.all(action_gradient(phi, ActionParams(1.0, 1.0)).values == 0.0)


class TestGradient:
    def test_matches_central_differences(self):
        p = ActionParams(1.3, 0.8)
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(5):
            v = rng.normal(0.0, 1.0, (9, 9))
            grad = action_gradient(ScalarField2D(UNIT9, v), p).values
            for _ in range(20):
                j, i = rng.integers(1, 8, 2)
                eps = 1e-6 * (1.0 + abs(v[j, i]))
                vp = v.copy()
                vp[j, i] += eps
                vm = v.copy()
                vm[j, i] -= eps
                fd = (action_value(ScalarField2D(UNIT9, vp), p)
                      - action_value(ScalarField2D(UNIT9, vm), p)) / (2 * eps)
                scale = max(abs(fd), abs(grad[j, i]), 1e-30)
                worst = max(worst, abs(fd - grad[j, i]) / scale)
        assert worst <= 1e-6

    def test_zero_field_no_potential_is_critical(self):
        phi = ScalarField2D(UNIT9, np.zeros((9, 9)))
        assert np.all(action_gradient(phi, ActionParams(1.0, 0.0)).values == 0.0)

    def test_boundary_entries_are_zero(self):
        rng = np.random.default_rng(7)
        phi = ScalarField2D(UNIT9, rng.normal(size=(9, 9)))
        grad = action_gradient(phi, ActionParams(1.0, 1.0)).values
        assert np.all(grad[0, :] == 0.0) and np.all(grad[-1, :] == 0.0)
        assert np.all(grad[:, 0] == 0.0) and np.all(grad[:, -1] == 0.0)
        assert np.any(grad[1:-1, 1:-1] != 0.0)

    def test_overflow_leaks_no_warning(self):
        # e^1000 overflows: the interior entry is +inf, and no warning leaks
        phi = ScalarField2D(Grid2D.from_bounds(0.0, 0.0, 1.0, 1.0, 3, 3),
                            np.full((3, 3), 1000.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grad = action_gradient(phi, ActionParams(1.0, 1.0)).values
        assert grad[1, 1] == np.inf

    def test_euler_lagrange_consistency(self):
        # grad / (hx hy) discretizes -Delta phi + mu^2 e^phi at interior
        # nodes; check against the analytic operator on a smooth field
        errs = []
        for n in (33, 65, 129):
            g = Grid2D.from_bounds(0.0, 0.0, 1.0, 1.0, n, n)
            phi = field(g, lambda X, Y: np.sin(X) * np.cos(Y))
            el = action_gradient(phi, ActionParams(1.0, 1.0)).values / (g.hx * g.hy)
            exact = (2.0 * np.sin(g.meshgrid()[0]) * np.cos(g.meshgrid()[1])
                     + np.exp(phi.values))
            err = float(np.abs(el[1:-1, 1:-1] - exact[1:-1, 1:-1]).max())
            assert err <= 3.0 * g.hx ** 2
            errs.append(err)
        for lo, hi in zip(errs, errs[1:]):
            assert 1.8 <= math.log2(lo / hi) <= 2.2


def scatter_gradient(phi: ScalarField2D, p: ActionParams) -> np.ndarray:
    """The gradient assembled over whole arrays: each cell adds its term
    to its four corners, lower-left, lower-right, upper-left, upper-right
    in turn, and the boundary ring is zeroed."""
    v, g = phi.values, phi.grid
    with np.errstate(all="ignore"):
        gx = 0.5 * ((v[:-1, 1:] - v[:-1, :-1]) + (v[1:, 1:] - v[1:, :-1])) / g.hx
        gy = 0.5 * ((v[1:, :-1] - v[:-1, :-1]) + (v[1:, 1:] - v[:-1, 1:])) / g.hy
        mean = 0.25 * (v[:-1, :-1] + v[:-1, 1:] + v[1:, :-1] + v[1:, 1:])
        ex = (p.mu ** 2 * np.exp(mean) if p.mu != 0 else 0.0) / 4.0
        px, py = gx / (2.0 * g.hx), gy / (2.0 * g.hy)
        area = p.C * g.hx * g.hy
        grad = np.zeros_like(v)
        grad[:-1, :-1] += area * (-px - py + ex)
        grad[:-1, 1:] += area * (px - py + ex)
        grad[1:, :-1] += area * (-px + py + ex)
        grad[1:, 1:] += area * (px + py + ex)
    grad[0, :] = grad[-1, :] = 0.0
    grad[:, 0] = grad[:, -1] = 0.0
    return grad


class TestRowBlocks:
    """Value and gradient run in row blocks on 131 x 200 nodes with
    hx != hy: the results must have the bits of a single block, and the
    gathered gradient those of the whole-array scatter."""

    GRID = Grid2D(131, 200, -0.3, 0.2, 0.011, 0.006)

    def phi(self, nan_band=False):
        v = field(self.GRID, lambda X, Y: np.sin(3 * X) * np.cos(2 * Y) + X * Y).values
        if nan_band:
            v[62:66, 10:20] = np.nan
        return ScalarField2D(self.GRID, v)

    @pytest.mark.parametrize("mu", [0.0, 1.3])
    @pytest.mark.parametrize("nan_band", [False, True])
    def test_blocks_match_one_block(self, per_block_height, mu, nan_band):
        phi, p = self.phi(nan_band), ActionParams(0.7, mu)
        values = per_block_height(lambda: action_value(phi, p))
        assert len({np.float64(x).tobytes() for x in values}) == 1
        assert math.isnan(values[0]) == nan_band
        grads = per_block_height(lambda: action_gradient(phi, p).values)
        expect = scatter_gradient(phi, p).tobytes()
        assert all(gr.tobytes() == expect for gr in grads)

    def test_gradient_memory_is_bounded(self):
        # 513^2 nodes: the gradient is one field, its blocked cell terms
        # must stay small beside it
        g = Grid2D.from_bounds(0.0, 0.0, 1.0, 1.0, 513, 513)
        phi = field(g, lambda X, Y: np.sin(X) * np.cos(Y))
        tracemalloc.start()
        try:
            action_gradient(phi, ActionParams(1.0, 1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * phi.values.nbytes


class TestConvexity:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.floats(1e-3, 0.5))
    def test_second_difference_nonnegative(self, seed, t):
        rng = np.random.default_rng(seed)
        g = Grid2D.from_bounds(0.0, 0.0, 1.0, 1.0, 7, 7)
        v = rng.normal(0.0, 1.0, (7, 7))
        d = rng.normal(0.0, 1.0, (7, 7))
        p = ActionParams(1.0, 1.0)
        S0 = action_value(ScalarField2D(g, v), p)
        second = (action_value(ScalarField2D(g, v + t * d), p)
                  + action_value(ScalarField2D(g, v - t * d), p) - 2.0 * S0)
        assert second >= -1e-9 * (1.0 + abs(S0))


class TestSolverConsistency:
    def test_solver_solution_is_near_critical(self):
        # the Newton solver discretizes the same Euler-Lagrange equation
        # with a nodal exponential, so its solution leaves a residual
        # gradient of order h^2 in the action's cell-based quadrature
        for n in (33, 65):
            g = Grid2D.from_bounds(-0.4, -0.4, 0.4, 0.4, n, n)
            u, report = solve_dirichlet(
                DirichletProblem(RectangleGeometry(g), LiouvilleParams(1.0, 1.0)))
            assert report.converged
            grad = action_gradient(u, ActionParams(1.0, 1.0)).values
            assert float(np.abs(grad).max()) <= 0.5 * g.hx ** 2


class TestValidation:
    def test_C_must_be_positive(self):
        with pytest.raises(FieldsError):
            ActionParams(0.0, 1.0)
        with pytest.raises(FieldsError):
            ActionParams(-1.0, 1.0)

    def test_mu_must_be_finite(self):
        with pytest.raises(FieldsError):
            ActionParams(1.0, math.inf)
