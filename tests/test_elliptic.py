"""Newton solver, branch continuation, and large boundary data checked
against the closed-form families."""

import math
import tracemalloc

import numpy as np
import pytest

from liouville import elliptic
from liouville.closedform import AnalyticSeed, elliptic_exact, gelfand_radial
from liouville.elliptic import (
    GMRES_RTOL,
    MAX_RADIAL_NODES,
    BranchPoint,
    DirichletProblem,
    DiskGeometry,
    RectangleGeometry,
    _cyclic_reduction,
    _dot,
    _dst2,
    _fold_border,
    _make_system,
    _newton,
    _norm,
    _predict,
    _sine_matrices,
    boundary_blowup_approx,
    continue_branch,
    solve_dirichlet,
)
from liouville.errors import (
    EllipticError,
    GridTooLargeError,
    NonConvergenceError,
    SingularJacobianError,
)
from liouville.expr import parse
from liouville.fields import Grid2D, LiouvilleParams, laplacian

LN4 = math.log(4.0)
LN8 = math.log(8.0)

# boundary trace of the exact solution ln(8|F'|^2 / (1 + |F|^2)^2) with
# F(z) = z, which solves Delta u = -e^u on any domain inside C
BLOWDOWN_TRACE = "ln(8/(1+x^2+y^2)^2)"


def rect(n):
    return RectangleGeometry(Grid2D.from_bounds(-0.4, -0.4, 0.4, 0.4, n, n))


def dense_jacobian(system, u, coef, a=1.0):
    eye = np.eye(system.m)
    return np.column_stack([system.jacobian_matvec(u, coef, a, e)
                            for e in eye])


def secant(p, q):
    """Unit (scaled) secant from branch point ``p`` to ``q``."""
    du, dl = q.u - p.u, q.lam - p.lam
    nrm = _norm(du, dl)
    return du / nrm, dl / nrm


# (n, index into DS_SWEEP) of disk traces on which a corrector that is
# not checked against its predictor jumps branches, with chords in s of
# 2 to 3.9, and the trace ends at lambda < 0
DS_SWEEP = np.linspace(0.005, 0.1, 11)
BRANCH_JUMPS = [(57, 0), (57, 1), (58, 3), (58, 6), (61, 8), (62, 4),
                (62, 7), (62, 10), (63, 8), (64, 9), (66, 6), (67, 0),
                (67, 1), (67, 6), (67, 7), (67, 8), (68, 4), (68, 5)]


@pytest.fixture(scope="module")
def branch257():
    return continue_branch(DiskGeometry(257))


def lower_side(geom, lam):
    """The minimal solution of Delta u + lam e^u = 0 with u = 0 on the
    boundary: the Dirichlet problem K = -lam, solved by Newton from u = 0."""
    return solve_dirichlet(DirichletProblem(geom, LiouvilleParams(-lam, 1.0)))


def upper_side(geom, lam):
    """The solution past the fold at ``lam``: Newton from the last point
    of a trace stopped once past the fold by ``lam_stop=lam``."""
    system = _make_system(geom, 0.0)
    seed = continue_branch(geom, lam_stop=lam).points[-1].u
    u, _, report, _ = _newton(system, seed, lam, 1.0)
    return system.pack(u), report


class TestRectangleSolve:
    def solve_error(self, n):
        g = Grid2D.from_bounds(-0.4, -0.4, 0.4, 0.4, n, n)
        prob = DirichletProblem(RectangleGeometry(g), LiouvilleParams(-1.0, 1.0),
                                parse(BLOWDOWN_TRACE, ("x", "y")))
        u, report = solve_dirichlet(prob)
        assert report.converged
        exact = elliptic_exact(AnalyticSeed(parse("z", ("z",)), "plus"),
                               -1.0, 1.0, g)
        return float(np.abs(u.values - exact.values).max())

    def test_second_order_against_exact(self):
        errs = [self.solve_error(n) for n in (33, 65, 129)]
        assert errs[-1] <= 1e-5
        for lo, hi in zip(errs, errs[1:]):
            assert 1.8 <= math.log2(lo / hi) <= 2.2

    def test_small_domain_converges_fast(self):
        g = Grid2D.from_bounds(0.0, 0.0, 0.1, 0.1, 17, 17)
        prob = DirichletProblem(RectangleGeometry(g), LiouvilleParams(1.0, 1.0))
        _, report = solve_dirichlet(prob)
        assert report.converged
        assert report.iterations <= 6

    def test_newton_tail_is_quadratic(self):
        g = Grid2D.from_bounds(-0.4, -0.4, 0.4, 0.4, 65, 65)
        prob = DirichletProblem(RectangleGeometry(g), LiouvilleParams(-1.0, 1.0),
                                parse(BLOWDOWN_TRACE, ("x", "y")))
        _, report = solve_dirichlet(prob)
        # check r_{k+1} <= C r_k^2 on entries small enough to be in the
        # quadratic regime but still above the rounding floor
        pairs = [(a, b) for a, b in zip(report.newton_history,
                                        report.newton_history[1:])
                 if a <= 1e-2 and b > 1e-10]
        assert pairs
        for a, b in pairs:
            assert b <= 1e3 * a * a

    def test_report_invariants(self):
        prob = DirichletProblem(rect(33), LiouvilleParams(1.0, 1.0))
        _, report = solve_dirichlet(prob)
        assert report.converged
        assert report.final_residual <= report.tolerance
        assert report.newton_history[-1] == report.final_residual
        assert len(report.newton_history) == report.iterations + 1


    @pytest.mark.parametrize("nxi, nyi", [(6, 4), (6, 5), (5, 7)],
                             ids=["even-even", "even-odd", "odd-odd"])
    def test_center_value_is_the_mean_of_the_nearest_nodes(self, nxi, nyi):
        # an asymmetric field, so that no two of the nearest nodes agree
        g = Grid2D.from_bounds(0.0, 0.0, 1.0, 1.0, nxi + 2, nyi + 2)
        system = _make_system(RectangleGeometry(g), 0.0)
        u = np.random.default_rng(nxi * nyi).uniform(1.0, 2.0, system.m)
        cols, rows = ({math.floor((n - 1) / 2), math.ceil((n - 1) / 2)}
                      for n in (g.nx, g.ny))
        nearest = system.pack(u).values[np.ix_(sorted(rows), sorted(cols))]
        assert system.center_value(u) == pytest.approx(nearest.mean(),
                                                       rel=1e-15)


class TestDiskSolve:
    def test_rounding_floor_ends_the_solve(self):
        # at n = 1025 the residual reaches 6e-10 after 4 steps, above the
        # 1e-10 target but below the rounding floor of F, about 4e-9
        # (eps times 8/h^2 times |u| <= 2): the solve must end there
        # instead of taking rounding-level steps
        _, report = solve_dirichlet(DirichletProblem(
            DiskGeometry(1025), LiouvilleParams(1.0, 1.0), 2.0))
        assert report.converged
        assert report.iterations <= 8
        assert report.final_residual <= report.tolerance

    @pytest.mark.filterwarnings("error")
    def test_infinite_rounding_floor_is_non_convergence(self):
        # u = 1e304 keeps F finite, but ||A|| ||u|| overflows: a floor of
        # inf would accept any residual
        with pytest.raises(NonConvergenceError, match="floor") as info:
            solve_dirichlet(DirichletProblem(
                DiskGeometry(65), LiouvilleParams(1e-304, 1e-304), 1e304))
        assert np.isfinite(info.value.report.tolerance)

    def test_every_jacobian_solve_is_used(self, monkeypatch):
        # the loop stops on an evaluated residual, so it never solves for
        # a step it then throws away: one solve without a border per
        # iteration, on the disk and on a rectangle
        for cls, geometry in ((elliptic._RadialSystem, DiskGeometry(1025)),
                              (elliptic._RectSystem, rect(33))):
            calls, solve = [], cls.solve

            def counted(self, *args, calls=calls, solve=solve):
                calls.append(args)
                return solve(self, *args)

            monkeypatch.setattr(cls, "solve", counted)
            _, report = solve_dirichlet(DirichletProblem(
                geometry, LiouvilleParams(1.0, 1.0), 2.0))
            assert report.converged
            assert len(calls) == report.iterations > 0
            assert all(args[4] is None for args in calls)

    def test_matches_radial_family(self):
        fam = gelfand_radial(0.5)
        errs = []
        for n in (129, 257):
            prof, report = solve_dirichlet(
                DirichletProblem(DiskGeometry(n), LiouvilleParams(-fam.lam, 1.0)))
            assert report.converged
            errs.append(float(np.abs(prof.values - fam.profile()(prof.r)).max()))
        assert errs[-1] <= 1e-5
        assert 1.8 <= math.log2(errs[0] / errs[1]) <= 2.2

    def test_solve_at_the_node_cap_meets_the_closed_form(self):
        # past the cap the rounding floor, growing as eps 8/h^2, overtakes
        # the h^2 discretization error; at the cap it has not yet
        fam = gelfand_radial(3.0 - 2.0 * math.sqrt(2.0))  # lambda = 1
        prof, report = solve_dirichlet(DirichletProblem(
            DiskGeometry(MAX_RADIAL_NODES), LiouvilleParams(-fam.lam, 1.0)))
        assert report.converged
        assert float(np.abs(prof.values - fam.profile()(prof.r)).max()) <= 1e-9

    def test_boundary_node_exact(self):
        prof, _ = solve_dirichlet(
            DirichletProblem(DiskGeometry(65), LiouvilleParams(-1.0, 1.0)))
        assert prof.values[-1] == 0.0
        assert prof.r[0] == 0.0 and prof.r[-1] == 1.0

    def test_critical_K_reproduces_fold_solution(self, branch257):
        """Delta u = -lambda e^u on the unit disk at this mesh's critical
        lambda, solved on both sides of the fold, against the closed-form
        member with b = 1 (lambda = 2), the fold of the radial branch.

        The discrete fold sits below 2 (2 - 0.778 h^2; see
        test_fold_location), so the problem is posed just below the
        discrete fold rather than at lambda = 2, where it has no solution.
        """
        fam = gelfand_radial(1.0)
        # Near the fold lambda ~ lambda0 - (u(0) - ln 4)^2 / 2, since
        # lambda''(b = 1) = -1 and du0/db = 1.  A margin delta below the
        # fold puts each side sqrt(2 delta) ~ 4.5e-5 from it in u(0), on
        # top of the discrete fold's own offset fold.u0 - ln 4 = -5.8e-6.
        # delta must also exceed the error of the fold estimate; at
        # n = 257 every delta from 1e-10 to 4e-9 converges on both sides.
        lam = branch257.fold.lam0 - 1e-9
        geom = DiskGeometry(257)
        lo, lo_report = lower_side(geom, lam)
        up, up_report = upper_side(geom, lam)
        assert lo_report.converged and up_report.converged
        exact = fam.profile()(lo.r)
        for prof in (lo, up):
            assert float(np.abs(prof.values - exact).max()) <= 1e-4
        # u_b(r) = ln((1+b)^2 / (1+b r^2)^2) increases with b for r < 1,
        # so the b = 1 profile lies between the b < 1 and b > 1 solutions
        assert np.all(lo.values <= exact) and np.all(exact <= up.values)


def test_converged_reports_meet_their_tolerance(monkeypatch):
    # every Newton solve of both geometries, the continuation's steps and
    # fold solves included: the residual checked is the one reported,
    # against a threshold no looser than the requested tol
    reports, newton = [], elliptic._newton

    def recorded(system, u, coef, a, tol, *args, **kwargs):
        out = newton(system, u, coef, a, tol, *args, **kwargs)
        reports.append((tol, out[2]))
        return out

    monkeypatch.setattr(elliptic, "_newton", recorded)
    for geometry in (DiskGeometry(129), rect(17)):
        continue_branch(geometry, fold_tol=1e-9)
    solve_dirichlet(DirichletProblem(DiskGeometry(1025),
                                     LiouvilleParams(1.0, 1.0), 2.0))
    solve_dirichlet(DirichletProblem(rect(33), LiouvilleParams(1.0, 1.0)))
    boundary_blowup_approx(DiskGeometry(1025), [5.0, 8.0])
    assert len(reports) > 50
    for tol, report in reports:
        assert report.converged
        assert report.final_residual == report.newton_history[-1]
        assert report.final_residual <= report.tolerance
        assert report.tolerance >= tol


class TestKrylovSolve:
    """The matrix-free rectangle solve against dense direct solves of the
    same discrete system, on a grid with hx != hy."""

    GRID = Grid2D.from_bounds(-0.4, -0.3, 0.4, 0.5, 17, 25)

    def system(self):
        return _make_system(RectangleGeometry(self.GRID),
                            parse(BLOWDOWN_TRACE, ("x", "y")))

    def test_initial_guess_is_dense_poisson_solve(self):
        system = self.system()
        A = dense_jacobian(system, np.zeros(system.m), 0.0, 1.0)
        dense = np.linalg.solve(A, -system.bc_vec)
        assert np.abs(system.initial_guess() - dense).max() <= 1e-12

    def test_matches_dense_newton(self):
        system = self.system()
        coef, a = 1.0, 1.0  # Delta u = K e^u with K = -1
        u = system.initial_guess()
        for _ in range(8):
            J = dense_jacobian(system, u, coef, a)
            u = u + np.linalg.solve(J, -system.residual(u, coef, a)[0])
        assert np.abs(system.residual(u, coef, a)[0]).max() <= 1e-10
        prob = DirichletProblem(RectangleGeometry(self.GRID),
                                LiouvilleParams(-1.0, 1.0),
                                parse(BLOWDOWN_TRACE, ("x", "y")))
        field, report = solve_dirichlet(prob)
        assert report.converged
        krylov = field.values[1:-1, 1:-1].ravel()
        assert np.abs(krylov - u).max() <= 1e-12

    def test_solve_meets_true_residual_tolerance(self):
        # the returned x satisfies the stopping test on the true residual
        system = self.system()
        u = system.initial_guess()
        coef, a = 1.0, 1.0
        b = -system.residual(u, coef, a)[0]
        x, _ = system.solve(u, coef, a, b)
        r = b - system.jacobian_matvec(u, coef, a, x)
        assert np.linalg.norm(r) <= GMRES_RTOL * np.linalg.norm(b)

    def test_dst2_matches_dense_sine_product(self):
        # dense sine products below the cut and at it, the FFT above it,
        # on both axes and on one

        def sine(n):
            k = np.arange(1, n + 1)
            return 2.0 * np.sin(np.pi * np.outer(k, k) / (n + 1))

        rng = np.random.default_rng(5)
        shapes = {(9, 14): True, (63, 64): True, (127, 129): False,
                  (140, 31): False}
        for (ny, nx), dense_path in shapes.items():
            sines = _sine_matrices(ny, nx)
            assert (sines is not None) == dense_path
            x = rng.normal(size=(ny, nx))
            dense = sine(ny) @ x @ sine(nx)
            got = _dst2(x, sines)
            assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max()

    @pytest.mark.parametrize("shape", [(65, 65), (3, 300), (300, 3),
                                       (129, 127), (95, 298), (513, 129),
                                       (63, 63), (64, 38), (1, 64), (3, 5)])
    def test_blocked_fft_is_bit_identical_to_whole_array(self, shape):
        # the FFT path goes in blocks of lines; the first six shapes end
        # in ragged or one-line blocks on either axis, the last four take
        # the dense path, sy @ x @ sx.  Either path, written over its
        # input (out=x), gives the same bits

        def whole(x):
            ny, nx = x.shape
            z = np.zeros((2 * ny + 2, nx))
            z[1:ny + 1] = x
            np.negative(x[::-1], out=z[ny + 2:])
            x = np.fft.rfft(z, axis=0).imag[1:ny + 1]
            z = np.zeros((ny, 2 * nx + 2))
            z[:, 1:nx + 1] = x
            np.negative(x[:, ::-1], out=z[:, nx + 2:])
            return np.fft.rfft(z, axis=1).imag[:, 1:nx + 1]

        x = np.random.default_rng(11).standard_normal(shape)
        sines = _sine_matrices(*shape)
        want = whole(x) if sines is None else sines[0] @ x @ sines[1]
        assert _dst2(x, sines).tobytes() == want.tobytes()
        assert _dst2(x, sines, out=x) is x
        assert x.tobytes() == want.tobytes()

    @pytest.mark.parametrize("nxi, nyi", [(63, 63), (127, 68), (255, 255)])
    def test_blocked_stencil_is_bit_identical_to_whole_field(self, nxi, nyi):
        # apply_A runs the stencil one row block at a time, and the
        # product with J adds d v a block at a time, each block of d
        # formed from u there: an interior of one block (the dense sine
        # path's), and two of several blocks ending in a ragged one.
        # Both give the bits of laplacian on the whole zero-padded field,
        # plus d * v
        g = Grid2D.from_bounds(-0.4, -0.3, 0.4, 0.5, nxi + 2, nyi + 2)
        system = _make_system(RectangleGeometry(g), 0.0)
        v, u = np.random.default_rng(13).standard_normal((2, system.m))
        padded = np.zeros((g.ny, g.nx))
        padded[1:-1, 1:-1] = v.reshape(nyi, nxi)
        Av = laplacian(padded, g.hx, g.hy).ravel()
        coef, a = -2.5, 1.5
        d = coef * a * np.exp(a * u)
        matvec, _ = system._jacobian(u, coef, a)
        assert system.apply_A(v).tobytes() == Av.tobytes()
        assert matvec(v).tobytes() == (Av + d * v).tobytes()

    @pytest.mark.parametrize("nx, ny", [(9, 9), (40, 66), (131, 67)])
    def test_shifted_eigenvalues_keep_their_bits(self, nx, ny):
        # formed once per Jacobian from the two 1-D terms, in the order
        # of the array -4 (sy/hy^2 + sx/hx^2) they replace, plus the shift
        g = Grid2D.from_bounds(0.0, -0.3, 1.0, 0.7, nx, ny)
        system = _make_system(RectangleGeometry(g), 0.0)
        nxi, nyi = nx - 2, ny - 2
        sx = np.sin(0.5 * np.pi * np.arange(1, nxi + 1) / (nxi + 1)) ** 2
        sy = np.sin(0.5 * np.pi * np.arange(1, nyi + 1) / (nyi + 1)) ** 2
        eig = -4.0 * (sy[:, None] / g.hy ** 2 + sx[None, :] / g.hx ** 2)
        assert system.mu1 == float(-eig[0, 0])
        for c in (0.0, -3.7, 0.5 * system.mu1):
            got = system._shifted_eigenvalues(c)
            assert got.tobytes() == (eig + c).tobytes()

    def test_basis_grows_past_its_first_allocation(self):
        # with the identity as preconditioner GMRES needs tens of
        # iterations in a cycle, past the room first allocated for 4
        system = self.system()
        u, coef = system.initial_guess(), 1.0
        J = dense_jacobian(system, u, coef)
        b = -system.residual(u, coef, 1.0)[0]
        iterations = 0

        def psolve(v):
            nonlocal iterations
            iterations += 1
            return v.copy(), J @ v

        x = elliptic._gmres(lambda v: J @ v, psolve, b)
        assert iterations > 16
        assert np.linalg.norm(b - J @ x) <= GMRES_RTOL * np.linalg.norm(b)
        exact = np.linalg.solve(J, b)
        bound = np.linalg.cond(J) * GMRES_RTOL * np.linalg.norm(exact)
        assert np.linalg.norm(x - exact) <= bound

    def test_newton_solve_holds_few_interior_arrays(self):
        # the traced peak of a 257 x 257 solve, in interior-sized arrays:
        # a full-size Krylov basis and whole-field FFT temporaries took
        # 141, a basis first sized for 8 iterations 32.5, stored
        # eigenvalues, a new array per sine transform and the last Newton
        # correction held through the next solve 23.4, a whole-field
        # stencil, a stored Jacobian diagonal d and the whole boundary
        # array 20.5; it is 17.3
        g = Grid2D.from_bounds(-0.5, -0.5, 0.5, 0.5, 257, 257)
        prob = DirichletProblem(RectangleGeometry(g), LiouvilleParams(2.0, 1.0))
        tracemalloc.start()
        try:
            _, report = solve_dirichlet(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.converged
        assert peak <= 19.0 * (g.nx - 2) * (g.ny - 2) * 8

    def test_dst2_does_not_depend_on_blas_threads(self, fresh_python):
        # the largest dense sine products, and the FFT at 127 x 127, where
        # a dense product would be split across OpenBLAS's threads
        code = ("import numpy as np; "
                "from liouville.elliptic import _dst2, _sine_matrices; "
                "rng = np.random.default_rng(0); "
                "print([_dst2(x, _sine_matrices(*x.shape)).tobytes().hex() "
                "for x in (rng.standard_normal((64, 64)), "
                "rng.standard_normal((127, 127)))])")
        one, two = (fresh_python(code, OPENBLAS_NUM_THREADS=t)
                    for t in ("1", "2"))
        assert one == two

    def test_arnoldi_steps_apply_no_stencil(self, monkeypatch):
        # J P v comes from the preconditioner: the stencil runs once per
        # GMRES cycle, for the true residual, and the cycles are counted
        # by their least-squares solves
        g = Grid2D.from_bounds(0.0, 0.0, 1.0, 1.0, 33, 33)
        system = _make_system(RectangleGeometry(g), 0.0)
        u = continue_branch(RectangleGeometry(g), max_steps=3).points[-1].u
        counts = {"stencil": 0, "cycles": 0, "preconditioner": 0}

        def counted(name, fn):
            def call(*args):
                counts[name] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(system, "apply_A",
                            counted("stencil", system.apply_A))
        monkeypatch.setattr(system, "shifted_inverse",
                            counted("preconditioner", system.shifted_inverse))
        monkeypatch.setattr(np.linalg, "solve",
                            counted("cycles", np.linalg.solve))
        rng = np.random.default_rng(3)
        col, row = np.exp(u), rng.normal(size=system.m) / system.m
        system.solve(u, 3.0, 1.0, rng.normal(size=system.m),
                     (col, row, 0.5, 0.2))
        assert counts["preconditioner"] >= 3
        assert counts["stencil"] <= counts["cycles"] + 1

    def test_singular_jacobian_raises(self):
        # coef = mu1 at u = 0 makes J = A + mu1 I singular, with the
        # lowest sine mode as null vector; a right-hand side with a
        # component along it has no solution, so GMRES exhausts its budget
        system = self.system()
        g = self.GRID
        mu1 = sum(4.0 / h ** 2 * math.sin(0.5 * math.pi / (n - 1)) ** 2
                  for h, n in ((g.hx, g.nx), (g.hy, g.ny)))
        with pytest.raises(SingularJacobianError):
            system.solve(np.zeros(system.m), mu1, 1.0, np.ones(system.m))


def disk_jacobian(system, u, coef, a=1.0):
    return (np.diag(system.di + coef * a * np.exp(a * u))
            + np.diag(system.lo, -1) + np.diag(system.up, 1))


def rel_residual(J, x, rhs):
    return float(np.abs(J @ x - rhs).max() / np.abs(rhs).max())


class TestCyclicReduction:
    """The disk's tridiagonal solve against pivoted dense LU
    (numpy.linalg.solve) on the same Jacobian."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_dense_lu_on_small_systems(self, n):
        # m = n - 1 = 2, 3, 4 unknowns, at random states of both signs of
        # the exponential term
        system = _make_system(DiskGeometry(n), 0.0)
        rng = np.random.default_rng(n)
        for coef in (-3.0, 0.5, 2.0):
            u = rng.normal(0.0, 1.0, system.m)
            rhs = rng.normal(size=system.m)
            J = disk_jacobian(system, u, coef)
            x, _ = system.solve(u, coef, 1.0, rhs)
            dense = np.linalg.solve(J, rhs)
            assert np.abs(x - dense).max() <= 1e-12 * np.abs(dense).max()
            assert rel_residual(J, x, rhs) <= 10 * max(
                rel_residual(J, dense, rhs), np.finfo(float).eps)

    @pytest.mark.parametrize("n", [3, 4, 5, 65, 257])
    def test_residual_along_branch_within_10x_of_lu(self, n, monkeypatch):
        # every point of a branch traced past its fold, with the bordered
        # column -e^u and a fixed generic right-hand side; the trace keeps
        # the last three fields only, so each is caught as its point is made
        made = []

        def recorded(s, lam, u0, u):
            made.append((u, lam))
            return BranchPoint(s, lam, u0, u)

        monkeypatch.setattr(elliptic, "BranchPoint", recorded)
        geom = DiskGeometry(n)
        branch = continue_branch(geom)
        assert branch.fold is not None
        assert branch.points[-1].lam < branch.fold.lam0
        assert [lam for _, lam in made] == [pt.lam for pt in branch.points]
        system = _make_system(geom, 0.0)
        generic = np.random.default_rng(7).normal(size=system.m)
        worst_cr = worst_lu = 0.0
        for u, lam in made:
            J = disk_jacobian(system, u, lam)
            for rhs in (-np.exp(u), generic):
                x, _ = system.solve(u, lam, 1.0, rhs)
                worst_cr = max(worst_cr, rel_residual(J, x, rhs))
                worst_lu = max(worst_lu, rel_residual(
                    J, np.linalg.solve(J, rhs), rhs))
        assert worst_cr <= 10 * worst_lu

    @pytest.mark.parametrize("k", range(7))
    def test_singular_matrix_raises(self, k):
        # a zero row keeps every pivot it reaches at exactly zero, odd or
        # even position alike
        lo, di, up = np.ones(6), np.full(7, 4.0), np.ones(6)
        di[k] = 0.0
        lo[k - 1:k] = 0.0
        up[k:k + 1] = 0.0
        with pytest.raises(SingularJacobianError):
            _cyclic_reduction(lo, di, up)

    def test_singular_jacobian_raises(self):
        # a non-finite state gives non-finite pivots; an overflowing
        # right-hand side a non-finite solution
        system = _make_system(DiskGeometry(65), 0.0)
        u = np.zeros(system.m)
        u[5] = np.nan
        with pytest.raises(SingularJacobianError):
            system.solve(u, 1.0, 1.0, np.zeros(system.m))
        with pytest.raises(SingularJacobianError):
            system.solve(np.zeros(system.m), 1.0, 1.0,
                         np.full(system.m, 1e308))


BORDER_GEOMETRIES = [
    RectangleGeometry(Grid2D.from_bounds(-0.4, -0.3, 0.4, 0.5, 17, 25)),
    DiskGeometry(65)]


class TestBorderedSolve:
    """The bordered solve [J, col; row, corner] [x; y] = [f; n] against a
    dense solve, with the continuation's border (e^u, tu/m, tl) and the
    fold's (c, W c, 0)."""

    @staticmethod
    def check(geometry, border):
        system = _make_system(geometry, 0.0)
        start = continue_branch(geometry, max_steps=4).points
        tu, tl = secant(start[-2], start[-1])
        u, lam = start[-1].u, start[-1].lam
        col, row, corner = border(system, u, tu, tl)
        B = np.block([[dense_jacobian(system, u, lam), col[:, None]],
                      [row[None, :], np.array([[corner]])]])
        rng = np.random.default_rng(11)
        f, n = rng.normal(size=system.m), 0.3
        dense = np.linalg.solve(B, np.append(f, n))
        x, y = system.solve(u, lam, 1.0, f, (col, row, corner, n))
        got = np.append(x, y)
        # GMRES stops at a relative residual of 1e-8
        assert np.abs(got - dense).max() <= 1e-7 * np.abs(dense).max()
        assert abs(float(row @ x) + corner * y - n) <= 1e-7

    @pytest.mark.parametrize("geometry", BORDER_GEOMETRIES,
                             ids=["rectangle", "disk"])
    def test_matches_dense_bordered_solve(self, geometry):
        self.check(geometry,
                   lambda system, u, tu, tl: (np.exp(u), tu / system.m, tl))

    @pytest.mark.parametrize("geometry", BORDER_GEOMETRIES,
                             ids=["rectangle", "disk"])
    def test_matches_dense_fold_border(self, geometry):
        def fold(system, u, tu, tl):
            c = tu / _norm(tu, 0.0)
            return c, system.weights * c, 0.0
        self.check(geometry, fold)

    def test_disk_solves_with_singular_jacobian(self):
        # n = 3: J = [[-16 + 8 e^u0, 16], [2, -8 + 8 e^u1]] is exactly
        # singular at lam = 8, u = (0, -ln 2), with null vector (2, 1)
        system = _make_system(DiskGeometry(3), 0.0)
        u, lam = np.array([0.0, -math.log(2.0)]), 8.0
        J = disk_jacobian(system, u, lam)
        assert J[0, 0] * J[1, 1] == J[0, 1] * J[1, 0]
        col, row, corner = np.exp(u), np.array([0.3, -0.7]), 0.2
        B = np.block([[J, col[:, None]], [row[None, :], np.array([[corner]])]])
        f, n = np.array([1.0, -2.0]), 0.5
        dense = np.linalg.solve(B, np.append(f, n))
        x, y = system.solve(u, lam, 1.0, f, (col, row, corner, n))
        assert np.abs(np.append(x, y) - dense).max() <= 1e-14 * np.abs(dense).max()

    @pytest.mark.parametrize("geometry", [
        DiskGeometry(3), DiskGeometry(4), DiskGeometry(65),
        RectangleGeometry(Grid2D.from_bounds(-0.4, -0.3, 0.4, 0.5, 9, 13))],
        ids=["disk3", "disk4", "disk65", "rectangle"])
    def test_weighted_laplacian_is_symmetric(self, geometry):
        # the fold's gradient formula rests on W A = (W A)^T
        system = _make_system(geometry, 0.0)
        WA = np.reshape(system.weights, (-1, 1)) * dense_jacobian(
            system, np.zeros(system.m), 0.0)
        assert np.abs(WA - WA.T).max() <= 1e-14 * np.abs(WA).max()

    @pytest.mark.parametrize("geometry", BORDER_GEOMETRIES,
                             ids=["rectangle", "disk"])
    def test_fold_gradient_matches_differences(self, geometry):
        # central differences of sigma near the fold, along a random u
        # direction and along lambda
        system = _make_system(geometry, 0.0)
        points = continue_branch(geometry, u0_cap=1.0).points
        fold_at = max(range(len(points)), key=lambda i: points[i].lam)
        u, lam = points[fold_at].u, points[fold_at].lam
        c = points[fold_at + 1].u - points[fold_at - 1].u
        sigma = _fold_border(system, c / _norm(c, 0.0))
        _, row, corner = sigma(u, lam)
        du = np.random.default_rng(2).normal(size=system.m)
        t = 1e-4
        fd_u = (sigma(u + t * du, lam)[0] - sigma(u - t * du, lam)[0]) / (2 * t)
        fd_lam = (sigma(u, lam + t)[0] - sigma(u, lam - t)[0]) / (2 * t)
        assert abs(fd_u - float(row @ du)) <= 1e-5 * abs(fd_u)
        assert abs(fd_lam - corner) <= 1e-5 * abs(fd_lam)


class TestFold:
    """The fold solved as (F, sigma) = 0 by the corrector's Newton loop,
    with the default flags."""

    @pytest.mark.parametrize("nx, ny, y1, neighbours", [
        (3, 3, 1.0, 0), (4, 4, 1.0, 1), (3, 3, 0.6, 0)],
        ids=["3x3", "4x4", "3x3-hx-ne-hy"])
    def test_exact_on_tiny_grids(self, nx, ny, y1, neighbours):
        # the branch is constant, u = U, over the interior, and A U =
        # -kappa U with kappa = (2 - neighbours) (1/hx^2 + 1/hy^2), each
        # node having that many interior neighbours per axis; the fold
        # of -kappa U + lambda e^U = 0 is U = 1, lambda = kappa / e
        g = Grid2D.from_bounds(0.0, 0.0, 1.0, y1, nx, ny)
        kappa = (2 - neighbours) * (1 / g.hx ** 2 + 1 / g.hy ** 2)
        branch = continue_branch(RectangleGeometry(g))
        fold = branch.fold
        assert abs(fold.lam0 - kappa / math.e) <= 1e-13 * kappa / math.e
        assert abs(fold.u0 - 1.0) <= 1e-13
        pts = branch.points
        assert pts[fold.index].u0 <= fold.u0 <= pts[fold.index + 1].u0

    @pytest.mark.parametrize("ds", [0.01, 0.045, 0.05, 0.1])
    def test_small_disks_pass_the_fold(self, ds):
        # the fold solve drives J to singularity, which the disk's
        # bordered solve must survive
        for n in range(3, 13):
            branch = continue_branch(DiskGeometry(n), ds=ds)
            assert branch.fold is not None and not branch.aborted
            assert branch.points[-1].lam < branch.fold.lam0 < 2.0

    def test_rectangle_fold_at_97(self):
        # the fold's border (row ~1e-6, corner ~1e-4) is tiny next to
        # J ~ 4/h^2; the discrete folds of the unit square rise towards
        # the continuum one, about 6.80812, as h^2
        g = Grid2D.from_bounds(0.0, 0.0, 1.0, 1.0, 97, 97)
        branch = continue_branch(RectangleGeometry(g), u0_cap=1.5)
        fold, pts = branch.fold, branch.points
        assert fold is not None and not branch.aborted
        assert 6.8079 < fold.lam0 < 6.8081
        assert pts[fold.index].u0 <= fold.u0 <= pts[fold.index + 1].u0

    def test_square_fold_extrapolates_to_the_continuum(self):
        # the folds at 17^2, 33^2 and 65^2, Romberg-extrapolated in h^2
        # and then h^4, against the unit-square Bratu fold 6.80812442
        # (Boyd 1986 gives about 6.80812)
        folds = []
        for n in (17, 33, 65):
            g = Grid2D.from_bounds(0.0, 0.0, 1.0, 1.0, n, n)
            branch = continue_branch(RectangleGeometry(g), u0_cap=1.5)
            assert branch.fold is not None and not branch.aborted
            folds.append(branch.fold.lam0)
        h2 = [(4.0 * fine - coarse) / 3.0
              for coarse, fine in zip(folds, folds[1:])]
        assert abs((16.0 * h2[1] - h2[0]) / 15.0 - 6.80812442) <= 1e-7

    def test_disk_fold_has_a_clean_h4_term(self, branch257):
        # lambda0_h = 2 - (7/9) h^2 + C h^4: the h^4 coefficient read at
        # three meshes must agree, which a fold error above ~1e-11 at
        # n = 257 would spoil
        coefs = []
        for n in (65, 129, 257):
            branch = branch257 if n == 257 else continue_branch(DiskGeometry(n))
            h = 1.0 / (n - 1)
            coefs.append(((2.0 - branch.fold.lam0) / h ** 2 - 7 / 9) / h ** 2)
        assert max(coefs) - min(coefs) <= 0.01

    def test_solves_just_below_the_fold_at_n1025(self):
        geom = DiskGeometry(1025)
        branch = continue_branch(geom)
        lam = branch.fold.lam0 - 1e-9
        for side in (lower_side, upper_side):
            _, report = side(geom, lam)
            assert report.converged


def quadratic_points(s_nodes, m=5):
    rng = np.random.default_rng(5)
    a, b, c = rng.normal(size=(3, m))

    def at(s):
        return a + b * s + c * s * s, 1.0 + 2.0 * s - s * s

    def d_at(s):
        return b + 2.0 * c * s, 2.0 - 2.0 * s

    pts = [BranchPoint(s, at(s)[1], 0.0, at(s)[0]) for s in s_nodes]
    return pts, at, d_at


class TestPredictor:
    def test_reproduces_a_quadratic_branch(self):
        pts, at, d_at = quadratic_points([0.0, 0.1, 0.3, 0.7])
        u, lam, tu, tl = _predict(pts, 0.25)
        u_exact, lam_exact = at(0.95)
        du, dl = d_at(0.95)
        nrm = _norm(du, dl)
        assert np.abs(u - u_exact).max() <= 1e-13 * np.abs(u_exact).max()
        assert abs(lam - lam_exact) <= 1e-13
        assert np.abs(tu - du / nrm).max() <= 1e-13
        assert abs(tl - dl / nrm) <= 1e-13

    def test_two_points_give_the_secant(self):
        pts, _, _ = quadratic_points([0.0, 1.0])
        p, q = pts
        q.s = _norm(q.u - p.u, q.lam - p.lam)
        tu, tl = secant(p, q)
        got = _predict([p, q], 0.05)
        want = (q.u + 0.05 * tu, q.lam + 0.05 * tl, tu, tl)
        for g, w in zip(got, want):
            assert np.allclose(g, w, rtol=1e-14, atol=1e-15)

    def test_rectangle_branch_krylov_count(self, monkeypatch):
        # the secant predictor needed 428 GMRES solves on this branch
        calls = []
        gmres = elliptic._gmres

        def counted(*args):
            calls.append(1)
            return gmres(*args)

        monkeypatch.setattr(elliptic, "_gmres", counted)
        g = Grid2D.from_bounds(0.0, 0.0, 1.0, 1.0, 33, 33)
        branch = continue_branch(RectangleGeometry(g))
        assert branch.fold is not None
        assert len(calls) < 400


class TestJacobian:
    coef, a = 1.3, 0.7

    def check(self, system, rng):
        u = rng.normal(0.0, 0.5, system.m)
        worst = 0.0
        for _ in range(10):
            v = rng.normal(size=system.m)
            t = 1e-6
            fd = (system.residual(u + t * v, self.coef, self.a)[0]
                  - system.residual(u - t * v, self.coef, self.a)[0]) / (2 * t)
            jv = system.jacobian_matvec(u, self.coef, self.a, v)
            worst = max(worst, float(np.abs(fd - jv).max()
                                     / max(np.abs(jv).max(), 1.0)))
        return worst

    def test_rectangle_matvec_matches_differences(self):
        system = _make_system(rect(21), 0.0)
        assert self.check(system, np.random.default_rng(3)) <= 1e-6

    def test_disk_matvec_matches_differences(self):
        system = _make_system(DiskGeometry(101), 0.0)
        assert self.check(system, np.random.default_rng(4)) <= 1e-6


class TestContinuation:
    def test_starts_from_trivial_solution(self, branch257):
        first = branch257.points[0]
        assert first.lam == 0.0
        assert first.u0 == 0.0
        # a long trace keeps no field this old; a two-point one does
        first = continue_branch(DiskGeometry(257), max_steps=2).points[0]
        assert np.all(first.u == 0.0)

    def test_fold_location(self, branch257):
        fold = branch257.fold
        assert fold is not None
        assert abs(fold.lam0 - 2.0) <= 5e-5
        assert abs(fold.u0 - LN4) <= 1e-4
        # the discrete fold lies below the continuum one
        assert fold.lam0 < 2.0

    def test_inner_product_does_not_depend_on_blas_threads(self,
                                                           fresh_python):
        # OpenBLAS splits ddot across its threads above 10,000 entries,
        # which changes the summation order and so the rounding; the
        # lambda terms are zero so that adding them rounds nothing away
        code = ("import numpy as np; from liouville.elliptic import _dot; "
                "v = np.random.default_rng(0).standard_normal((2, 100_000)); "
                "print(_dot(v[0], 0.0, v[1], 0.0).hex())")
        one, two = (fresh_python(code, OPENBLAS_NUM_THREADS=t)
                    for t in ("1", "2"))
        assert one == two

    def test_not_aborted(self, branch257):
        assert not branch257.aborted
        s = [pt.s for pt in branch257.points]
        assert all(b > a for a, b in zip(s, s[1:]))

    def test_two_solutions_pair_up(self):
        # members at equal lambda have parameters b and 1/b, so the
        # product of their recovered b values must be 1
        geom = DiskGeometry(257)
        for lam in (0.8, 1.2):
            lo, _ = lower_side(geom, lam)
            up, _ = upper_side(geom, lam)
            b_lo = math.exp(lo.u0 / 2.0) - 1.0
            b_up = math.exp(up.u0 / 2.0) - 1.0
            assert b_lo < 1.0 < b_up
            assert abs(b_lo * b_up - 1.0) <= 1e-3

    def test_lower_branch_at_unit_lambda(self):
        prof, _ = lower_side(DiskGeometry(257), 1.0)
        assert abs(prof.u0 - math.log(8.0 * (3.0 - 2.0 * math.sqrt(2.0)))) <= 1e-4

    def test_short_trace_has_no_fold(self):
        short = continue_branch(DiskGeometry(65), max_steps=5)
        assert short.fold is None
        assert not short.aborted
        assert len(short.points) == 5

    def test_center_cap_truncates_upper_branch(self, branch257):
        capped = continue_branch(DiskGeometry(257), u0_cap=1.0)
        assert capped.fold is not None
        assert len(capped.points) < len(branch257.points)
        assert capped.points[-1].u0 < 2.0
        assert branch257.points[-1].u0 > 15.0

    def test_trace_holds_the_fields_of_three_points(self):
        # the traced peak, in interior-sized arrays, does not grow with
        # the trace: keeping every point's field, it was 118 to u0 = 1.5
        # and 137 to u0 = 3
        g = Grid2D.from_bounds(0.0, 0.0, 1.0, 1.0, 65, 65)
        peaks = []
        for cap in (1.5, 3.0):
            tracemalloc.start()
            try:
                branch = continue_branch(RectangleGeometry(g), u0_cap=cap)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert branch.fold is not None and not branch.aborted
            kept = [pt.u is not None for pt in branch.points]
            assert kept == [False] * (len(kept) - 3) + [True] * 3
            peaks.append(peak / ((g.nx - 2) * (g.ny - 2) * 8))
        assert max(peaks) <= 64
        assert max(peaks) <= 1.1 * min(peaks)

    @pytest.mark.parametrize("n, k", BRANCH_JUMPS,
                             ids=[f"n{n}-ds{DS_SWEEP[k]:.4g}"
                                  for n, k in BRANCH_JUMPS])
    def test_steps_stay_on_the_branch(self, n, k):
        branch = continue_branch(DiskGeometry(n), ds=DS_SWEEP[k])
        pts = branch.points
        assert branch.fold is not None and not branch.aborted
        assert pts[-1].lam > 0 and pts[-1].u0 > 15.0
        # a point's s is its predecessor's plus the chord between them
        assert max(q.s - p.s for p, q in zip(pts, pts[1:])) <= 0.5

    def test_parameter_validation(self):
        with pytest.raises(EllipticError):
            continue_branch(DiskGeometry(65), lam_start=-0.5)
        with pytest.raises(EllipticError):
            continue_branch(DiskGeometry(65), ds=0.5)
        # the two starting points are always computed
        for max_steps in (-1, 0, 1):
            with pytest.raises(EllipticError):
                continue_branch(DiskGeometry(65), max_steps=max_steps)

    @pytest.mark.filterwarnings("error")
    def test_corrector_overflow_is_silent(self):
        # e^1000 overflows: a non-finite residual, reported, not warned
        system = _make_system(DiskGeometry(65), 0.0)
        u = np.full(system.m, 1000.0)

        def plane(u, lam):
            return 0.0, np.full(system.m, 1.0 / system.m), 0.0

        with pytest.raises(NonConvergenceError) as info:
            _newton(system, u, 1.0, 1.0, 1e-10, 12, border=plane)
        assert not np.isfinite(info.value.report.final_residual)

    def test_diverging_corrector_stops_after_two_solves(self):
        # four units of arclength past the start lies far off the branch:
        # the second correction is the longer, and no third is made
        geom = DiskGeometry(65)
        system = _make_system(geom, 0.0)
        u_pred, lam_pred, tu, tl = _predict(
            continue_branch(geom, max_steps=4).points, 4.0)
        solves, solve = [], system.solve

        def counted(*args):
            solves.append(args)
            return solve(*args)

        def plane(u, lam):
            return _dot(u - u_pred, lam - lam_pred, tu, tl), tu / system.m, tl

        system.solve = counted
        with pytest.raises(NonConvergenceError) as info:
            _newton(system, u_pred, lam_pred, 1.0, 1e-10, 12, border=plane)
        assert len(solves) == 2
        assert info.value.report.iterations == 1

    @pytest.mark.parametrize("geometry", [rect(33), DiskGeometry(1025)],
                             ids=["rectangle", "disk"])
    def test_every_corrector_solve_is_used(self, geometry):
        # a corrector that converges makes one bordered solve per
        # iteration, and none for the iterate it accepts
        system = _make_system(geometry, 0.0)
        start = continue_branch(geometry, max_steps=4).points
        tu, tl = secant(start[-2], start[-1])
        u_pred, lam_pred = start[-1].u + 0.05 * tu, start[-1].lam + 0.05 * tl
        solves, solve = [], system.solve

        def counted(*args):
            solves.append(args)
            return solve(*args)

        def plane(u, lam):
            return _dot(u - u_pred, lam - lam_pred, tu, tl), tu / system.m, tl

        system.solve = counted
        report = _newton(system, u_pred, lam_pred, 1.0, 1e-10, 12,
                         border=plane)[2]
        assert report.converged
        assert len(solves) == report.iterations > 0
        assert all(args[4] is not None for args in solves)

    @pytest.mark.parametrize("geometry", [rect(17), DiskGeometry(65)],
                             ids=["rectangle", "disk"])
    def test_corrector_failure_keeps_history(self, geometry):
        # only an exactly zero border residual N meets tol = 0, so the
        # loop runs until a correction at the rounding floor stops
        # contracting
        system = _make_system(geometry, 0.0)
        start = continue_branch(geometry, max_steps=4).points
        tu, tl = secant(start[-2], start[-1])
        u_pred, lam_pred = start[-1].u + 0.05 * tu, start[-1].lam + 0.05 * tl

        def plane(u, lam):
            return _dot(u - u_pred, lam - lam_pred, tu, tl), tu / system.m, tl

        with pytest.raises(NonConvergenceError) as info:
            _newton(system, u_pred, lam_pred, 1.0, 0.0, 12, border=plane)
        report = info.value.report
        assert not report.converged
        assert report.iterations < 12
        assert len(report.newton_history) == report.iterations + 1
        assert report.final_residual == report.newton_history[-1]
        # the Newton iterates did reach the rounding floor
        assert report.newton_history[0] > 1e-6
        assert max(report.newton_history[2:]) <= 1e-12


class TestBoundaryBlowupApprox:
    def test_profiles_increase_toward_limit(self):
        profs = boundary_blowup_approx(DiskGeometry(513), [5.0, 8.0, 11.0])
        for prev, cur in zip(profs, profs[1:]):
            assert np.all(cur.values > prev.values)
        gaps = [LN8 - p.u0 for p in profs]
        assert all(g > 0 for g in gaps)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_fine_mesh_reaches_rounding_floor(self):
        # n = 4097 puts the residual floor near 4e-8; every level must
        # still converge, and the gaps must shrink as M grows
        Ms = [5.2869, 8.2869, 11.2869]
        profs = boundary_blowup_approx(DiskGeometry(4097), Ms)
        assert [p.values[-1] for p in profs] == Ms
        gaps = [LN8 - p.u0 for p in profs]
        assert all(g > 0 for g in gaps)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_boundary_node_carries_data(self):
        (prof,) = boundary_blowup_approx(DiskGeometry(129), [3.0])
        assert prof.values[-1] == 3.0
        assert prof.u0 < 3.0

    @pytest.mark.parametrize("M", [2.0, 5.0, 8.0])
    def test_second_order_against_the_closed_form(self, M):
        # u_M(r) = ln(8b / (1 - b r^2)^2) with 8b / (1 - b)^2 = e^M is the
        # radial solution with u(1) = M; 1 - b and 1 - b r^2 are formed
        # without cancellation, so u_M stays accurate at large M
        one_minus_b = 16.0 / (8.0 + math.sqrt(64.0 + 32.0 * math.exp(M)))
        b = 1.0 - one_minus_b
        errs = []
        for n in (129, 257, 513, 1025):
            (prof,) = boundary_blowup_approx(DiskGeometry(n), [M])
            exact = (math.log(8.0 * b)
                     - 2.0 * np.log(one_minus_b + b * (1.0 - prof.r ** 2)))
            errs.append(float(np.abs(prof.values - exact).max()))
        for lo, hi in zip(errs, errs[1:]):
            assert 1.8 <= math.log2(lo / hi) <= 2.2

    @pytest.mark.parametrize("Ms", [[math.nan], [3.0, math.inf]])
    def test_rejects_non_finite_levels(self, Ms, monkeypatch):
        # a non-finite M is refused before any solve
        def solve(*args):
            raise AssertionError("solved before the levels were checked")

        monkeypatch.setattr(elliptic, "_newton", solve)
        with pytest.raises(EllipticError, match="M must be finite"):
            boundary_blowup_approx(DiskGeometry(65), Ms)

    @pytest.mark.parametrize("Ms", [[3.0, 4.5], [-1e17, 0.0],
                                    [-3.0, -0.5, 2.5]],
                             ids=["positive", "minus-1e17", "mixed"])
    def test_one_solve_per_level(self, Ms, monkeypatch):
        # each M is one Newton solve from the constant vector M, whatever
        # the M before it
        solved, newton = [], elliptic._newton

        def counted(system, u, *args):
            constant = bool(np.all(u == system.boundary))
            solved.append((system.boundary, constant))
            assert len(solved) <= len(Ms), "more solves than levels"
            return newton(system, u, *args)

        monkeypatch.setattr(elliptic, "_newton", counted)
        profs = boundary_blowup_approx(DiskGeometry(65), Ms)
        assert solved == [(M, True) for M in Ms]
        assert [p.values[-1] for p in profs] == Ms

    def test_rejects_non_increasing_levels(self):
        with pytest.raises(EllipticError):
            boundary_blowup_approx(DiskGeometry(65), [5.0, 5.0])
        with pytest.raises(EllipticError):
            boundary_blowup_approx(DiskGeometry(65), [8.0, 5.0])


class TestValidation:
    def test_geometry_bounds(self):
        with pytest.raises(EllipticError):
            DiskGeometry(2)
        assert DiskGeometry(MAX_RADIAL_NODES).n == MAX_RADIAL_NODES
        with pytest.raises(GridTooLargeError):
            DiskGeometry(MAX_RADIAL_NODES + 1)
        with pytest.raises(EllipticError):
            RectangleGeometry(Grid2D.from_bounds(0, 0, 1, 1, 2, 5))
        # 1/h^2 overflows: the stencil and its norm are not finite
        with pytest.raises(EllipticError, match="overflows"):
            RectangleGeometry(Grid2D.from_bounds(0, 0, 1e-170, 1e-170, 9, 9))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, 0.0])
    def test_rejects_non_finite_tolerances(self, value):
        # a NaN target is never met and an infinite one at once; one
        # <= 0 would silently mean the rounding floor
        disk = DiskGeometry(9)
        problem = DirichletProblem(disk, LiouvilleParams(-1.0, 1.0), 0.0)
        for call in (lambda: solve_dirichlet(problem, tol=value),
                     lambda: continue_branch(disk, tol=value),
                     lambda: continue_branch(disk, fold_tol=value)):
            with pytest.raises(EllipticError, match="must be finite"):
                call()

    @pytest.mark.parametrize("geometry", [rect(9), DiskGeometry(9)],
                             ids=["rectangle", "disk"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_constant_boundary(self, geometry, value):
        with pytest.raises(EllipticError) as err:
            DirichletProblem(geometry, LiouvilleParams(1.0, 1.0), value)
        assert type(err.value) is EllipticError
        assert err.value.code == "elliptic.error"
        assert "boundary value must be finite" in str(err.value)

    def test_disk_rejects_expression_boundary(self):
        with pytest.raises(EllipticError):
            DirichletProblem(DiskGeometry(65), LiouvilleParams(-1.0, 1.0),
                             parse("x", ("x", "y")))
