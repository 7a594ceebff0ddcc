"""Newton solver and continuation engine for the elliptic Liouville
equation.

Two geometries: 2D rectangles (matrix-free 5-point Laplacian, Newton
steps solved by restarted GMRES preconditioned with the exact sine-
transform inverse of a shifted Laplacian) and the unit disk reduced to a
radial profile (tridiagonal, solved directly by cyclic reduction, with
the regularity closure u'(0) = 0 at the center).  Both run on numpy
alone.  On an interior of at most _DENSE_SINE_MAX nodes along each axis
the sine transform is two BLAS products with the dense sine matrices,
faster there than the FFT and small enough that OpenBLAS runs them on
one thread; larger interiors go through the FFT.
Every solve runs one Newton loop, ``_newton``.  On top of the plain
Dirichlet solver sit a pseudo-arclength continuation of the Gelfand
branch Delta u + lambda e^u = 0, whose steps and fold run that loop on
bordered solves, and the boundary blow-up exhaustion u|_boundary = M.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Union

import numpy as np

from .errors import (
    EllipticError,
    GridTooLargeError,
    NonConvergenceError,
    SingularJacobianError,
)
from .fields import (MAX_NEWTON, MAX_NODES, NEWTON_TOL, Grid2D,
                     LiouvilleParams, ScalarField2D, laplacian, write_table)

if TYPE_CHECKING:
    from .expr import Expr

__all__ = [
    "RectangleGeometry",
    "DiskGeometry",
    "DirichletProblem",
    "SolveReport",
    "RadialProfile",
    "BranchPoint",
    "Fold",
    "Branch",
    "solve_dirichlet",
    "continue_branch",
    "solve_on_branch",
    "boundary_blowup_approx",
]

# relative 2-norm tolerance of each rectangle Newton step's GMRES solve
GMRES_RTOL = 1e-8
GMRES_RESTART, GMRES_CYCLES = 60, 10
DS_MIN, DS_MAX = 1e-4, 0.1
_THETA = 0.125  # the corrector contraction Theta_0 that ds aims at
# Interiors of at most this many nodes along either axis are sine-
# transformed by two products with the dense sine matrices, larger ones
# by the FFT.  A product is O(n^2) per line against O(n log n), but it is
# one BLAS call, several times faster than the FFT on such grids.  Each
# product then takes at most 64^3 = 2^18 multiply-adds, which OpenBLAS
# runs on one thread at any thread count (in its default build it splits
# a gemm above GEMM_MULTITHREAD_THRESHOLD * 65536 = 2^18), so its bits
# do not depend on OPENBLAS_NUM_THREADS.  A threaded product splits the
# output into tiles whose edges move with the thread count, and edge
# tiles round differently.
_DENSE_SINE_MAX = 64


@dataclass(frozen=True)
class RectangleGeometry:
    grid: Grid2D

    def __post_init__(self):
        g = self.grid
        if g.nx < 3 or g.ny < 3:
            raise EllipticError("rectangle geometry needs at least 3x3 nodes")
        # the stencil weights 1/h^2 and ||A|| = 4/hx^2 + 4/hy^2 must be finite
        if not min(g.hx, g.hy) ** 2 > 8.0 / np.finfo(float).max:
            raise EllipticError(f"1/h^2 overflows at hx={g.hx}, hy={g.hy}")


@dataclass(frozen=True)
class DiskGeometry:
    """Unit disk, radially symmetric: ``n`` nodes r_i = i/(n-1) on [0, 1]."""

    n: int

    def __post_init__(self):
        if self.n < 3:
            raise EllipticError("disk geometry needs at least 3 radial nodes")
        if self.n > MAX_NODES:
            raise GridTooLargeError(
                f"{self.n} radial nodes exceed the cap of {MAX_NODES}")

    @property
    def h(self) -> float:
        return 1.0 / (self.n - 1)

    def r(self) -> np.ndarray:
        return self.h * np.arange(self.n)


Geometry = Union[RectangleGeometry, DiskGeometry]


@dataclass(frozen=True)
class DirichletProblem:
    """Equation + domain + boundary data.  ``boundary`` is a constant or,
    on rectangles, an expression in (x, y) evaluated along the edge."""

    geometry: Geometry
    params: LiouvilleParams
    boundary: Union[Expr, float] = 0.0

    def __post_init__(self):
        if not isinstance(self.boundary, numbers.Real):
            if isinstance(self.geometry, DiskGeometry):
                raise EllipticError("disk boundary data must be a constant")
        elif not np.isfinite(self.boundary):
            raise EllipticError(f"boundary value must be finite, got {self.boundary}")


@dataclass
class SolveReport:
    """Newton post-mortem.  ``tolerance`` is the threshold the last
    residual was checked against, max(tol, rounding floor of F there);
    ``converged`` means ``final_residual <= tolerance`` at the result."""

    iterations: int
    final_residual: float
    converged: bool
    newton_history: list[float] = field(default_factory=list)
    tolerance: float = NEWTON_TOL


@dataclass
class RadialProfile:
    """Samples u(r_i) on the disk's radial grid, boundary node included."""

    r: np.ndarray
    values: np.ndarray

    @property
    def u0(self) -> float:
        return float(self.values[0])

    def write_csv(self, path) -> None:
        write_table(path, "r,u", zip(self.r.tolist(), self.values.tolist()))


# --- discrete systems ---------------------------------------------------
#
# Both geometries reduce to F(u) = A u + bc_vec + coef * e^(a u) = 0 on
# the unknown vector, with A the discrete Laplacian and bc_vec the
# Dirichlet data folded in: the Dirichlet problem Delta u = K e^(a u)
# uses (coef, a) = (-K, a), the Gelfand problem uses (lam, 1) with lam
# varying along the branch.


class _System:
    """F(u) above; subclasses apply ``A`` and set ``bc_vec``, ``m`` and
    ``norm_A`` = ||A|| in the max norm (the largest absolute row sum)."""

    def residual(self, u: np.ndarray, coef: float, a: float) -> np.ndarray:
        return self.apply_A(u) + self.bc_vec + coef * np.exp(a * u)

    def rounding_floor(self, u: np.ndarray, coef: float, a: float) -> float:
        """The max-norm rounding error of F(u): no residual gets below it."""
        return float(np.finfo(float).eps) * (
            self.norm_A * float(np.abs(u).max())
            + float(np.abs(self.bc_vec).max())
            + abs(coef) * float(np.exp(a * u).max()))

    def jacobian_matvec(self, u: np.ndarray, coef: float, a: float,
                        v: np.ndarray) -> np.ndarray:
        return self.apply_A(v) + coef * a * np.exp(a * u) * v


def _cyclic_reduction(lo: np.ndarray, di: np.ndarray, up: np.ndarray,
                      ) -> tuple[Callable[[np.ndarray], np.ndarray],
                                 Callable[[], np.ndarray]]:
    """Factor the tridiagonal matrix with sub-, main and super-diagonal
    ``lo``, ``di``, ``up`` by cyclic reduction (Buzbee, Golub & Nielson
    1970) and return its solve and the solve of e0 = (1, 0, ..., 0).

    Each level uses the odd-numbered rows to eliminate their unknowns
    from the even-numbered rows, which halves the system, until one
    unknown is left: about log2 n levels of a few whole-array operations
    each.  There is no pivoting; a zero or non-finite pivot, or a
    non-finite solution, raises SingularJacobianError."""
    a = np.concatenate(([0.0], lo))  # a[i] x[i-1] + b[i] x[i] + c[i] x[i+1]
    b = di
    c = np.append(up, 0.0)
    levels = []
    # zero, overflowing or NaN pivots are caught below, not warned about
    with np.errstate(all="ignore"):
        while b.size > 1:
            # ne even rows, no odd rows; odd row 2j+1 sits between even rows
            # 2j and 2j+2, the last one (n even) has no right neighbour
            ne, no = (b.size + 1) // 2, b.size // 2
            ao, bo, co = a[1::2], b[1::2], c[1::2]
            alpha = a[2::2] / bo[:ne - 1]
            gamma = c[0:2 * no:2] / bo
            levels.append((alpha, gamma, ao, bo, co))
            b = b[0::2].copy()
            b[1:] -= alpha * co[:ne - 1]
            b[:no] -= gamma * ao
            a, c = np.zeros(ne), np.zeros(ne)
            a[1:] = -alpha * ao[:ne - 1]
            c[:no] = -gamma * co
    pivots = np.concatenate([lv[3] for lv in levels] + [b])
    if not np.all(np.isfinite(pivots) & (pivots != 0.0)):
        raise SingularJacobianError(
            "zero or non-finite pivot in the tridiagonal solve")

    @np.errstate(all="ignore")
    def solve(rhs: np.ndarray) -> np.ndarray:
        d, kept = rhs, []
        for alpha, gamma, _, bo, _ in levels:
            do = d[1::2]
            kept.append(do)
            d = d[0::2].copy()
            d[1:] -= alpha * do[:alpha.size]
            d[:bo.size] -= gamma * do
        return back_substitute(d, kept)

    def first_column() -> np.ndarray:
        # the reduction subtracts multiples of odd rows, which are zero
        # in e0 at every level: it leaves e0 as it is
        return back_substitute(np.ones(1), [np.zeros(lv[3].size)
                                            for lv in levels])

    @np.errstate(all="ignore")
    def back_substitute(d: np.ndarray, kept: list) -> np.ndarray:
        x = d / b
        for (alpha, _, ao, bo, co), do in zip(reversed(levels), reversed(kept)):
            # the odd unknowns from their solved even neighbours
            xo = do - ao * x[:bo.size]
            xo[:alpha.size] -= co[:alpha.size] * x[1:]
            xo /= bo
            x, x_even = np.empty(x.size + xo.size), x
            x[0::2], x[1::2] = x_even, xo
        if not np.all(np.isfinite(x)):
            raise SingularJacobianError(
                "non-finite solution of the tridiagonal system")
        return x

    return solve, first_column


class _RadialSystem(_System):
    """Tridiagonal discretization of Delta u = u'' + u'/r on [0, 1].

    Unknowns u_0 .. u_{n-2}; u_{n-1} is the boundary value.  The center
    row uses the regularity closure Delta u(0) = 2 u''(0), discretized as
    4 (u_1 - u_0) / h^2 (u'(0) = 0 folds the ghost node onto u_1).
    """

    def __init__(self, geom: DiskGeometry, boundary: float):
        h = geom.h
        m = geom.n - 1
        r = geom.r()[1:m]
        # the sub-, main and super-diagonal of A
        self.lo = 1.0 / h ** 2 - 1.0 / (2 * r * h)
        self.di = np.full(m, -2.0 / h ** 2)
        self.di[0] = -4.0 / h ** 2
        self.up = np.append(4.0 / h ** 2, 1.0 / h ** 2 + 1.0 / (2 * r[:-1] * h))
        self.bc_vec = np.zeros(m)
        self.bc_vec[-1] = (1.0 / h ** 2 + 1.0 / (2 * r[-1] * h)) * boundary
        self.norm_A = 8.0 / h ** 2  # the center row
        # the diagonal W that makes W A symmetric: r_i, and h/8 at the center
        self.weights = np.append(h / 8, r)
        self.boundary = boundary
        self.geom = geom
        self.m = m

    def apply_A(self, v: np.ndarray) -> np.ndarray:
        Av = self.di * v
        Av[1:] += self.lo * v[:-1]
        Av[:-1] += self.up * v[1:]
        return Av

    def jacobian_solver(self, u: np.ndarray, coef: float, a: float,
                        ) -> Callable[[np.ndarray], np.ndarray]:
        """J = A + diag(coef a e^(a u)), factored once by cyclic
        reduction; every solve reuses the factors."""
        return _cyclic_reduction(self.lo, self.di + coef * a * np.exp(a * u),
                                 self.up)[0]

    def bordered_solver(self, u: np.ndarray, lam: float, col: np.ndarray,
                        row: np.ndarray, corner: float) -> Callable:
        """(f, n) -> (x, y) solving [J, col; row, corner] [x; y] = [f; n]
        with J the Gelfand Jacobian at (u, lam), which may be singular:
        the fold solve drives it there.  The factored matrix is
        K = J + alpha e0 e0^T with alpha = di[0] = -4/h^2.  W K is
        symmetric, and K is negative definite wherever J's top eigenvalue
        is <= 0, because a null vector v of a tridiagonal J has v_0 != 0.
        With x = K^-1 f + alpha x_0 K^-1 e0 - y K^-1 col, the unknowns
        (x_0, y) solve a 2x2 system: one factorisation, two solves and
        the back-substitution of K^-1 e0."""
        alpha = float(self.di[0])
        d = self.di + lam * np.exp(u)
        d[0] += alpha
        solve, first_column = _cyclic_reduction(self.lo, d, self.up)
        e, b = first_column(), solve(col)
        m00, m01 = 1.0 - alpha * float(e[0]), float(b[0])
        m10 = alpha * float(np.einsum("i,i", row, e))
        m11 = corner - float(np.einsum("i,i", row, b))
        det = m00 * m11 - m01 * m10
        if det == 0.0 or not np.isfinite(det):
            raise SingularJacobianError("degenerate bordered system")

        def bordered(f: np.ndarray, n: float) -> tuple[np.ndarray, float]:
            a = solve(f)
            a0, r = float(a[0]), n - float(np.einsum("i,i", row, a))
            x0, y = (m11 * a0 - m01 * r) / det, (m00 * r - m10 * a0) / det
            return a + (alpha * x0) * e - y * b, y

        return bordered

    def initial_guess(self) -> np.ndarray:
        # harmonic extension of constant data is the constant itself
        return np.full(self.m, float(self.boundary))

    def center_value(self, u: np.ndarray) -> float:
        return float(u[0])

    def pack(self, u: np.ndarray) -> RadialProfile:
        full = np.concatenate([u, [self.boundary]])
        return RadialProfile(self.geom.r(), full)


def _sine_matrices(nyi: int, nxi: int) -> Optional[tuple]:
    """The DST-I matrices S[k, i] = 2 sin(pi (i+1)(k+1)/(n+1)) of the
    two axes of an (nyi, nxi) interior, or None (the FFT) when either
    axis is longer than _DENSE_SINE_MAX.  The integer (i+1)(k+1) is
    reduced modulo the period 2(n+1) first, so that every sine is taken
    of an angle below 2 pi."""
    if max(nyi, nxi) > _DENSE_SINE_MAX:
        return None

    def sine(n):
        k = np.arange(1, n + 1)
        return 2.0 * np.sin(np.pi / (n + 1) * (np.outer(k, k) % (2 * n + 2)))

    return sine(nyi), sine(nxi)


def _dst2(x: np.ndarray, sines: Optional[tuple]) -> np.ndarray:
    """Unnormalized 2-D DST-I of the (ny, nx) array ``x``,
    y_kl = 4 sum_ij x_ij sin(pi (i+1)(k+1)/(ny+1)) sin(pi (j+1)(l+1)/(nx+1)).
    With the symmetric ``sines`` (sy, sx) of ``_sine_matrices`` it is
    sy @ x @ sx.  Without, it goes one axis at a time: the sine transform
    of a line is -Im of the real FFT of its odd extension
    [0, x, 0, -x[::-1]].  The two minus signs cancel, so neither is
    applied."""
    if sines is not None:
        sy, sx = sines
        return sy @ x @ sx
    ny, nx = x.shape
    z = np.zeros((2 * ny + 2, nx))
    z[1:ny + 1] = x
    np.negative(x[::-1], out=z[ny + 2:])
    x = np.fft.rfft(z, axis=0).imag[1:ny + 1]
    z = np.zeros((ny, 2 * nx + 2))
    z[:, 1:nx + 1] = x
    np.negative(x[:, ::-1], out=z[:, nx + 2:])
    return np.fft.rfft(z, axis=1).imag[:, 1:nx + 1]


def _l2(v: np.ndarray) -> float:
    """2-norm, computed without BLAS (see ``_gmres``)."""
    return float(np.sqrt(np.einsum("i,i", v, v)))


def _gmres(matvec: Callable[[np.ndarray], np.ndarray],
           psolve: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
           b: np.ndarray) -> np.ndarray:
    """Restarted GMRES (Saad & Schultz 1986) from x = 0, right-
    preconditioned, Arnoldi by classical Gram-Schmidt applied twice, the
    least-squares problem kept triangular by Givens rotations.  Returns x
    once ||b - J x||_2 <= GMRES_RTOL ||b||_2; raises
    SingularJacobianError when GMRES_CYCLES cycles of GMRES_RESTART
    iterations do not get there.

    ``psolve(v)`` returns the pair (P v, J P v), so that an Arnoldi step
    applies no ``matvec``; ``matvec`` (J) gives the true residual
    b - J x at the end of each cycle, which is what the stopping test
    reads.

    Products and norms go through einsum, not BLAS.  The package loads
    OpenBLAS with one thread unless the caller sets OPENBLAS_NUM_THREADS
    (see ``liouville/__init__.py``).  With more, OpenBLAS would hand each
    long product to workers that fell asleep between calls, at
    milliseconds a wake-up, and its split sums would round differently;
    einsum gives the same bits at any thread count.  The sine
    transforms of small grids inside ``psolve`` are BLAS matrix
    products (``_dst2``), each of at most 2^18 multiply-adds, which
    OpenBLAS runs on one thread at any thread count (see
    _DENSE_SINE_MAX), so their bits do not depend on it either."""
    tol = GMRES_RTOL * _l2(b)
    x = np.zeros_like(b)
    r = b
    k = GMRES_RESTART
    for _ in range(GMRES_CYCLES):
        beta = _l2(r)
        if beta <= tol:
            return x
        V = np.empty((k + 1, b.size))
        Z = np.empty((k, b.size))
        R = np.zeros((k, k))
        cs, sn = np.zeros(k), np.zeros(k)
        g = np.zeros(k + 1)
        g[0] = beta
        V[0] = r / beta
        for j in range(k):
            Z[j], w = psolve(V[j])
            h = np.einsum("ij,j->i", V[:j + 1], w)
            w -= np.einsum("i,ij->j", h, V[:j + 1])
            h2 = np.einsum("ij,j->i", V[:j + 1], w)
            w -= np.einsum("i,ij->j", h2, V[:j + 1])
            hn = _l2(w)
            if hn:
                V[j + 1] = w / hn
            col = h + h2
            for i in range(j):
                col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                      cs[i] * col[i + 1] - sn[i] * col[i])
            rho = float(np.hypot(col[j], hn))
            cs[j], sn[j] = (col[j] / rho, hn / rho) if rho else (1.0, 0.0)
            col[j] = rho
            R[:j + 1, j] = col
            g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
            if abs(g[j + 1]) <= tol or not hn:
                break
        try:
            y = np.linalg.solve(R[:j + 1, :j + 1], g[:j + 1])
        except np.linalg.LinAlgError:
            break
        x = x + np.einsum("i,ij->j", y, Z[:j + 1])
        r = b - matvec(x)
    if _l2(r) <= tol:
        return x
    raise SingularJacobianError(
        f"GMRES did not converge in {GMRES_CYCLES} cycles of "
        f"{GMRES_RESTART} iterations")


class _RectSystem(_System):
    """5-point Laplacian on the interior nodes of a rectangle grid,
    row-major unknown ordering, Dirichlet ring folded into a constant
    vector.  A is never assembled: it is the stencil applied to the
    ``(nyi, nxi)`` interior array padded with zeros, and the sine
    transform (DST-I) diagonalizes it exactly."""

    def __init__(self, geom: RectangleGeometry, boundary: Union[Expr, float]):
        g = geom.grid
        nxi, nyi = g.nx - 2, g.ny - 2
        self.bv = self._boundary_values(g, boundary)
        # A applied to the ring data alone: the interior of bv is zero
        self.bc_vec = laplacian(self.bv, g.hx, g.hy).ravel()
        self._padded = np.zeros((g.ny, g.nx))
        # eigenvalues of A on the DST-I modes; mu1 = -eig[0, 0] > 0 is
        # the magnitude of the one closest to zero
        sx = np.sin(0.5 * np.pi * np.arange(1, nxi + 1) / (nxi + 1)) ** 2
        sy = np.sin(0.5 * np.pi * np.arange(1, nyi + 1) / (nyi + 1)) ** 2
        self.eig = -4.0 * (sy[:, None] / g.hy ** 2 + sx[None, :] / g.hx ** 2)
        self.mu1 = float(-self.eig[0, 0])
        self.norm_A = 4.0 / g.hx ** 2 + 4.0 / g.hy ** 2
        self.weights = 1.0  # A is symmetric
        self.geom = geom
        self.m = nxi * nyi
        self.nxi, self.nyi = nxi, nyi
        self._sines = _sine_matrices(nyi, nxi)

    @staticmethod
    def _boundary_values(g: Grid2D, boundary: Union[Expr, float]) -> np.ndarray:
        """Full (ny, nx) array holding the Dirichlet data on its ring,
        zeros inside."""
        if not isinstance(boundary, numbers.Real):
            from .expr import eval_dual
            X, Y = g.meshgrid()
            at = {v: c for v, c in zip(boundary.vars, (X, Y))}
            bv = np.array(np.broadcast_to(
                eval_dual(boundary, at, boundary.vars[0]).value, (g.ny, g.nx)))
        else:
            bv = np.full((g.ny, g.nx), float(boundary))
        ring = np.concatenate([bv[0], bv[-1], bv[:, 0], bv[:, -1]])
        if not np.all(np.isfinite(ring)):
            raise EllipticError("boundary data is not finite on the edge")
        bv[1:-1, 1:-1] = 0.0
        return bv

    def apply_A(self, v: np.ndarray) -> np.ndarray:
        g = self.geom.grid
        self._padded[1:-1, 1:-1] = v.reshape(self.nyi, self.nxi)
        return laplacian(self._padded, g.hx, g.hy).ravel()

    def shifted_inverse(self, r: np.ndarray, c: float) -> np.ndarray:
        """(A + c I)^-1 r, exact, by two sine transforms (DST-I applied
        twice is 4 (nxi+1)(nyi+1) times the identity)."""
        rhat = _dst2(r.reshape(self.nyi, self.nxi), self._sines)
        rhat /= self.eig + c
        return _dst2(rhat, self._sines).ravel() / (
            4.0 * (self.nxi + 1) * (self.nyi + 1))

    def _jacobian(self, u: np.ndarray, coef: float, a: float) -> tuple:
        """The product with J = A + diag(d), d = coef a e^(a u), and the
        preconditioner v -> (P v, J P v) with P = (A + c I)^-1, c the mean
        of d clipped at mu1/2 so that A + c I stays negative definite.
        J P v = v + (d - c) P v needs no stencil."""
        d = coef * a * np.exp(a * u)
        c = min(float(d.mean()), 0.5 * self.mu1)
        dc = d - c

        def psolve(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            z = self.shifted_inverse(v, c)
            return z, v + dc * z

        return lambda v: self.apply_A(v) + d * v, psolve

    def jacobian_solver(self, u: np.ndarray, coef: float, a: float,
                        ) -> Callable[[np.ndarray], np.ndarray]:
        """GMRES on J, preconditioned as in ``_jacobian``."""
        return functools.partial(_gmres, *self._jacobian(u, coef, a))

    def bordered_solver(self, u: np.ndarray, lam: float, col: np.ndarray,
                        row: np.ndarray, corner: float) -> Callable:
        """(f, n) -> (x, y) solving [J, col; row, corner] [x; y] = [f; n]
        with J the Gelfand Jacobian at (u, lam): one GMRES on the
        (m+1)-vector, right-preconditioned by blockdiag((A + c I)^-1, 1)."""
        jv, psolve = self._jacobian(u, lam, 1.0)

        def border(jx: np.ndarray, x: np.ndarray, y: float) -> np.ndarray:
            out = np.empty(x.size + 1)
            np.add(jx, y * col, out=out[:-1])
            out[-1] = np.einsum("i,i", row, x) + corner * y
            return out

        def matvec(v: np.ndarray) -> np.ndarray:
            return border(jv(v[:-1]), v[:-1], v[-1])

        def bpsolve(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            z, jz = psolve(v[:-1])
            return np.append(z, v[-1]), border(jz, z, v[-1])

        def bordered(f: np.ndarray, n: float) -> tuple[np.ndarray, float]:
            x = _gmres(matvec, bpsolve, np.append(f, n))
            return x[:-1], float(x[-1])

        return bordered

    def initial_guess(self) -> np.ndarray:
        if not np.any(self.bc_vec):
            return np.zeros(self.m)
        # discrete harmonic extension: A u = -bc_vec
        return self.shifted_inverse(-self.bc_vec, 0.0)

    def center_value(self, u: np.ndarray) -> float:
        """Value at the domain center (mean of the nearest nodes when the
        center falls between them)."""
        full = self.pack(u).values
        ic, jc = (self.geom.grid.nx - 1) / 2, (self.geom.grid.ny - 1) / 2
        i0, i1 = int(np.floor(ic)), int(np.ceil(ic))
        j0, j1 = int(np.floor(jc)), int(np.ceil(jc))
        return float(0.25 * (full[j0, i0] + full[j0, i1]
                             + full[j1, i0] + full[j1, i1]))

    def pack(self, u: np.ndarray) -> ScalarField2D:
        full = self.bv.copy()
        full[1:-1, 1:-1] = u.reshape(self.nyi, self.nxi)
        return ScalarField2D(self.geom.grid, full)


def _make_system(geometry: Geometry, boundary: Union[Expr, float]):
    if isinstance(geometry, DiskGeometry):
        return _RadialSystem(geometry, float(boundary))
    if isinstance(geometry, RectangleGeometry):
        return _RectSystem(geometry, boundary)
    raise EllipticError(f"unsupported geometry {type(geometry).__name__}")


def _require_finite(tols: dict, **values) -> None:
    """Reject non-finite values and tolerances not > 0 before any solve:
    a NaN target is never met, an infinite one is met at once, and one
    <= 0 would silently mean the rounding floor."""
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise EllipticError(f"{name} must be finite, got {value}")
    for name, tol in tols.items():
        if not (np.isfinite(tol) and tol > 0):
            raise EllipticError(f"{name} must be finite and > 0, got {tol}")


# Newton corrections (du, dlam) are measured in one inner product.  It
# gives the u block weight 1/u.size so that grid refinement does not
# change the meaning of a correction or of an arclength step.  It is an
# einsum, like ``_l2``, so its bits do not depend on the BLAS thread count.


def _dot(du1, dl1, du2, dl2) -> float:
    return float(np.einsum("i,i", du1, du2)) / du1.size + dl1 * dl2


def _norm(du, dl) -> float:
    return float(np.sqrt(_dot(du, dl, du, dl)))


def _newton(system, u: np.ndarray, coef: float, a: float,
            tol: float = NEWTON_TOL, max_iter: int = MAX_NEWTON,
            border: Optional[Callable] = None) -> tuple:
    """Newton on F(u) = 0 from ``u`` or, with a ``border``, on (F, N) = 0
    in (u, coef = lambda), a = 1: ``border(u, lam)`` returns N and its
    gradient (row, corner), and each step is one solve of J bordered by
    e^u = dF/dlam and that row, scaled to unit max(|row|, |corner|) so
    that a tiny fold gradient does not stall the Krylov solve.  Stops at
    the first evaluated |F| <= max(tol, ``rounding_floor``) with |N| <=
    tol; fails at a non-finite residual or floor, after ``max_iter``
    steps, or at the first step no shorter than the one before
    (Deuflhard 2004, ch. 3 and 5).  Returns (u, coef, report, Theta_0
    = |dx_1|/|dx_0|, or 0); the report's residuals are max(|F|, |N|),
    its tolerance the threshold checked last."""
    history, steps, theta0, checked = [], [], 0.0, tol
    for it in itertools.count():
        # an overflowing e^(a u) is a non-finite residual, handled below
        with np.errstate(over="ignore", invalid="ignore"):
            F = system.residual(u, coef, a)
            floor = system.rounding_floor(u, coef, a)
        nrm = float(np.abs(F).max())
        if not np.isfinite(nrm + floor):
            history.append(nrm)
            message = "residual or its rounding floor became non-finite"
            break
        N = 0.0
        if border is not None:
            N, row, corner = border(u, coef)
        history.append(max(nrm, abs(N)))
        checked = max(tol, floor)
        if nrm <= checked and abs(N) <= tol:
            report = SolveReport(it, history[-1], True, history, checked)
            return u, coef, report, theta0
        if it >= max_iter:
            message = f"no convergence in {max_iter} iterations"
            break
        if border is None:
            du, dc = system.jacobian_solver(u, coef, a)(-F), 0.0
        else:
            scale = 1.0 / max(float(np.abs(row).max()), abs(corner))
            du, dc = system.bordered_solver(u, coef, np.exp(u), scale * row,
                                            scale * corner)(-F, -scale * N)
        steps.append(_norm(du, dc))
        if it:
            theta0 = steps[1] / steps[0]
            if steps[-1] >= steps[-2]:
                message = "Newton corrections stopped contracting"
                break
        u, coef = u + du, coef + dc
    report = SolveReport(it, history[-1], False, history, checked)
    raise NonConvergenceError(f"{message} (residual {history[-1]:.3e})",
                              report)


def solve_dirichlet(p: DirichletProblem, tol: float = NEWTON_TOL,
                    max_iter: int = MAX_NEWTON,
                    ) -> tuple[Union[ScalarField2D, RadialProfile], SolveReport]:
    """Solve the Dirichlet problem by Newton iteration (``_newton``)
    from the discrete harmonic extension of the boundary data.

    Raises NonConvergenceError (with the report attached) if Newton
    fails, SingularJacobianError if a linear solve fails.
    """
    _require_finite({"tol": tol})
    system = _make_system(p.geometry, p.boundary)
    u, _, report, _ = _newton(system, system.initial_guess(), -p.params.K,
                              p.params.a, tol, max_iter)
    return system.pack(u), report


# --- pseudo-arclength continuation --------------------------------------


@dataclass
class BranchPoint:
    s: float
    lam: float
    u0: float
    u: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class Fold:
    """First turning point of the branch: d(lambda)/ds changes sign
    between points[index] and points[index + 1]."""

    lam0: float
    u0: float
    index: int


@dataclass
class Branch:
    points: list[BranchPoint]
    fold: Optional[Fold] = None
    aborted: bool = False

    def write_csv(self, path) -> None:
        write_table(path, "s,lambda,u0",
                    ((pt.s, pt.lam, pt.u0) for pt in self.points))


def _predict(points: list[BranchPoint], ds: float) -> tuple:
    """(u, lam, tu, tl): the Lagrange polynomial P in s through the last
    min(3, len(points)) branch points, at s + ds past the last one, and
    its unit (scaled) derivative there.  With two points this is the
    secant.  P is in Newton's divided-difference form on the newest
    nodes first, evaluated with its derivative by Horner's rule."""
    pts = points[:-4:-1]
    s = [q.s for q in pts]
    f = [np.append(q.u, q.lam) for q in pts]
    coefs = [f[0]]
    for k in range(1, len(f)):
        f = [(f[i] - f[i + 1]) / (s[i] - s[i + k]) for i in range(len(f) - 1)]
        coefs.append(f[0])
    x = s[0] + ds
    p, dp = coefs[-1], 0.0
    for c, sk in zip(coefs[-2::-1], s[-2::-1]):
        p, dp = c + (x - sk) * p, p + (x - sk) * dp
    t = dp / _norm(dp[:-1], dp[-1])
    return p[:-1], float(p[-1]), t[:-1], float(t[-1])


def _step(system, points: list[BranchPoint], ds: float,
          tol: float) -> tuple[BranchPoint, float]:
    """Predict ``ds`` past points[-1] (``_predict``); correct on the
    plane through the predictor with the predicted tangent as (scaled)
    normal; a corrected point farther than ``ds`` from the predictor has
    left the branch.  Returns the point and the corrector's Theta_0."""
    u_pred, lam_pred, tu, tl = _predict(points, ds)
    row = tu / tu.size

    def plane(u, lam):
        return _dot(u - u_pred, lam - lam_pred, tu, tl), row, tl

    un, ln, _, theta0 = _newton(system, u_pred, lam_pred, 1.0, tol, 12,
                                plane)
    if _norm(un - u_pred, ln - lam_pred) > ds:
        raise NonConvergenceError("continuation corrector left the branch")
    base = points[-1]
    s = base.s + _norm(un - base.u, ln - base.lam)
    return BranchPoint(s, ln, system.center_value(un), un), theta0


def _fold_border(system, c: np.ndarray) -> Callable:
    """(u, lam) -> (sigma, row, corner): sigma is the border entry of
    [J, c; W c, 0] [v; sigma] = [0; 1], zero exactly where J is singular
    (Griewank & Reddien 1984).  W J is symmetric, so W v is the left
    vector of that system and sigma's gradient (row, corner) is
    -(lam W e^u v^2, sum(W e^u v^2))."""
    wc, zero = system.weights * c, np.zeros(system.m)

    def sigma(u, lam):
        v, sig = system.bordered_solver(u, lam, c, wc, 0.0)(zero, 1.0)
        g = system.weights * np.exp(u) * v * v
        return sig, -lam * g, -float(g.sum())

    return sigma


def _solve_fold(system, points: list[BranchPoint], tol: float) -> Fold:
    """Solve (F, sigma) = 0 from the highest point points[-2], with c the
    u part of the secant across it (``_fold_border``)."""
    top, c = points[-2], points[-1].u - points[-3].u
    u, lam, _, _ = _newton(system, top.u, top.lam, 1.0, tol, 12,
                           _fold_border(system, c / _norm(c, 0.0)))
    u0, k = system.center_value(u), len(points) - 2
    return Fold(lam, u0, k if u0 >= top.u0 else k - 1)


def continue_branch(geometry: Geometry, lam_start: float = 0.0,
                    max_steps: int = 500, ds: float = 0.05, *,
                    lam_stop: Optional[float] = None, u0_cap: float = 15.0,
                    tol: float = NEWTON_TOL, fold_tol: float = NEWTON_TOL,
                    ) -> Branch:
    """Trace the Gelfand branch from ``lam_start`` through the first fold.

    Pseudo-arclength steps with ds in [1e-4, 0.1] aimed at a corrector
    contraction Theta_0 of 1/8, predicted through the last three points
    (``_predict``).  Once lambda falls, the fold is solved from the
    highest point by the steps' bordered Newton loop with ``fold_tol``
    (``_solve_fold``); a fold solve that fails raises.
    Stops on ``max_steps`` (at least 2), or once past the fold when
    lambda falls below ``lam_stop`` (default: lam_start) or the center
    value exceeds ``u0_cap``.

    A failed step halves ds, and one that fails at ds = 1e-4 aborts the
    trace; the partial branch is returned with ``aborted = True``.
    """
    if lam_start < 0:
        raise EllipticError(f"lam_start must be >= 0, got {lam_start}")
    if not DS_MIN <= ds <= DS_MAX:
        raise EllipticError(f"ds must lie in [{DS_MIN}, {DS_MAX}], got {ds}")
    if max_steps < 2:
        raise EllipticError(f"max_steps must be >= 2, got {max_steps}")
    if lam_stop is None:
        lam_stop = lam_start
    _require_finite({"tol": tol, "fold_tol": fold_tol}, lam_start=lam_start,
                    lam_stop=lam_stop, u0_cap=u0_cap)
    system = _make_system(geometry, 0.0)

    u = _newton(system, np.zeros(system.m), lam_start, 1.0, tol)[0]
    points = [BranchPoint(0.0, lam_start, system.center_value(u), u)]

    # second point by natural continuation, a small lambda increment
    dlam0 = min(ds, 0.02)
    u2 = _newton(system, u, lam_start + dlam0, 1.0, tol)[0]
    points.append(BranchPoint(_norm(u2 - u, dlam0), lam_start + dlam0,
                              system.center_value(u2), u2))

    fold, aborted = None, False

    while len(points) < max_steps:
        try:
            pt, theta0 = _step(system, points, ds, tol)
        except (NonConvergenceError, SingularJacobianError):
            if ds == DS_MIN:
                aborted = True
                break
            ds = max(ds / 2.0, DS_MIN)
            continue
        points.append(pt)

        # lambda rises from the natural start until the first fold
        if fold is None and pt.lam < points[-2].lam:
            fold = _solve_fold(system, points, fold_tol)

        # Theta_0 grows as ds^3 under the three-point predictor
        ds = DS_MAX if theta0 == 0.0 else float(
            np.clip(ds * (_THETA / theta0) ** (1 / 3), DS_MIN, DS_MAX))
        if fold is not None and (pt.lam < lam_stop or pt.u0 > u0_cap):
            break

    return Branch(points, fold, aborted)


def solve_on_branch(geometry: Geometry, branch: Branch, lam: float,
                    side: str = "lower", tol: float = NEWTON_TOL,
                    ) -> tuple[Union[ScalarField2D, RadialProfile], SolveReport]:
    """Solve the Gelfand problem at a prescribed lambda on one side of
    the fold, seeding Newton from the nearest branch point.

    ``side`` is "lower" (points up to ``fold.index``) or "upper"
    (points past it).
    """
    _require_finite({"tol": tol})
    if side not in ("lower", "upper"):
        raise EllipticError(f"side must be 'lower' or 'upper', got {side!r}")
    if branch.fold is None and side == "upper":
        raise EllipticError("branch has no fold, no upper side exists")
    split = branch.fold.index + 1 if branch.fold is not None else len(branch.points)
    segment = branch.points[:split] if side == "lower" else branch.points[split:]
    if not segment:
        raise EllipticError(f"no branch points on the {side} side")
    best = min(segment, key=lambda pt: abs(pt.lam - lam))
    system = _make_system(geometry, 0.0)
    u, _, report, _ = _newton(system, best.u, lam, 1.0, tol)
    return system.pack(u), report


def boundary_blowup_approx(geometry: DiskGeometry, M_list: list[float],
                           tol: float = NEWTON_TOL) -> list[RadialProfile]:
    """Approximate the boundary blow-up solution of Delta u = e^u by
    solving with constant boundary data M for each M in the increasing
    ``M_list``, continuing in M with unit-sized homotopy steps."""
    Ms = [float(M) for M in M_list]
    _require_finite({"tol": tol}, M=Ms)
    if any(b <= a for a, b in zip(Ms, Ms[1:])):
        raise EllipticError(f"M_list must be strictly increasing, got {Ms}")
    out = []
    guess = None
    cur = min(0.0, Ms[0])
    for M in Ms:
        while True:
            cur = min(cur + 1.0, M)
            system = _RadialSystem(geometry, cur)
            if guess is None:
                guess = system.initial_guess()
            guess = _newton(system, guess, -1.0, 1.0, tol)[0]
            if cur >= M:
                break
        out.append(system.pack(guess))
    return out
