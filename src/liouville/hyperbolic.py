"""Characteristic (Goursat) marching for u_xy = K e^(a u), with blow-up
masking, and the Baecklund transformation, which maps wave-equation
solutions w(x, y) = phi(x) + psi(y) to Liouville solutions in closed
form: u = phi - psi - 2 ln D, with D affine in the integrals of e^phi and
e^-psi.

The marcher fills the grid along anti-diagonals.  Each cell solves the
implicit update

    u_ij = u_(i-1)j + u_i(j-1) - u_(i-1)(j-1) + hx hy K exp(a ubar)

with ubar the average of the four cell corners, i.e. z = c + gamma
e^(beta (z + s)) with gamma = hx hy K and beta = a/4, in closed form on
the principal branch of the Lambert W function, one whole anti-diagonal
at a time.  W and Wright's omega are evaluated here, on numpy alone, by
two Fritsch-Shafer-Crowley steps.  When that root ceases to exist the
cell has hit the blow-up regime: it is masked (NaN) rather than clamped,
and everything depending on it is masked too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closedform import _two_function
from .errors import (CellIterationDivergenceError, CornerMismatchError,
                     HyperbolicError, NonFiniteValueError, OdeOverflowError,
                     SingularNodeError)
from .expr import AxisPair
from .fields import (BLOWUP_THRESHOLD, Grid2D, LiouvilleParams, ScalarField2D,
                     open_text)

__all__ = [
    "GoursatData",
    "WaveSolution",
    "MarchResult",
    "march",
    "backlund",
]

CORNER_TOL = 1e-12


GoursatData = AxisPair  # u(x, y0) = phi(x) and u(x0, y) = psi(y)
WaveSolution = AxisPair  # w(x, y) = phi(x) + psi(y), solving w_xy = 0


@dataclass
class MarchResult:
    """Marched field; its NaN nodes are the blow-up mask."""

    field: ScalarField2D

    @property
    def n_masked(self) -> int:
        return int(np.isnan(self.field.values).sum())

    def write_mask_csv(self, path) -> None:
        """The grid header, then rows of flags, 1 where a node is masked."""
        mask = np.isnan(self.field.values)
        cells = np.empty(mask.shape + (2,), dtype=np.uint8)
        cells[..., 0] = ord("0") + mask.astype(np.uint8)
        cells[..., 1] = ord(",")
        cells[:, -1, 1] = ord("\n")
        with open_text(path, "w") as fh:
            fh.write(self.field.grid.header() + "\n")
            fh.write(str(cells, "ascii"))


def _fsc_step(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """One Fritsch-Shafer-Crowley step (CACM 16, 1973) for W or omega,
    given the residual z = ln(x/w) - w = v - w - ln w; fourth order."""
    # w (1 + z/(1+w) (q-z)/(q-2z)), q = 2 (1+w)(1+w+2z/3), written with
    # d = q/(1+w) so that q itself cannot overflow
    wp1 = 1.0 + w
    r = z / wp1
    d = 2.0 * wp1 + (4.0 / 3.0) * z
    return w + w * r * (d - r) / (d - 2.0 * r)


def _wright_omega(v: np.ndarray) -> np.ndarray:
    """Wright's omega(v) = W(e^v), the root of w + ln w = v, for real v;
    two FSC steps from the guesses of Lawrence, Corless and Jeffrey
    (ACM TOMS 38, 2012).  The guess is e^v only below v = -2, so no
    result rests on an overflowed exponential; below v = -40 that guess
    is omega(v) to rounding (it may underflow to 0) and is returned."""
    with np.errstate(all="ignore"):
        lv = np.log(np.maximum(v, 1.0))
        # e^v below v = -2 and e^(2(v-1)/3) on [-2, 1) meet at v = -2
        guess = np.where(v < 1.0,
                         np.exp(np.minimum(v, (v - 1.0) * (2.0 / 3.0))),
                         v - lv + lv / v)
        w = guess
        for _ in range(2):
            w = _fsc_step(w, v - w - np.log(w))
        return np.where(v < -40.0, guess, w)


def _lambert_w(x: np.ndarray) -> np.ndarray:
    """Principal branch of Lambert W on (-1/e, 0]: two FSC steps from
    the branch-point series below x = -1/4 and from x - x^2 above."""
    with np.errstate(all="ignore"):
        # the rounding of 1/e only moves the guess; the steps use x
        p = np.sqrt(2.0 * np.e * (x + np.exp(-1.0)))
        w = np.where(x < -0.25,
                     -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * 11.0 / 72.0)),
                     x * (1.0 - x))
        for _ in range(2):
            w = _fsc_step(w, np.log(x / w) - w)
        return np.where(x == 0, 0.0, w)


def _solve_diagonal(c: np.ndarray, s: np.ndarray, gamma: float, beta: float):
    """Roots z = c - W(x)/beta of z = c + gamma e^(beta (z+s)) for one
    anti-diagonal, x = -gamma beta e^(beta (c+s)), on the principal branch
    of Lambert W (the one continuing z = c from gamma = 0).

    Returns the roots, NaN where none exists (x <= -1/e: blow-up) or an
    input is NaN, and the mask of cells where W itself failed.
    gamma beta < 0 makes x positive: W(e^v) = omega(v), Wright's omega,
    never forms e^(beta (c+s)) and so never overflows.
    """
    gb = gamma * beta
    t = beta * (c + s)
    if gb < 0:
        exists = np.isfinite(t)
        w = _wright_omega(np.log(-gb) + t)
    else:
        x = -gb * np.exp(t)
        exists = x > -np.exp(-1.0)  # the float -1/e is below the branch point
        w = _lambert_w(np.where(exists, x, 0.0))
    return np.where(exists, c - w / beta, np.nan), exists & ~np.isfinite(w)


@np.errstate(over="ignore")  # sums or e^t past the float range mask the cell
def march(data: AxisPair, p: LiouvilleParams, grid: Grid2D,
          blowup_threshold: float = BLOWUP_THRESHOLD) -> MarchResult:
    """Solve the Goursat problem for u_xy = K e^(a u) on ``grid``.

    Data is prescribed on the two characteristics through the grid
    origin, u(x, y0) = ``data.fx`` and u(x0, y) = ``data.gy``, agreeing at
    the corner to 1e-12.  Cells whose implicit update has no finite root,
    or whose value exceeds ``blowup_threshold``, are masked together with
    their downstream dependency cone; the mask is a result, not an error.
    """
    (bottom, _), (left, _) = data.sample(grid.x(), grid.y())
    if not (np.all(np.isfinite(bottom)) and np.all(np.isfinite(left))):
        raise HyperbolicError("Goursat edge data must be finite")
    if not np.isfinite(blowup_threshold):
        raise HyperbolicError("the blow-up threshold must be finite")
    if abs(bottom[0] - left[0]) > CORNER_TOL:
        raise CornerMismatchError(
            f"phi(x0) = {float(bottom[0])!r} but psi(y0) = {float(left[0])!r} "
            f"(difference {abs(bottom[0] - left[0]):.3e})")

    nx, ny = grid.nx, grid.ny
    gamma = grid.hx * grid.hy * p.K
    beta = p.a / 4.0
    U = np.full((ny, nx), np.nan)
    U[0, :] = bottom
    U[:, 0] = left
    U[0, 0] = bottom[0]

    # a masked (NaN) neighbour makes c and s NaN and so masks the cell:
    # the mask spreads down the dependency cone by itself
    for d in range(2, nx - 1 + ny - 1 + 1):
        i = np.arange(max(1, d - (ny - 1)), min(nx - 1, d - 1) + 1)
        j = d - i
        west, south, diag = U[j, i - 1], U[j - 1, i], U[j - 1, i - 1]
        z, failed = _solve_diagonal(west + south - diag, west + south + diag,
                                    gamma, beta)
        if failed.any():
            k = int(np.argmax(failed))
            raise CellIterationDivergenceError(int(i[k]), int(j[k]))
        U[j, i] = np.where((z <= blowup_threshold) & (z > -np.inf), z, np.nan)

    return MarchResult(ScalarField2D(grid, U))


# --- Baecklund transformation -------------------------------------------


def _doubled(axis: np.ndarray) -> np.ndarray:
    """Nodes and midpoints interleaved, for Simpson's rule."""
    return np.insert(axis, range(1, axis.size), 0.5 * (axis[:-1] + axis[1:]))


def _cumulative_simpson(f: np.ndarray, h: float) -> np.ndarray:
    """Integrals from the first node to every node, by Simpson's rule
    per cell, of ``f`` sampled on nodes and midpoints interleaved."""
    return np.cumsum(np.r_[0.0, h / 6.0 * (f[:-2:2] + 4.0 * f[1::2] + f[2::2])])


def backlund(w: AxisPair, bt_a: float, u_corner: float, grid: Grid2D,
             order: str = "xy") -> ScalarField2D:
    """Image of w = phi(x) + psi(y), with phi = ``w.fx`` and psi =
    ``w.gy``, under the Baecklund pair

        u_x = w_x + bt_a e^((u + w)/2),
        u_y = -w_y + (2/bt_a) e^((u - w)/2)

    from u(x0, y0) = ``u_corner``.  The pair integrates in closed form to
    Liouville's general solution

        u = phi(x) - psi(y) - 2 ln D,
        D = c - (bt_a/2) Phi(x) - Psi(y)/bt_a,
        c = e^((phi(x0) - psi(y0) - u_corner)/2),

    with Phi the integral of e^phi from x0 and Psi that of e^-psi from
    y0; u_xy = e^u holds identically.  It is sampled as the two-function
    solution of f = (bt_a/2) Phi/c - 1 and g = Psi/(c bt_a), whose sum is
    -D/c.  Phi and Psi are cumulative Simpson sums over the nodes and
    cell midpoints, so the field is fourth-order accurate; dividing by c
    before the exponentials are taken keeps c itself from overflowing.
    ``order`` must be "xy" or "yx"; both give the same field.

    Raises OdeOverflowError at the first node in row-major order where
    D <= 0 if D changes sign on the grid, else where u is not finite.
    """
    if bt_a == 0 or not np.isfinite(bt_a):
        raise HyperbolicError(f"bt_a must be finite and nonzero, got {bt_a}")
    if order not in ("xy", "yx"):
        raise HyperbolicError(f"order must be 'xy' or 'yx', got {order!r}")
    if not np.isfinite(u_corner):
        raise HyperbolicError(f"u_corner must be finite, got {u_corner}")

    (phi, _), (psi, _) = w.sample(_doubled(grid.x()), _doubled(grid.y()))
    log_c = 0.5 * (phi[0] - psi[0] - u_corner)
    # an overflow turns up as a sign change of f + g or a u not finite
    with np.errstate(all="ignore"):
        Phi = _cumulative_simpson(np.exp(phi - log_c), grid.hx)
        Psi = _cumulative_simpson(np.exp(-psi - log_c), grid.hy)
        ln_fp = np.log(abs(0.5 * bt_a)) + phi[0::2] - log_c
        ln_gp = -psi[0::2] - log_c - np.log(abs(bt_a))
    try:  # bt_a carries the signs of f' and g'
        return _two_function(0.5 * bt_a * Phi - 1.0, ln_fp,
                             np.full(grid.nx, bt_a), Psi / bt_a, ln_gp,
                             np.full(grid.ny, bt_a), LiouvilleParams(1.0, 1.0),
                             grid)
    except (SingularNodeError, NonFiniteValueError) as err:
        raise OdeOverflowError(err.i, err.j, float(grid.x()[err.i]),
                               float(grid.y()[err.j])) from None
