"""Characteristic (Goursat) marching for u_xy = K e^(a u), with blow-up
masking, and a Baecklund-transformation integrator mapping wave-equation
solutions w(x, y) = phi(x) + psi(y) to Liouville solutions.

The marcher fills the grid along anti-diagonals.  Each cell solves the
implicit update

    u_ij = u_(i-1)j + u_i(j-1) - u_(i-1)(j-1) + hx hy K exp(a ubar)

with ubar the average of the four cell corners, i.e. z = c + gamma
e^(beta (z + s)) with gamma = hx hy K and beta = a/4, in closed form on
the principal branch of the Lambert W function, one whole anti-diagonal
at a time.  When that root ceases to exist the cell has hit the blow-up
regime: it is masked (NaN) rather than clamped, and everything depending
on it is masked too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CellIterationDivergenceError,
    CornerMismatchError,
    HyperbolicError,
    OdeOverflowError,
)
from .expr import AxisPair
from .fields import Grid2D, LiouvilleParams, ScalarField2D, write_table

__all__ = [
    "GoursatData",
    "WaveSolution",
    "MarchResult",
    "march",
    "march_from_edges",
    "backlund",
]

CORNER_TOL = 1e-12
BLOWUP_THRESHOLD = 25.0
ODE_CAP = 500.0


GoursatData = AxisPair  # u(x, y0) = phi(x) and u(x0, y) = psi(y)
WaveSolution = AxisPair  # w(x, y) = phi(x) + psi(y), solving w_xy = 0


@dataclass
class MarchResult:
    """Marched field plus its blow-up mask (True = masked node)."""

    field: ScalarField2D
    mask: np.ndarray

    @property
    def n_masked(self) -> int:
        return int(self.mask.sum())

    def write_mask_csv(self, path) -> None:
        write_table(path, self.field.grid.header(), self.mask.astype(int).tolist())


def _solve_diagonal(c: np.ndarray, s: np.ndarray, gamma: float, beta: float):
    """Roots z = c - W(x)/beta of z = c + gamma e^(beta (z+s)) for one
    anti-diagonal, x = -gamma beta e^(beta (c+s)), on the principal branch
    of Lambert W (the one continuing z = c from gamma = 0).

    Returns the roots, NaN where none exists (x <= -1/e: blow-up) or an
    input is NaN, and the mask of cells where W itself failed.
    gamma beta < 0 makes x positive: W(e^v) = omega(v), Wright's omega,
    never forms e^(beta (c+s)) and so never overflows.
    """
    from scipy.special import lambertw, wrightomega

    gb = gamma * beta
    t = beta * (c + s)
    if gb < 0:
        exists = np.isfinite(t)
        w = wrightomega(np.log(-gb) + t)
    else:
        with np.errstate(over="ignore"):
            x = -gb * np.exp(t)
        exists = x > -np.exp(-1.0)  # lambertw is NaN at the float -1/e
        w = lambertw(np.where(exists, x, 0.0)).real
    return np.where(exists, c - w / beta, np.nan), exists & ~np.isfinite(w)


def march_from_edges(bottom: np.ndarray, left: np.ndarray,
                     p: LiouvilleParams, grid: Grid2D,
                     blowup_threshold: float = BLOWUP_THRESHOLD) -> MarchResult:
    """March with explicit edge arrays (``bottom`` = u on y = y0,
    ``left`` = u on x = x0); see :func:`march`."""
    bottom = np.asarray(bottom, dtype=float)
    left = np.asarray(left, dtype=float)
    if bottom.shape != (grid.nx,) or left.shape != (grid.ny,):
        raise HyperbolicError(
            f"edge data must have shapes ({grid.nx},) and ({grid.ny},), "
            f"got {bottom.shape} and {left.shape}")
    if not (np.all(np.isfinite(bottom)) and np.all(np.isfinite(left))):
        raise HyperbolicError("Goursat edge data must be finite")
    if abs(bottom[0] - left[0]) > CORNER_TOL:
        raise CornerMismatchError(
            f"phi(x0) = {bottom[0]!r} but psi(y0) = {left[0]!r} "
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
        U[j, i] = np.where(z <= blowup_threshold, z, np.nan)

    field = ScalarField2D(grid, U)
    return MarchResult(field, np.isnan(U))


def march(data: AxisPair, p: LiouvilleParams, grid: Grid2D,
          blowup_threshold: float = BLOWUP_THRESHOLD) -> MarchResult:
    """Solve the Goursat problem for u_xy = K e^(a u) on ``grid``.

    Data is prescribed on the two characteristics through the grid
    origin, u(x, y0) = ``data.fx`` and u(x0, y) = ``data.gy``, agreeing at
    the corner to 1e-12.  Cells whose implicit update has no bounded root,
    or whose value exceeds ``blowup_threshold``, are masked together with
    their downstream dependency cone; the mask is a result, not an error.
    """
    (bottom, _), (left, _) = data.sample(grid.x(), grid.y())
    return march_from_edges(bottom, left, p, grid, blowup_threshold)


# --- Baecklund transformation -------------------------------------------


def _doubled(axis: np.ndarray) -> np.ndarray:
    """Nodes and midpoints interleaved, for the RK4 stages."""
    out = np.empty(2 * axis.size - 1)
    out[0::2] = axis
    out[1::2] = 0.5 * (axis[:-1] + axis[1:])
    return out


def _check_ode(u, segment: str):
    arr = np.asarray(u)
    if not np.all(np.isfinite(arr)) or np.any(arr > ODE_CAP):
        raise OdeOverflowError(segment)


def backlund(w: AxisPair, bt_a: float, u_corner: float, grid: Grid2D,
             order: str = "xy") -> ScalarField2D:
    """Integrate the Baecklund pair for w = phi(x) + psi(y), with
    phi = ``w.fx`` and psi = ``w.gy``,

        u_x = w_x + bt_a e^((u + w)/2),
        u_y = -w_y + (2/bt_a) e^((u - w)/2)

    from u(x0, y0) = ``u_corner`` with classical RK4: along the bottom
    edge and then up all columns at once (``order="xy"``), or up the
    left edge and then across all rows (``order="yx"``).  The two orders
    agree up to the RK4 error because the pair's cross-derivatives are
    compatible exactly when u_xy = e^u.

    Raises OdeOverflowError if the solution escapes toward +inf inside
    the domain (the transform's image blows up on a line).
    """
    if bt_a == 0:
        raise HyperbolicError("bt_a must be nonzero")
    if order not in ("xy", "yx"):
        raise HyperbolicError(f"order must be 'xy' or 'yx', got {order!r}")
    if not np.isfinite(u_corner):
        raise HyperbolicError(f"u_corner must be finite, got {u_corner}")

    (phi_v, phi_d), (psi_v, psi_d) = w.sample(_doubled(grid.x()),
                                              _doubled(grid.y()))

    def f_x(u, k):
        # k indexes the doubled x-axis; w and w_x at fixed y (psi const)
        return phi_d[k] + bt_a * np.exp(0.5 * (u + phi_v[k] + psi_ref))

    def f_y(u, k):
        return -psi_d[k] + (2.0 / bt_a) * np.exp(0.5 * (u - phi_ref - psi_v[k]))

    def rk4_sweep(u0, f, n, h, segment):
        """March u over n-1 steps; u0 may be a scalar (edge sweep) or an
        array (all columns/rows at once).  Returns the n states."""
        out = [np.asarray(u0, dtype=float)]
        # an overflowing exp leaves the step inf or NaN, which _check_ode
        # reports as OdeOverflowError
        with np.errstate(over="ignore", invalid="ignore"):
            for idx in range(n - 1):
                k0 = 2 * idx
                u = out[-1]
                k1 = f(u, k0)
                k2 = f(u + 0.5 * h * k1, k0 + 1)
                k3 = f(u + 0.5 * h * k2, k0 + 1)
                k4 = f(u + h * k3, k0 + 2)
                nxt = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                _check_ode(nxt, segment(idx))
                out.append(nxt)
        return out

    if order == "xy":
        psi_ref = psi_v[0]
        bottom = rk4_sweep(u_corner, f_x, grid.nx, grid.hx,
                           lambda i: f"bottom edge near x = {grid.x0 + (i + 1) * grid.hx!r}")
        phi_ref = phi_v[0::2]  # per-column phi values at the nodes
        cols = rk4_sweep(np.array(bottom, dtype=float), f_y, grid.ny, grid.hy,
                         lambda j: f"columns near y = {grid.y0 + (j + 1) * grid.hy!r}")
        values = np.vstack(cols)
    else:
        phi_ref = phi_v[0]
        leftv = rk4_sweep(u_corner, f_y, grid.ny, grid.hy,
                          lambda j: f"left edge near y = {grid.y0 + (j + 1) * grid.hy!r}")
        psi_ref = psi_v[0::2]  # per-row psi values at the nodes
        rows = rk4_sweep(np.array(leftv, dtype=float), f_x, grid.nx, grid.hx,
                         lambda i: f"rows near x = {grid.x0 + (i + 1) * grid.hx!r}")
        values = np.vstack(rows).T
    return ScalarField2D(grid, values)
