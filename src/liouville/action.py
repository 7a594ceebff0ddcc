"""Discrete Liouville action S[phi] = C integral(1/2 |grad phi|^2 +
mu^2 e^phi) and its exact gradient.

The quadrature is the midpoint rule per grid cell: both gradient
components are the mean of the two forward differences along the cell's
edges, and the exponential is evaluated at the mean of the four corner
values.  The gradient routine differentiates exactly that sum, so the
two are consistent to machine precision (not merely to O(h^2)), which
is what makes gradient checks against finite differences meaningful.
Critical points of S with fixed boundary values satisfy a discretization
of Delta phi = mu^2 e^phi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldsError, NonFiniteActionError
from .fields import ScalarField2D, _row_blocks

__all__ = ["ActionParams", "action_value", "action_gradient"]


@dataclass(frozen=True)
class ActionParams:
    """Overall constant C > 0 and the mass parameter mu (entering as
    mu^2, so its sign is irrelevant; mu = 0 drops the potential)."""

    C: float = 1.0
    mu: float = 1.0

    def __post_init__(self):
        if not self.C > 0:
            raise FieldsError(f"C must be positive, got {self.C}")
        if not np.isfinite(self.mu):
            raise FieldsError(f"mu must be finite, got {self.mu}")


def _cell_terms(v: np.ndarray, hx: float, hy: float):
    """Gradient components and corner mean of the cells between the node
    rows of ``v``."""
    gx = 0.5 * ((v[:-1, 1:] - v[:-1, :-1]) + (v[1:, 1:] - v[1:, :-1])) / hx
    gy = 0.5 * ((v[1:, :-1] - v[:-1, :-1]) + (v[1:, 1:] - v[:-1, 1:])) / hy
    mean = 0.25 * (v[:-1, :-1] + v[:-1, 1:] + v[1:, :-1] + v[1:, 1:])
    return gx, gy, mean


def _potential(mean: np.ndarray, mu: float):
    """mu^2 e^mean, or exactly 0 for mu = 0 (where e^mean may overflow)."""
    return mu ** 2 * np.exp(mean) if mu != 0 else 0.0


def action_value(phi: ScalarField2D, p: ActionParams) -> float:
    """Midpoint-rule value of the action over the grid's cells.  A field
    with masked (NaN) nodes has a NaN action; one without them whose
    action is not finite raises NonFiniteActionError."""
    g, v = phi.grid, phi.values
    density = np.empty((g.ny - 1, g.nx - 1))
    with np.errstate(all="ignore"):
        for j0, j1 in _row_blocks(g.ny - 1):  # cell rows j0 .. j1-1
            gx, gy, mean = _cell_terms(v[j0:j1 + 1], g.hx, g.hy)
            density[j0:j1] = 0.5 * (gx * gx + gy * gy) + _potential(mean, p.mu)
        value = float(p.C * g.hx * g.hy * density.sum())
    if not np.isfinite(value) and not np.isnan(v).any():
        raise NonFiniteActionError(
            f"action is {value} although no node of the field is masked")
    return value


def action_gradient(phi: ScalarField2D, p: ActionParams) -> ScalarField2D:
    """Exact derivative of :func:`action_value` with respect to the
    interior node values; boundary nodes are fixed Dirichlet data, so
    their entries are zero.

    Dividing by the cell area hx*hy recovers a consistent discretization
    of C(-Delta phi + mu^2 e^phi), the Euler-Lagrange operator.
    """
    g, v = phi.grid, phi.values
    area = p.C * g.hx * g.hy
    grad = np.zeros_like(v)
    with np.errstate(all="ignore"):
        # each interior node gathers its four cells' terms, in the order
        # lower-left corner of cell (j, i), lower-right of (j, i-1),
        # upper-left of (j-1, i), upper-right of (j-1, i-1)
        for j0, j1 in _row_blocks(g.ny - 2):
            gx, gy, mean = _cell_terms(v[j0:j1 + 2], g.hx, g.hy)
            ex = _potential(mean, p.mu) / 4.0
            px = gx / (2.0 * g.hx)
            py = gy / (2.0 * g.hy)
            node = grad[j0 + 1:j1 + 1, 1:-1]  # interior rows j0+1 .. j1
            node += (area * (-px - py + ex))[1:, 1:]
            node += (area * (px - py + ex))[1:, :-1]
            node += (area * (-px + py + ex))[:-1, 1:]
            node += (area * (px + py + ex))[:-1, :-1]
    return ScalarField2D(g, grad)
