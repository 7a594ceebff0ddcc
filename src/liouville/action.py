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
from .fields import ScalarField2D

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


def _cell_terms(phi: ScalarField2D):
    v = phi.values
    g = phi.grid
    gx = 0.5 * ((v[:-1, 1:] - v[:-1, :-1]) + (v[1:, 1:] - v[1:, :-1])) / g.hx
    gy = 0.5 * ((v[1:, :-1] - v[:-1, :-1]) + (v[1:, 1:] - v[:-1, 1:])) / g.hy
    mean = 0.25 * (v[:-1, :-1] + v[:-1, 1:] + v[1:, :-1] + v[1:, 1:])
    return gx, gy, mean


def _potential(mean: np.ndarray, mu: float):
    """mu^2 e^mean, or exactly 0 for mu = 0 (where e^mean may overflow)."""
    return mu ** 2 * np.exp(mean) if mu != 0 else 0.0


def action_value(phi: ScalarField2D, p: ActionParams) -> float:
    """Midpoint-rule value of the action over the grid's cells.  A field
    with masked (NaN) nodes has a NaN action; one without them whose
    action is not finite raises NonFiniteActionError."""
    g = phi.grid
    with np.errstate(all="ignore"):
        gx, gy, mean = _cell_terms(phi)
        density = 0.5 * (gx * gx + gy * gy) + _potential(mean, p.mu)
        value = float(p.C * g.hx * g.hy * density.sum())
    if not np.isfinite(value) and not np.isnan(phi.values).any():
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
    g = phi.grid
    with np.errstate(all="ignore"):
        gx, gy, mean = _cell_terms(phi)
        area = p.C * g.hx * g.hy
        ex = _potential(mean, p.mu) / 4.0
        px = gx / (2.0 * g.hx)
        py = gy / (2.0 * g.hy)
        grad = np.zeros_like(phi.values)
        grad[:-1, :-1] += area * (-px - py + ex)
        grad[:-1, 1:] += area * (px - py + ex)
        grad[1:, :-1] += area * (-px + py + ex)
        grad[1:, 1:] += area * (px + py + ex)
    grad[0, :] = 0.0
    grad[-1, :] = 0.0
    grad[:, 0] = 0.0
    grad[:, -1] = 0.0
    return ScalarField2D(g, grad)
