"""Uniform rectangular grids, sampled scalar fields, finite-difference
residuals for the three Liouville forms, norms, and text round-trip I/O.

Conventions used throughout the package:

* field values are stored row-major in y: ``values[j, i]`` is the sample
  at ``(x0 + i*hx, y0 + j*hy)``;
* NaN is the sentinel for "no value here" (blown-up node, boundary of a
  node-centered residual); norms skip sentinels;
* node-centered residuals live on the same grid as the input field,
  cell-centered residuals live on the (nx-1) x (ny-1) staggered grid of
  cell midpoints.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    EmptyInteriorError,
    FieldsError,
    GridTooLargeError,
    GridTooSmallError,
    NonPositiveFieldError,
)

__all__ = [
    "Grid2D",
    "ScalarField2D",
    "LiouvilleParams",
    "Norms",
    "laplacian",
    "residual_elliptic",
    "residual_hyperbolic",
    "residual_log",
    "norms",
    "extrapolate_residual",
    "write_table",
    "MAX_NODES",
    "NEWTON_TOL",
    "MAX_NEWTON",
    "BLOWUP_THRESHOLD",
]

# Largest node count of a grid (nx * ny) or of a disk's radial mesh: 8 Mi
# nodes, 64 MB per float64 array.  Checked before anything is allocated,
# so a mistyped size fails at once instead of exhausting memory.
MAX_NODES = 2 ** 23

# Solver defaults, kept here so the CLI can show them in its help without
# importing the solvers: the elliptic Newton residual target and
# iteration cap, and the u value past which the marcher masks a node.
NEWTON_TOL = 1e-10
MAX_NEWTON = 60
BLOWUP_THRESHOLD = 25.0

# Rows per block of the samplers, stencils and action terms: their
# temporaries stay a few blocks in size instead of a few fields.
_BLOCK_ROWS = 64


def _row_blocks(n: int):
    """``(j0, j1)`` row ranges of at most ``_BLOCK_ROWS`` rows, in order,
    tiling ``range(n)``.  Every computation run through them is
    elementwise per output row, so the assembled array is bit-identical
    to a whole-array evaluation; callers read their own halo rows."""
    for j0 in range(0, n, _BLOCK_ROWS):
        yield j0, min(j0 + _BLOCK_ROWS, n)


# Values per block of a field CSV, formatted by the writer whatever the
# row length, parsed by the reader in whole rows: a block's text (about
# 20 B a value) is a few times the 64 KiB of a pipe's buffer, and the
# formatter's and the parser's temporaries stay a few MB.
_CSV_BLOCK_VALUES = 2 ** 14


def _write_overlapped(fh, texts) -> None:
    """Write the strings ``texts`` yields to ``fh`` from a second thread,
    which holds at most two of them, so the next one is produced while
    the last drains.  The first error of the writes is raised here once
    the thread has ended; the producer stops at the next string."""
    # loaded only for fields of several blocks
    import queue
    import threading

    slots = queue.Queue(maxsize=2)
    failed = []

    def drain():
        try:
            for text in iter(slots.get, None):
                fh.write(text)
        except Exception as exc:  # raised in the caller after the join
            failed.append(exc)
            for _ in iter(slots.get, None):  # keep the producer moving
                pass

    thread = threading.Thread(target=drain, name="csv-drain")
    thread.start()
    try:
        for text in texts:
            if failed:
                break
            slots.put(text)
    finally:
        slots.put(None)
        thread.join()
    if failed:
        raise failed[0]


@contextmanager
def open_text(path_or_file, mode: str = "r"):
    """Yield ``path_or_file`` itself if it is already a file object (so
    streams like stdout can be passed straight through), else open it."""
    if hasattr(path_or_file, "write") or hasattr(path_or_file, "read"):
        yield path_or_file
    else:
        fh = open(path_or_file, mode)
        try:
            yield fh
        finally:
            fh.close()


def write_table(path, header: str, values: np.ndarray, na: str = "nan") -> None:
    """Write ``header``, then the rows of the 2-D float array ``values``,
    comma-separated: each value's repr(), which keeps the round trip
    bit-exact, NaN spelled ``na``.  ``path`` may be an open text stream.
    numpy formats row-major blocks of ``_CSV_BLOCK_VALUES`` values; while
    one block drains into the stream, the next is formatted."""
    from ._ryu import format_csv

    flat, nx, block = np.ravel(values), values.shape[1], _CSV_BLOCK_VALUES

    def text(k: int) -> str:
        run = format_csv(flat[k:k + block], nx, k)
        # no other value's repr holds "nan"
        return run if na == "nan" else run.replace("nan", na)

    with open_text(path, "w") as fh:
        fh.write(header + "\n")
        if flat.size <= block:
            fh.write(text(0))
        else:
            _write_overlapped(fh, map(text, range(0, flat.size, block)))


@dataclass(frozen=True)
class Grid2D:
    """Uniform tensor grid: ``nx`` x ``ny`` nodes, origin (x0, y0),
    spacings hx, hy > 0 whose squares, the stencils' divisors, are
    finite."""

    nx: int
    ny: int
    x0: float
    y0: float
    hx: float
    hy: float

    def __post_init__(self):
        # 1x1 grids occur as the staggered cell grid of a 2x2 field
        if self.nx < 1 or self.ny < 1:
            raise GridTooSmallError(f"need at least 1x1 nodes, got {self.nx}x{self.ny}")
        if self.nx * self.ny > MAX_NODES:
            raise GridTooLargeError(
                f"{self.nx}x{self.ny} nodes exceed the cap of {MAX_NODES}")
        if not all(h > 0 and math.isfinite(float(h) * float(h))
                   for h in (self.hx, self.hy)):
            raise FieldsError(f"spacings must be positive with finite "
                              f"squares, got hx={self.hx}, hy={self.hy}")

    @classmethod
    def from_bounds(cls, x0: float, y0: float, x1: float, y1: float,
                    nx: int, ny: int) -> "Grid2D":
        if nx < 2 or ny < 2:
            raise GridTooSmallError(
                f"need at least 2x2 nodes to span a rectangle, got {nx}x{ny}")
        if not (x1 > x0 and y1 > y0):
            raise FieldsError("domain must satisfy x1 > x0 and y1 > y0")
        return cls(nx, ny, x0, y0, (x1 - x0) / (nx - 1), (y1 - y0) / (ny - 1))

    def x(self) -> np.ndarray:
        return self.x0 + self.hx * np.arange(self.nx)

    def y(self) -> np.ndarray:
        return self.y0 + self.hy * np.arange(self.ny)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.x(), self.y())

    def header(self) -> str:
        """The ``# nx ny x0 y0 hx hy`` line that opens a field CSV."""
        return f"# {self.nx} {self.ny} {self.x0!r} {self.y0!r} {self.hx!r} {self.hy!r}"

    def cell_centers(self) -> "Grid2D":
        """Staggered grid of the (nx-1) x (ny-1) cell midpoints."""
        return Grid2D(self.nx - 1, self.ny - 1,
                      self.x0 + self.hx / 2, self.y0 + self.hy / 2,
                      self.hx, self.hy)


@dataclass
class ScalarField2D:
    """Real samples on a :class:`Grid2D` (shape ``(ny, nx)``, NaN = masked)."""

    grid: Grid2D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.ny, self.grid.nx):
            raise FieldsError(
                f"values shape {v.shape} does not match grid "
                f"(ny, nx) = ({self.grid.ny}, {self.grid.nx})"
            )
        self.values = v

    def write_csv(self, path) -> None:
        """``# nx ny x0 y0 hx hy``, then the rows (:func:`write_table`)."""
        write_table(path, self.grid.header(), self.values)

    @classmethod
    def read_csv(cls, path) -> "ScalarField2D":
        """Inverse of :meth:`write_csv`.  Reads the header plus exactly
        ny rows and leaves the rest of the stream unconsumed, so a field
        piped together with a trailing summary line still parses.  The
        grid is built from the header before any row is read, so an
        oversized header fails before it allocates; anything malformed
        raises FieldsError.

        The rows are parsed in blocks of ``_CSV_BLOCK_VALUES`` values (at
        least one row) by numpy's C tokenizer, whose correctly rounded
        strtod gives the bits ``float()`` gives."""
        with open_text(path) as fh:
            try:
                grid = _read_header(fh.readline())
                values = np.empty((grid.ny, grid.nx))
                step = max(1, _CSV_BLOCK_VALUES // grid.nx)
                for j0 in range(0, grid.ny, step):
                    j1 = min(j0 + step, grid.ny)
                    values[j0:j1] = _read_rows(fh, j0, j1, grid)
            except ValueError as exc:  # UnicodeDecodeError included
                raise FieldsError(f"bad field text: {exc}") from exc
        return cls(grid, values)


def _read_rows(fh, j0: int, j1: int, grid: Grid2D) -> np.ndarray:
    """Rows ``j0 .. j1 - 1`` of a field CSV, read line by line from
    ``fh`` and parsed in one :func:`numpy.loadtxt` call."""
    lines = [fh.readline() for _ in range(j1 - j0)]
    for j, line in enumerate(lines, j0):
        # refused here: numpy skips empty lines and warns on a block of them
        if not line or line.isspace():
            raise FieldsError(f"expected {grid.ny} rows, file ended early"
                              if not line else f"row {j} is blank")
    try:
        rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        rows, error = None, exc
    if rows is not None and rows.shape == (j1 - j0, grid.nx):
        return rows
    # a wrong shape always has a row of the wrong width; numpy names a
    # ragged row by its index in the block, so count here, on failure only
    for j, line in enumerate(lines, j0):
        cells = line.count(",") + 1
        if cells != grid.nx:
            raise FieldsError(f"row {j} holds {cells} values, "
                              f"expected {grid.nx}")
    raise FieldsError(f"bad field text in rows {j0}..{j1 - 1}: {error}")


def _read_header(line: str) -> Grid2D:
    """The grid of a ``# nx ny x0 y0 hx hy`` line."""
    line = line.strip()
    if not line.startswith("#"):
        raise FieldsError("missing '# nx ny x0 y0 hx hy' header")
    parts = line[1:].split()
    if len(parts) != 6:
        raise FieldsError(f"malformed header {line[:80]!r}")
    try:
        nx, ny = int(parts[0]), int(parts[1])
        x0, y0, hx, hy = (float(p) for p in parts[2:])
    except ValueError as exc:
        raise FieldsError(f"malformed header {line[:80]!r}: {exc}") from exc
    return Grid2D(nx, ny, x0, y0, hx, hy)


@dataclass(frozen=True)
class LiouvilleParams:
    """Coefficients of Delta u = K e^(a u) (or u_xy = K e^(a u))."""

    K: float
    a: float

    def __post_init__(self):
        if not all(math.isfinite(c) and c != 0 for c in (self.K, self.a)):
            raise FieldsError(
                f"K and a must be finite and nonzero, got K={self.K}, a={self.a}")


class Norms(NamedTuple):
    max_abs: float
    l2: float


def _require(grid: Grid2D, n_min: int, what: str) -> None:
    if grid.nx < n_min or grid.ny < n_min:
        raise GridTooSmallError(
            f"{what} needs at least {n_min}x{n_min} nodes, got {grid.nx}x{grid.ny}"
        )


def laplacian(v: np.ndarray, hx: float, hy: float) -> np.ndarray:
    """5-point Laplacian of the ``(ny, nx)`` array ``v`` at its interior
    nodes; the result has shape ``(ny - 2, nx - 2)``."""
    c = v[1:-1, 1:-1]
    # ((e - 2c + w) / hx^2 + (n - 2c + s) / hy^2) in two buffers
    lap, t = 2.0 * c, 2.0 * c
    np.subtract(v[1:-1, 2:], lap, out=lap)
    lap += v[1:-1, :-2]
    lap /= hx**2
    np.subtract(v[2:, 1:-1], t, out=t)
    t += v[:-2, 1:-1]
    t /= hy**2
    lap += t
    return lap


def residual_elliptic(u: ScalarField2D, p: LiouvilleParams) -> ScalarField2D:
    """Node-centered residual of Delta u = K e^(a u); 5-point Laplacian on
    interior nodes, NaN sentinel on the boundary ring."""
    _require(u.grid, 3, "residual_elliptic")
    g = u.grid
    v = u.values
    r = np.full_like(v, np.nan)
    for j0, j1 in _row_blocks(g.ny - 2):
        rows = slice(j0 + 1, j1 + 1)  # interior rows; halo rows j0, j1 + 1
        r[rows, 1:-1] = (laplacian(v[j0:j1 + 2], g.hx, g.hy)
                         - p.K * np.exp(p.a * v[rows, 1:-1]))
    return ScalarField2D(g, r)


def _cross_and_mean(v: np.ndarray, hx: float, hy: float):
    dxy = (v[1:, 1:] - v[1:, :-1] - v[:-1, 1:] + v[:-1, :-1]) / (hx * hy)
    mean = 0.25 * (v[1:, 1:] + v[1:, :-1] + v[:-1, 1:] + v[:-1, :-1])
    return dxy, mean


def residual_hyperbolic(u: ScalarField2D, p: LiouvilleParams) -> ScalarField2D:
    """Cell-centered residual of u_xy = K e^(a u): 4-point cross stencil,
    with the cell-averaged u inside the exponential."""
    _require(u.grid, 2, "residual_hyperbolic")
    g = u.grid
    r = np.empty((g.ny - 1, g.nx - 1))
    for j0, j1 in _row_blocks(g.ny - 1):  # cell rows j0 .. j1-1
        dxy, mean = _cross_and_mean(u.values[j0:j1 + 1], g.hx, g.hy)
        r[j0:j1] = dxy - p.K * np.exp(p.a * mean)
    return ScalarField2D(g.cell_centers(), r)


def residual_log(T: ScalarField2D, K: float) -> ScalarField2D:
    """Cell-centered residual of (1/T) d2(log T)/dxdy = K for T > 0.

    The cell average of T is taken geometrically (exp of the mean of
    log T), which makes this residual exactly the a=1 hyperbolic residual
    of u = log T divided by that average.
    """
    _require(T.grid, 2, "residual_log")
    if K == 0 or not math.isfinite(K):
        raise FieldsError(f"K must be finite and nonzero, got {K}")
    v = T.values
    # finite entries only: NaN and -inf are left to the non-finite cells
    # they cause
    if np.any((v <= 0) & (v > -np.inf)):
        raise NonPositiveFieldError("T must be positive everywhere")
    g = T.grid
    r = np.empty((g.ny - 1, g.nx - 1))
    for j0, j1 in _row_blocks(g.ny - 1):  # cell rows j0 .. j1-1
        dxy, mean = _cross_and_mean(np.log(v[j0:j1 + 1]), g.hx, g.hy)
        Tbar = np.exp(mean)
        r[j0:j1] = (dxy - K * Tbar) / Tbar
    return ScalarField2D(g.cell_centers(), r)


def norms(r: ScalarField2D) -> Norms:
    """Max-abs and cell-weighted l2 norm over non-sentinel entries."""
    v = r.values
    finite = ~np.isnan(v)
    if not finite.any():
        raise EmptyInteriorError("all entries are sentinels")
    # one copy, squared in place; abs() gives -0.0 the bits of np.abs
    kept = v[finite]
    max_abs = float(abs(max(kept.max(), -kept.min())))
    # past 1e150 the squares may overflow: sum those of v / max_abs
    scale = max_abs if 1e150 < max_abs < math.inf else 1.0
    if scale != 1.0:
        kept /= scale
    kept *= kept
    return Norms(max_abs, scale * math.sqrt(r.grid.hx * r.grid.hy
                                            * float(kept.sum())))


def extrapolate_residual(coarse: ScalarField2D,
                         fine: ScalarField2D) -> ScalarField2D:
    """Pointwise Richardson extrapolation of a second-order residual
    field under one dyadic refinement.

    Node-centered pairs (fine has 2n-1 nodes per axis, same origin) are
    compared on the shared coarse nodes; cell-centered pairs (fine has 2n
    cells per axis) are compared against the 2x2 average of the fine
    cells inside each coarse cell, which preserves the leading-order
    term.  The result estimates the residual's h -> 0 limit on the
    coarse locations.
    """
    cg, fg = coarse.grid, fine.grid
    tol = 1e-9 * max(cg.hx, cg.hy)
    if abs(fg.hx - cg.hx / 2) > tol or abs(fg.hy - cg.hy / 2) > tol:
        raise FieldsError("fine grid must halve the coarse spacings")
    if fg.nx == 2 * cg.nx - 1 and abs(fg.x0 - cg.x0) <= tol and abs(fg.y0 - cg.y0) <= tol:
        fine_on_coarse = fine.values[::2, ::2]
    elif (fg.nx == 2 * cg.nx
          and abs(fg.x0 + fg.hx / 2 - cg.x0) <= tol
          and abs(fg.y0 + fg.hy / 2 - cg.y0) <= tol):
        v = fine.values
        fine_on_coarse = 0.25 * (v[0::2, 0::2] + v[0::2, 1::2] + v[1::2, 0::2] + v[1::2, 1::2])
    else:
        raise FieldsError("grids are not one dyadic refinement apart")
    return ScalarField2D(cg, (4.0 * fine_on_coarse - coarse.values) / 3.0)
