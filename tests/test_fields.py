"""Grid, field I/O, residual, and norm checks.

Residual conventions under test: the elliptic residual is node-centered
with a NaN boundary ring, the hyperbolic and log residuals live on the
staggered cell grid; norms skip NaN sentinels.
"""

import errno
import io
import json
import math
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liouville import fields
from liouville._ryu import format_csv
from liouville.cli import _reads_masked
from liouville.errors import (
    EmptyInteriorError,
    FieldsError,
    GridTooLargeError,
    GridTooSmallError,
    NonPositiveFieldError,
)
from liouville.fields import (
    Grid2D,
    LiouvilleParams,
    ScalarField2D,
    extrapolate_residual,
    laplacian,
    norms,
    residual_elliptic,
    residual_hyperbolic,
    residual_log,
)
from liouville.closedform import BlowupCurve
from liouville.elliptic import RadialProfile
from liouville.hyperbolic import MarchResult

P11 = LiouvilleParams(1.0, 1.0)


def unit_grid(n):
    return Grid2D.from_bounds(0.0, 0.0, 1.0, 1.0, n, n)


class TestGrid:
    def test_node_coordinates(self):
        g = Grid2D(3, 4, 1.0, 2.0, 0.5, 0.25)
        assert g.x().tolist() == [1.0, 1.5, 2.0]
        assert g.y().tolist() == [2.0, 2.25, 2.5, 2.75]

    def test_from_bounds_hits_endpoints(self):
        g = Grid2D.from_bounds(-1.0, 0.5, 1.0, 1.5, 5, 3)
        assert g.x()[-1] == 1.0
        assert g.y()[-1] == 1.5

    def test_too_small(self):
        with pytest.raises(GridTooSmallError):
            Grid2D(0, 5, 0.0, 0.0, 0.1, 0.1)
        with pytest.raises(GridTooSmallError):
            Grid2D.from_bounds(0.0, 0.0, 1.0, 1.0, 1, 5)

    def test_bad_spacing(self):
        with pytest.raises(FieldsError):
            Grid2D(3, 3, 0.0, 0.0, -0.1, 0.1)
        with pytest.raises(FieldsError):
            Grid2D.from_bounds(0.0, 0.0, 0.0, 1.0, 3, 3)

    def test_cell_centers(self):
        g = unit_grid(5)
        c = g.cell_centers()
        assert (c.nx, c.ny) == (4, 4)
        assert c.x0 == pytest.approx(g.hx / 2)

    def test_shape_mismatch(self):
        with pytest.raises(FieldsError):
            ScalarField2D(unit_grid(3), np.zeros((4, 3)))


class TestCsvRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        g = Grid2D.from_bounds(-0.3, 0.1, 0.7, 0.9, 7, 5)
        rng = np.random.default_rng(3)
        f = ScalarField2D(g, rng.standard_normal((5, 7)) * math.pi)
        path = tmp_path / "f.csv"
        f.write_csv(path)
        back = ScalarField2D.read_csv(path)
        assert back.grid == f.grid
        assert np.array_equal(back.values, f.values)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False),
                              st.floats(-1e-307, 1e-307, allow_nan=False),
                              st.sampled_from([math.inf, -math.inf, -0.0,
                                               math.nan, 5e-324])),
                    min_size=12, max_size=12))
    def test_special_values_round_trip_bitwise(self, cells):
        # NaN is the masked-node sentinel, written as "nan" and read back
        # as the canonical quiet NaN, so only that NaN is generated
        f = ScalarField2D(Grid2D(4, 3, 0.0, 0.0, 0.5, 0.5),
                          np.array(cells).reshape(3, 4))
        buf = io.StringIO()
        f.write_csv(buf)
        buf.seek(0)
        back = ScalarField2D.read_csv(buf)
        assert np.array_equal(back.values.view(np.uint64),
                              f.values.view(np.uint64))

    def test_nan_round_trip(self, tmp_path):
        g = unit_grid(3)
        v = np.arange(9.0).reshape(3, 3)
        v[1, 1] = np.nan
        path = tmp_path / "f.csv"
        ScalarField2D(g, v).write_csv(path)
        back = ScalarField2D.read_csv(path).values
        assert np.isnan(back[1, 1]) and back[0, 2] == 2.0

    def test_stream_with_trailing_summary_line(self):
        buf = io.StringIO()
        X, Y = unit_grid(4).meshgrid()
        f = ScalarField2D(unit_grid(4), X + 2 * Y)
        f.write_csv(buf)
        buf.write(json.dumps({"status": "ok"}) + "\n")
        buf.seek(0)
        back = ScalarField2D.read_csv(buf)
        assert np.array_equal(back.values, f.values)
        assert json.loads(buf.readline()) == {"status": "ok"}

    def test_truncated_file(self):
        buf = io.StringIO("# 3 3 0.0 0.0 0.5 0.5\n1.0,2.0,3.0\n")
        with pytest.raises(FieldsError):
            ScalarField2D.read_csv(buf)

    def test_missing_header(self):
        with pytest.raises(FieldsError):
            ScalarField2D.read_csv(io.StringIO("1.0,2.0\n3.0,4.0\n"))

    @pytest.mark.parametrize("text", [
        "# 2 2 0 0 1 1\n1,2,3\n3,4\n",  # ragged row
        "# 2 2 0 0 1 1\n1,2\n3\n",  # short row
        "# 2.5 2 0 0 1 1\n1,2\n3,4\n",  # non-integer size
        "# 2 2 0 0 1 x\n1,2\n3,4\n",  # non-numeric spacing
        "# 2 2 0 0 1\n1,2\n3,4\n",  # five header entries
        "# 2 2 0 0 1 1\n1,2\n3,four\n",  # non-numeric value
    ], ids=["ragged", "short-row", "size", "spacing", "header-count",
            "value"])
    def test_malformed_text_is_fields_error(self, text):
        with pytest.raises(FieldsError) as info:
            ScalarField2D.read_csv(io.StringIO(text))
        assert type(info.value) is FieldsError

    def test_undecodable_bytes_are_fields_error(self):
        stream = io.TextIOWrapper(io.BytesIO(b"# 1 1 0 0 1 1\n\xff\n"),
                                  encoding="utf-8")
        with pytest.raises(FieldsError):
            ScalarField2D.read_csv(stream)

    def test_size_is_checked_before_rows(self):
        # the header alone decides: the cap fires although no row follows
        with pytest.raises(GridTooLargeError):
            ScalarField2D.read_csv(io.StringIO("# 100000 100000 0 0 1 1\n"))


def repr_table(stream, header, rows):
    """The reference table writer: ``header``, then one comma-separated
    line per row, ``None`` as ``NA`` and any other cell as its repr."""
    stream.write(header + "\n")
    for row in rows:
        stream.write(",".join("NA" if c is None else repr(c) for c in row)
                     + "\n")


def repr_rows(values):
    """The reference CSV text of a 2-D array: ``repr`` of each value."""
    return "".join(",".join(map(repr, row)) + "\n" for row in values.tolist())


FORMAT_EDGES = ([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                 2.2250738585072014e-308, 1.7976931348623157e308,
                 9999999999999998.0, 1e16, 1e-4, 1e-5, 0.1 + 0.2]
                + [2.0 ** k for k in range(-1074, 1024)]
                + [10.0 ** k for k in range(-323, 309)]
                + [float(f"1e{k}") for k in range(-323, 309)])


def format_rows(values):
    return format_csv(values.ravel(), values.shape[1])


class TestFormatCsv:
    """The vectorised writer prints exactly the bytes of ``repr``."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64),
           st.integers(1, 8))
    def test_bit_patterns_match_repr(self, patterns, nx):
        patterns += [0] * (-len(patterns) % nx)
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        values = values.reshape(-1, nx)
        assert format_rows(values) == repr_rows(values)

    @pytest.mark.parametrize("start", [0, 1, 4, 5, 6, 13])
    def test_rows_end_where_the_field_says(self, start):
        # a run that starts mid-row ends its rows at the field's row ends
        values = np.arange(30.0).reshape(6, 5)
        want = repr_rows(values).replace("\n", ",").split(",")[:-1]
        want = "".join(v + ("\n" if k % 5 == 4 else ",")
                       for k, v in enumerate(want) if k >= start)
        assert format_csv(values.ravel()[start:], 5, start) == want

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_edges_match_repr(self, sign):
        values = sign * np.array(FORMAT_EDGES).reshape(-1, 27)
        assert format_rows(values) == repr_rows(values)

    def test_neighbours_of_edges_match_repr(self):
        # one ulp either side of every edge: the rounding interval's ends
        edges = np.array(FORMAT_EDGES)
        edges = edges[np.isfinite(edges)]
        with np.errstate(over="ignore"):  # past the largest float: inf
            values = np.concatenate([np.nextafter(edges, np.inf),
                                     np.nextafter(edges, -np.inf)])
        values = values[:values.size // 8 * 8].reshape(-1, 8)
        assert format_rows(values) == repr_rows(values)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_values_match_repr(self, seed):
        rng = np.random.default_rng(seed)
        values = np.concatenate([
            rng.integers(0, 2 ** 64, 20000, dtype=np.uint64).view(np.float64),
            rng.standard_normal(20000) * 10.0 ** rng.integers(-30, 30, 20000),
            np.round(rng.standard_normal(20000) * 1000, 3),
            rng.integers(-2 ** 60, 2 ** 60, 20000).astype(float),
        ]).reshape(-1, 100)
        assert format_rows(values) == repr_rows(values)


class TestWriteCsvBlocks:
    """``write_csv`` writes the bytes of the one-row-at-a-time ``repr``
    writer, whatever the split of the field into formatted blocks."""

    @pytest.mark.parametrize("ny, nx", [
        (40, 1000),  # two seams inside rows, a ragged last block
        (16, 1024),  # exactly one block
        (3, 5),  # one small block
        (3, 20000),  # rows wider than a block
    ])
    def test_bytes_match_repr_writer(self, ny, nx):
        rng = np.random.default_rng(nx)
        values = rng.standard_normal((ny, nx)) * 10.0 ** rng.integers(
            -8, 20, (ny, nx))
        values[rng.random((ny, nx)) < 0.01] = np.nan
        f = ScalarField2D(Grid2D(nx, ny, -0.5, 0.25, 0.1, 0.3), values)
        threads = threading.active_count()
        got, want = io.StringIO(), io.StringIO()
        f.write_csv(got)
        repr_table(want, f.grid.header(),
                   (row.tolist() for row in values))
        assert got.getvalue() == want.getvalue()
        assert threading.active_count() == threads

    def test_profile_of_several_blocks_matches_repr_writer(self):
        rng = np.random.default_rng(3)
        r = np.linspace(0.0, 1.0, 20001)
        prof = RadialProfile(r, rng.standard_normal(20001) * 1e3)
        got, want = io.StringIO(), io.StringIO()
        prof.write_csv(got)
        repr_table(want, "r,u", zip(r.tolist(), prof.values.tolist()))
        assert got.getvalue() == want.getvalue()

    def test_curve_na_rows_at_a_block_seam_match_repr_writer(self):
        # 2^13 rows a block: no crossing on either side of the first seam
        rng = np.random.default_rng(4)
        xs, ys = np.linspace(-1.0, 1.0, 20001).tolist(), rng.standard_normal(
            20001).tolist()
        for k in (0, 8190, 8191, 8192, 8193, 20000):
            ys[k] = None
        curve = BlowupCurve(list(zip(xs, ys)))
        got, want = io.StringIO(), io.StringIO()
        curve.write_csv(got)
        repr_table(want, "x,y", curve.samples)
        assert got.getvalue() == want.getvalue()

    def test_ragged_mask_matches_repr_writer(self):
        rng = np.random.default_rng(5)
        mask = rng.random((7, 13)) < 0.3
        grid = Grid2D(13, 7, -1.0, 0.5, 0.25, 0.125)
        result = MarchResult(ScalarField2D(grid, np.where(mask, np.nan, 1.0)))
        got, want = io.StringIO(), io.StringIO()
        result.write_mask_csv(got)
        repr_table(want, grid.header(), mask.astype(int).tolist())
        assert got.getvalue() == want.getvalue()

    def test_write_failure_is_raised_promptly(self, monkeypatch):
        # 100 blocks of 4 rows; the stream fails on its third block
        monkeypatch.setattr(fields, "_CSV_BLOCK_VALUES", 64)
        f = ScalarField2D(Grid2D(16, 400, 0.0, 0.0, 1.0, 1.0),
                          np.arange(6400.0).reshape(400, 16))
        formatted = []

        def counting(*args):
            formatted.append(args)
            return format_csv(*args)
        monkeypatch.setattr("liouville._ryu.format_csv", counting)

        class Failing(io.StringIO):
            error = OSError(errno.EPIPE, "Broken pipe")
            writes = 0

            def write(self, text):  # the header, then one call a block
                self.writes += 1
                if self.writes == 4:
                    time.sleep(0.2)  # the producer fills both slots
                    raise self.error
                return super().write(text)

        stream = Failing()
        raised = []

        def call():
            try:
                f.write_csv(stream)
            except OSError as exc:
                raised.append(exc)

        threads = threading.active_count()
        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive()
        assert raised == [stream.error]
        assert threading.active_count() == threads
        assert stream.writes == 4  # none after the failed one
        assert len(stream.getvalue().splitlines()) == 9  # header, 2 blocks
        assert len(formatted) <= 8  # not the 100 blocks of the field


class TestReadCsvBlocks:
    """``read_csv`` parses whole rows in blocks of about 2^14 values; the
    values come back bit for bit across the seams, and what the blocks
    must not see is refused before numpy parses it."""

    @pytest.mark.parametrize("ny, nx", [
        (37, 1000),  # blocks of 16 rows, a ragged last one of 5
        (20000, 2),  # blocks of 8192 rows: 3 of them
        (3, 20000),  # rows wider than a block: one row a block
    ])
    def test_bits_survive_block_seams(self, ny, nx):
        rng = np.random.default_rng(ny)
        values = rng.standard_normal((ny, nx)) * 10.0 ** rng.integers(
            -300, 300, (ny, nx))
        values[rng.random((ny, nx)) < 0.01] = np.nan
        f = ScalarField2D(Grid2D(nx, ny, -0.5, 0.25, 0.1, 0.3), values)
        buf = io.StringIO()
        f.write_csv(buf)
        buf.seek(0)
        back = ScalarField2D.read_csv(buf)
        assert back.grid == f.grid
        assert np.array_equal(back.values.view(np.uint64),
                              values.view(np.uint64))

    def test_summary_line_after_several_blocks(self):
        g = Grid2D.from_bounds(0.0, 0.0, 1.0, 1.0, 1000, 40)
        X, Y = g.meshgrid()
        f = ScalarField2D(g, X - 3 * Y)
        buf = io.StringIO()
        f.write_csv(buf)
        buf.write(json.dumps({"status": "ok"}) + "\n")
        buf.seek(0)
        back = ScalarField2D.read_csv(buf)
        assert np.array_equal(back.values, f.values)
        assert json.loads(buf.readline()) == {"status": "ok"}
        assert buf.readline() == ""

    WIDE = "# 20000 2 0 0 1 1\n" + ",".join(["1"] * 20000) + "\n"

    @pytest.mark.parametrize("text, message", [
        ("# 2 3 0 0 1 1\n1,2\n\n3,4\n", "row 1 is blank"),
        # the second row is a block of its own
        (WIDE + "\n", "row 1 is blank"),
        (WIDE + "1,2\n", "row 1 holds 2 values, expected 20000"),
        ("# 2 2 0 0 1 1\n1,2\n3,#4\n", "'#4'"),
        ("# 2 2 0 0 1 1\n1,2\n3,1_0\n", "'1_0'"),  # float() read 10
        ("# 2 2 0 0 1 1\n1,2\n3,\uff11\n", "'\uff11'"),  # float() read 1
    ], ids=["blank-row", "blank-block", "ragged-block", "comment",
            "underscore", "full-width-digit"])
    def test_refused_rows_are_fields_errors(self, text, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FieldsError) as info:
                ScalarField2D.read_csv(io.StringIO(text))
        assert type(info.value) is FieldsError
        assert message in str(info.value)


class TestResidualElliptic:
    def test_zero_field(self):
        r = residual_elliptic(ScalarField2D(unit_grid(5), np.zeros((5, 5))), P11)
        inner = r.values[1:-1, 1:-1]
        assert np.all(inner == -1.0)
        assert np.isnan(r.values[0]).all() and np.isnan(r.values[:, 0]).all()

    def test_grid_too_small(self):
        with pytest.raises(GridTooSmallError):
            residual_elliptic(ScalarField2D(unit_grid(2), np.zeros((2, 2))), P11)

    def test_harmonic_plus_linear(self):
        # Delta(x^2 - y^2) = 0 exactly for the 5-point stencil
        X, Y = unit_grid(9).meshgrid()
        f = ScalarField2D(unit_grid(9), X * X - Y * Y)
        r = residual_elliptic(f, LiouvilleParams(2.0, 1.0))
        expect = -2.0 * np.exp(X * X - Y * Y)[1:-1, 1:-1]
        assert np.allclose(r.values[1:-1, 1:-1], expect, rtol=1e-13)


class TestResidualHyperbolic:
    def test_zero_field(self):
        r = residual_hyperbolic(ScalarField2D(unit_grid(4), np.zeros((4, 4))), P11)
        assert r.values.shape == (3, 3)
        assert np.all(r.values == -1.0)

    def test_two_by_two_is_enough(self):
        f = ScalarField2D(Grid2D(2, 2, 0.0, 0.0, 1.0, 1.0), np.zeros((2, 2)))
        assert residual_hyperbolic(f, P11).values.shape == (1, 1)

    def test_linear_field_matches_pointwise(self):
        # D_xy of x + y vanishes, so r = -e^(cell average of x + y)
        g = unit_grid(6)
        X, Y = g.meshgrid()
        f = ScalarField2D(g, X + Y)
        r = residual_hyperbolic(f, P11)
        Xc, Yc = g.cell_centers().meshgrid()
        assert np.allclose(r.values, -np.exp(Xc + Yc), rtol=1e-14)


class TestResidualLog:
    def test_unit_field(self):
        r = residual_log(ScalarField2D(unit_grid(4), np.ones((4, 4))), 1.0)
        assert np.all(r.values == -1.0)

    def test_zero_K_rejected(self):
        with pytest.raises(FieldsError):
            residual_log(ScalarField2D(unit_grid(4), np.ones((4, 4))), 0.0)

    def test_nonpositive_entry(self):
        v = np.ones((4, 4))
        v[2, 1] = 0.0
        with pytest.raises(NonPositiveFieldError):
            residual_log(ScalarField2D(unit_grid(4), v), 1.0)

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0])
    def test_nonpositive_finite_entries_rejected(self, bad):
        v = np.ones((4, 4))
        v[3, 3] = bad
        with pytest.raises(NonPositiveFieldError):
            residual_log(ScalarField2D(unit_grid(4), v), 1.0)

    @pytest.mark.parametrize("masked", [np.nan, -np.inf])
    def test_nan_and_minus_inf_are_exempt(self, masked):
        # only finite entries are checked for sign: -inf, like NaN, gives
        # non-finite cells instead of an error
        v = np.ones((4, 4))
        v[1, 2] = masked
        with np.errstate(invalid="ignore"):
            r = residual_log(ScalarField2D(unit_grid(4), v), 1.0)
        assert np.isnan(r.values[:2, 1:3]).all()
        assert np.isfinite(r.values).sum() == 9 - 4

    def test_agrees_with_hyperbolic_residual(self):
        g = Grid2D.from_bounds(0.5, 0.5, 1.5, 1.5, 33, 33)
        X, Y = g.meshgrid()
        u = ScalarField2D(g, np.log(2.0) - 2 * np.log(X + Y))
        r_h = residual_hyperbolic(u, P11)
        r_log = residual_log(ScalarField2D(g, np.exp(u.values)), 1.0)
        # r_log = r_h / Tbar with the geometric cell mean Tbar.  The
        # comparison passes u through exp then log, which costs a few
        # ulps per node, and the cross difference amplifies that by
        # 1/(hx*hy); the bound carries that factor.
        u4 = u.values
        tbar = np.exp((u4[:-1, :-1] + u4[:-1, 1:] + u4[1:, :-1] + u4[1:, 1:]) / 4)
        eps = np.finfo(float).eps
        amp = (1.0 + float(np.abs(u4).max())) / (g.hx * g.hy * float(tbar.min()))
        bound = 20 * eps * amp
        assert np.all(np.abs(r_log.values - r_h.values / tbar) <= bound)


def seam_field(nan_band: bool) -> ScalarField2D:
    """A smooth field on 131 x 200 nodes with hx != hy: rows cross several
    64-row blocks and end in a ragged one.  ``nan_band`` masks rows 61-66
    (across the seam at row 64) in a run of columns, plus single nodes
    on the first and last rows."""
    g = Grid2D(131, 200, 0.3, 0.2, 0.011, 0.007)
    X, Y = g.meshgrid()
    v = np.log(2.0) - 2.0 * np.log(X + Y) + 0.05 * np.sin(7 * X * Y)
    if nan_band:
        v[61:67, 40:90] = np.nan
        v[0, 5] = v[-1, -3] = np.nan
    return ScalarField2D(g, v)


def _probe_masked(residual, field: ScalarField2D) -> np.ndarray:
    """The masked cells found by the same residual on a 1.0/NaN probe."""
    probe = np.where(np.isnan(field.values), np.nan, 1.0)
    with np.errstate(all="ignore"):
        return np.isnan(residual(ScalarField2D(field.grid, probe)).values)


class TestRowBlocks:
    """The stencils run in row blocks: the assembled residual must have the
    bits of a whole-array evaluation, across seams and ragged ends."""

    RESIDUALS = {
        "elliptic": (lambda f: residual_elliptic(f, LiouvilleParams(2.0, 1.5)),
                     True),
        "hyperbolic": (lambda f: residual_hyperbolic(f, LiouvilleParams(-3.0, 0.5)),
                       False),
        "log": (lambda f: residual_log(ScalarField2D(f.grid, np.exp(f.values)),
                                       2.0), False),
    }

    @pytest.mark.parametrize("eq", sorted(RESIDUALS))
    @pytest.mark.parametrize("nan_band", [False, True])
    def test_blocks_match_one_block(self, per_block_height, eq, nan_band):
        residual, _ = self.RESIDUALS[eq]
        f = seam_field(nan_band)
        with np.errstate(invalid="ignore"):
            results = per_block_height(lambda: residual(f).values)
        assert len({r.tobytes() for r in results}) == 1

    def test_stencils_match_whole_array_formulas(self):
        f = seam_field(nan_band=True)
        v, g = f.values, f.grid
        p = LiouvilleParams(2.0, 1.5)
        expect = np.full_like(v, np.nan)
        expect[1:-1, 1:-1] = (laplacian(v, g.hx, g.hy)
                              - p.K * np.exp(p.a * v[1:-1, 1:-1]))
        assert residual_elliptic(f, p).values.tobytes() == expect.tobytes()
        dxy = (v[1:, 1:] - v[1:, :-1] - v[:-1, 1:] + v[:-1, :-1]) / (g.hx * g.hy)
        mean = 0.25 * (v[1:, 1:] + v[1:, :-1] + v[:-1, 1:] + v[:-1, :-1])
        expect = dxy - p.K * np.exp(p.a * mean)
        assert residual_hyperbolic(f, p).values.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("eq", sorted(RESIDUALS))
    def test_masked_cells_match_the_probe_residual(self, eq):
        residual, node = self.RESIDUALS[eq]
        f = seam_field(nan_band=True)
        masked = _reads_masked(np.isnan(f.values), node=node)
        probe = _probe_masked(residual, f)
        assert np.array_equal(masked, probe)
        assert masked[1:-1, 1:-1].any()

    def test_residual_log_memory_is_bounded(self):
        # 513^2 nodes: the residual is one field; its blocked temporaries,
        # and the positivity test's masks, must stay small beside it
        g = Grid2D.from_bounds(0.5, 0.5, 1.5, 1.5, 513, 513)
        X, Y = g.meshgrid()
        T = ScalarField2D(g, 2.0 / (X + Y) ** 2)
        del X, Y
        field_bytes = T.values.nbytes
        tracemalloc.start()
        try:
            residual_log(T, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * field_bytes


class TestNorms:
    def test_constant_interior(self):
        r = residual_elliptic(ScalarField2D(unit_grid(3), np.zeros((3, 3))), P11)
        assert norms(r).max_abs == 1.0

    def test_zero(self):
        f = ScalarField2D(unit_grid(3), np.zeros((3, 3)))
        assert norms(f) == (0.0, 0.0)

    def test_single_node_l2(self):
        g = Grid2D(3, 3, 0.0, 0.0, 0.5, 0.5)
        v = np.full((3, 3), np.nan)
        v[1, 1] = 2.0
        assert norms(ScalarField2D(g, v)).l2 == pytest.approx(1.0)

    def test_all_sentinel(self):
        with pytest.raises(EmptyInteriorError):
            norms(ScalarField2D(unit_grid(3), np.full((3, 3), np.nan)))

    @pytest.mark.parametrize("values", [
        [-0.0, -0.0], [0.0, -0.0], [-3.0, 2.0, np.nan], [1.5, -np.inf]],
        ids=["negative-zeros", "mixed-zeros", "nan", "infinite"])
    def test_bits_match_abs_and_squares(self, values):
        v = np.full(9, np.nan)
        v[:len(values)] = values
        got = norms(ScalarField2D(unit_grid(3), v.reshape(3, 3)))
        kept = v[~np.isnan(v)]
        l2 = math.sqrt(0.25 * float((kept * kept).sum()))
        assert np.float64(got.max_abs).tobytes() == \
            np.abs(kept).max().tobytes()
        assert np.float64(got.l2).tobytes() == np.float64(l2).tobytes()

    def test_memory_is_one_copy(self):
        # 1024^2 nodes with NaNs: the kept entries are copied once (plus
        # the mask), not twice more for |kept| and kept^2
        v = np.random.default_rng(1).standard_normal((1024, 1024))
        v[::7, ::3] = np.nan
        f = ScalarField2D(unit_grid(1024), v)
        tracemalloc.start()
        try:
            norms(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * v.nbytes


@settings(max_examples=50, deadline=None)
@given(st.floats(-1e6, 1e6).filter(lambda c: c == c), st.integers(0, 10 ** 6))
def test_norms_scale_homogeneously(c, seed):
    g = Grid2D.from_bounds(0.0, 0.0, 2.0, 1.0, 6, 5)
    v = np.random.default_rng(seed).standard_normal((5, 6))
    base = norms(ScalarField2D(g, v))
    scaled = norms(ScalarField2D(g, c * v))
    assert scaled.max_abs == pytest.approx(abs(c) * base.max_abs, rel=1e-12)
    assert scaled.l2 == pytest.approx(abs(c) * base.l2, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_norms_permutation_invariant(seed):
    g = unit_grid(5)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(25)
    shuffled = rng.permutation(v)
    assert norms(ScalarField2D(g, v.reshape(5, 5))) == pytest.approx(
        norms(ScalarField2D(g, shuffled.reshape(5, 5))))


class TestExtrapolateResidual:
    def test_cancels_leading_order_exactly(self):
        # residuals built as C*h^2 + D*h^4: the order-2 extrapolation of
        # the (h, h/2) pair must leave only the h^4 part, scaled
        C, D = 3.0, 7.0

        def fake(n):
            g = unit_grid(n)
            h = g.hx
            c = g.cell_centers()
            return ScalarField2D(c, np.full((c.ny, c.nx), C * h * h + D * h ** 4))

        coarse, fine = fake(9), fake(17)
        ex = extrapolate_residual(coarse, fine)
        h = unit_grid(9).hx
        expect = abs((4 * (D * (h / 2) ** 4) - D * h ** 4) / 3.0)
        assert norms(ex).max_abs == pytest.approx(expect, rel=1e-10)

    def test_requires_nesting(self):
        with pytest.raises(FieldsError):
            extrapolate_residual(
                ScalarField2D(unit_grid(9).cell_centers(), np.zeros((8, 8))),
                ScalarField2D(unit_grid(18).cell_centers(), np.zeros((17, 17))))
