"""Command-line surface: golden help texts, the JSON summary contract,
exit codes, and the pipe-friendly CSV flows."""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

# every module a command imports, up front: TestMemoryBounds traces no
# first import
from liouville import (_ryu, action, closedform, elliptic,  # noqa: F401
                       hyperbolic)
from liouville.cli import _digest, _read_field, build_parser, run
from liouville.closedform import hyperbolic_exact
from liouville.expr import AxisPair, parse
from liouville.fields import Grid2D, LiouvilleParams, ScalarField2D

DATA = Path(__file__).parent / "data"

HELP_NAMES = [
    "top", "exact_h", "exact_e", "blowup_exact", "blowup_curve", "verify",
    "solve_elliptic", "gelfand", "blowup_approx", "march", "backlund",
    "action", "convert_log",
]


def invoke(args, stdin_text=None):
    """Run the CLI in-process; ``stdin_text`` may be str or raw bytes
    (decoded as UTF-8, strictly, like a pipe)."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if isinstance(stdin_text, bytes):
        sys.stdin = io.TextIOWrapper(io.BytesIO(stdin_text), encoding="utf-8")
    elif stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(args)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def summary_of(stdout):
    return json.loads(stdout.rstrip("\n").rsplit("\n", 1)[-1])


def spawn(args, stdout):
    """Start the CLI of this checkout in a new process through ``main()``,
    as the console script and the benchmark start it; stderr piped."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.Popen(
        [sys.executable, "-c", "import liouville.cli as c; c.main()", *args],
        stdout=stdout, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src))


class TestHelpGoldens:
    @pytest.mark.parametrize("name", HELP_NAMES)
    def test_help_matches_golden(self, name):
        args = ["--help"] if name == "top" else [name.replace("_", "-"), "--help"]
        code, out, err = invoke(args)
        assert code == 0
        assert err == ""
        assert out == (DATA / f"help_{name}.txt").read_text()


class TestSummaryContract:
    ARGS = ["exact-h", "--f", "exp(x)", "--g", "exp(y)", "--nx", "17",
            "--ny", "17"]

    def test_reruns_are_byte_identical(self):
        first = invoke(self.ARGS)
        second = invoke(self.ARGS)
        assert first == second
        assert first[0] == 0

    def test_summary_shape(self):
        _, out, _ = invoke(self.ARGS)
        line = out.rstrip("\n").rsplit("\n", 1)[-1]
        doc = json.loads(line)
        assert doc["status"] == "ok"
        assert doc["command"] == "exact-h"
        assert re.fullmatch(r"[0-9a-f]{12}", doc["digest"])
        # canonical form: sorted keys, no NaN
        assert line == json.dumps(doc, sort_keys=True, allow_nan=False)

    def test_digest_tracks_inputs(self):
        d17 = summary_of(invoke(self.ARGS)[1])["digest"]
        d33 = summary_of(invoke(self.ARGS[:-1] + ["33"])[1])["digest"]
        assert d17 != d33

    def test_digest_is_sha256_of_the_inputs(self):
        # the built-in sha256 gives hashlib's digest of the same bytes;
        # the value is the one hashlib gave for this argv
        ns = vars(build_parser().parse_args(self.ARGS))
        inputs = {k: v for k, v in ns.items() if k != "func"}
        blob = json.dumps(inputs, sort_keys=True, default=str).encode("utf-8")
        want = hashlib.sha256(blob).hexdigest()[:12]
        assert _digest(inputs) == want == "e9338f0c57ea"
        assert summary_of(invoke(self.ARGS)[1])["digest"] == want

    @pytest.mark.parametrize("n", [362, 363], ids=["built-in", "hashlib"])
    def test_field_sha256_on_either_side_of_the_hashlib_cut(self, n,
                                                            tmp_path):
        # 362^2 values and fewer hash through the built-in sha256, 363^2
        # through hashlib: both give hashlib's digest of the same bytes
        grid = Grid2D(n, n, 0.0, 0.0, 0.5, 0.25)
        field = ScalarField2D(grid, np.arange(n * n, dtype=float).reshape(n, n))
        field.write_csv(tmp_path / "u.csv")
        ns = argparse.Namespace(infile=str(tmp_path / "u.csv"))
        _read_field(ns)
        want = hashlib.sha256(grid.header().encode("utf-8")
                              + field.values.tobytes()).hexdigest()
        assert ns.field_sha256 == want

    def test_digest_covers_the_field_read(self):
        # one argv, three piped fields: three digests; the same field
        # twice: the same digest
        digests = []
        for f in ("exp(x)", "x", "x+2", "x"):
            _, field, _ = invoke(["exact-h", "--f", f, "--g", "exp(y)",
                                  "--nx", "9", "--ny", "9"])
            code, out, _ = invoke(["verify", "--eq", "hyperbolic"],
                                  stdin_text=field)
            assert code == 0
            digests.append(summary_of(out)["digest"])
        assert len(set(digests[:3])) == 3
        assert digests[3] == digests[1]


class TestExitCodes:
    def test_missing_required_flag(self):
        # a missing required flag and an unknown one are both usage errors
        for args in (["exact-h"], ["blowup-exact", "--threads", "4"]):
            code, out, err = invoke(args)
            assert code == 1
            assert out.count("\n") == 1
            doc = summary_of(out)
            assert doc["status"] == "error"
            assert doc["command"] == args[0]
            assert doc["error"]["code"] == "cli.usage"
            assert err.startswith("error:")

    # a field of 263,169 values: megabytes, far past a pipe's buffer
    FIELD_513 = ["exact-h", "--f", "exp(x)", "--g", "exp(y)", "--nx", "513",
                 "--ny", "513"]

    def test_closed_stdout_pipe_is_one_error_line(self):
        # as `liouville exact-h ... | head -c 100`: the reader goes away
        # while the field is written, so the summary line cannot follow
        proc = spawn(self.FIELD_513, subprocess.PIPE)
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs the /dev/full device")
    def test_full_stdout_is_one_error_line(self):
        with open("/dev/full", "wb") as full:
            proc = spawn(self.FIELD_513, full)
            err = proc.communicate(timeout=60)[1].decode()
        assert proc.returncode == 1
        assert "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs the /dev/full device")
    @pytest.mark.parametrize("args", [["--help"], ["exact-h", "--help"]],
                             ids=["top", "exact-h"])
    def test_help_to_full_stdout_is_one_error_line(self, args):
        # argparse alone would drop the failed write and exit 0
        with open("/dev/full", "wb") as full:
            proc = spawn(args, full)
            err = proc.communicate(timeout=60)[1].decode()
        assert proc.returncode == 1
        assert err.startswith("error:") and err.count("\n") == 1

    def test_failing_stream_without_descriptor(self):
        # run() called in-process with an in-memory stdout that fails
        class Dead(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        err = io.StringIO()
        with contextlib.redirect_stdout(Dead()), \
                contextlib.redirect_stderr(err):
            code = run(self.FIELD_513[:5] + ["--nx", "5", "--ny", "5"])
        assert code == 1
        assert err.getvalue() == "error: [Errno 32] Broken pipe\n"

    def test_singular_node_is_data_error(self):
        code, out, err = invoke(["exact-h", "--f", "x", "--g", "y",
                                 "--domain", "-1", "-1", "1", "1"])
        assert code == 1
        assert summary_of(out)["error"]["code"] == "closedform.singular_node"

    def test_nonconvergence_is_exit_two(self):
        code, out, _ = invoke(["solve-elliptic", "--geometry", "disk",
                               "--n", "257", "--K", "-2", "--out", "/dev/null"])
        assert code == 2
        assert summary_of(out)["error"]["code"] == "elliptic.non_convergence"

    def test_gelfand_needs_two_steps(self):
        code, out, err = invoke(["gelfand", "--n", "65", "--max-steps", "0"])
        assert code == 1
        assert out.count("\n") == 1
        doc = summary_of(out)
        assert doc["status"] == "error"
        assert doc["error"]["code"] == "elliptic.error"
        assert err.startswith("error:")

    @pytest.mark.parametrize("args", [
        ["solve-elliptic", "--nx", "9", "--ny", "9", "--max-iter=-1"],
        ["solve-elliptic", "--geometry", "disk", "--n", "9",
         "--max-iter=-1"],
    ], ids=["solve-elliptic", "solve-elliptic-disk"])
    def test_negative_max_iter_is_usage_error(self, args):
        # was reported as "no convergence in -1 iterations", exit 2
        code, out, err = invoke(args)
        assert code == 1
        assert out.count("\n") == 1
        doc = summary_of(out)
        assert doc["error"]["code"] == "elliptic.error"
        assert "max_iter must be >= 0" in doc["error"]["message"]
        assert err.startswith("error:") and err.count("\n") == 1

    def test_negative_fd_check_is_usage_error(self):
        # was run as --fd-check 0, exit 0
        _, field, _ = invoke(["exact-h", "--f", "x", "--g", "y",
                              "--nx", "5", "--ny", "5"])
        code, out, err = invoke(["action", "--fd-check=-1"], stdin_text=field)
        assert code == 1
        assert out.count("\n") == 1
        doc = summary_of(out)
        assert doc["error"]["code"] == "cli.usage"
        assert "--fd-check must be >= 0" in doc["error"]["message"]
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("f", [
        "x^(10^400)",
        "x^(2^2^2^2^2)",
        "x^(-(10^400))",
        "(" * 3000 + "x" + ")" * 3000,
        "+".join(["x"] * 3000),
        "exp(" * 400 + "x" + ")" * 400,
    ], ids=["exponent-10^400", "exponent-2^2^2^2^2", "exponent-minus-10^400",
            "3000-parentheses", "3000-term-sum", "400-nested-exp"])
    def test_expression_limits_are_syntax_errors(self, f):
        # were an OverflowError or a RecursionError traceback, no summary
        code, out, err = invoke(["exact-h", "--f", f, "--g", "y",
                                 "--nx", "3", "--ny", "3"])
        assert code == 1
        assert out.count("\n") == 1
        assert summary_of(out)["error"]["code"] == "expr.syntax"
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("args, power", [
        (["exact-h", "--f", "x+2^2000", "--g", "y"], "2^2000"),
        (["exact-h", "--f", "x+10^400", "--g", "y"], "10^400"),
        (["exact-e", "--F", "z+2^2000"], "2^2000"),
        (["solve-elliptic", "--boundary", "x+2^2000"], "2^2000"),
    ], ids=["exact-h-2^2000", "exact-h-10^400", "exact-e-2^2000",
            "solve-elliptic-2^2000"])
    def test_overflowing_constant_power_is_domain_error(self, args, power):
        # a constant base is a Python scalar, whose ** raised
        # OverflowError: a traceback and no summary
        size = "5" if args[0] == "solve-elliptic" else "3"
        code, out, err = invoke(args + ["--nx", size, "--ny", size])
        assert code == 1
        assert out.count("\n") == 1
        doc = summary_of(out)
        assert doc["error"]["code"] == "expr.domain"
        assert f"'{power}'" in doc["error"]["message"]
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("args, constant", [
        (["exact-h", "--f", "x+1e200^2", "--g", "y"], "1e200^2"),
        (["exact-h", "--f", "x+10^308*10", "--g", "y"], "10^308*10"),
        (["exact-h", "--f", "x", "--g", "y*exp(1000)"], "exp(1000)"),
        (["exact-h", "--f", "x+1e400", "--g", "y"], "1e400"),
        (["exact-e", "--F", "z+1e200*1e200"], "1e200*1e200"),
        (["solve-elliptic", "--boundary", "x+1e200^3"], "1e200^3"),
        (["blowup-curve", "--f", "x^2-0.5+1e200^2", "--g", "exp(y)-1"],
         "1e200^2"),
    ], ids=["exact-h-1e200^2", "exact-h-10^308*10", "exact-h-exp-1000",
            "exact-h-1e400", "exact-e-1e200*1e200", "solve-elliptic-1e200^3",
            "blowup-curve-1e200^2"])
    def test_overflowing_constant_is_domain_error(self, args, constant):
        # a constant that overflows to inf without **: exact-h reported
        # closedform.non_finite, solve-elliptic elliptic.error, and
        # blowup-curve status ok with no crossing found
        size = "5" if args[0] == "solve-elliptic" else "3"
        grid = [] if args[0] == "blowup-curve" else ["--nx", size,
                                                     "--ny", size]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(args + grid)
        assert code == 1
        assert out.count("\n") == 1
        doc = summary_of(out)
        assert doc["error"]["code"] == "expr.domain"
        assert f"'{constant}'" in doc["error"]["message"]
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("M", [["-100000000000000000", "0"],
                                   ["-2000", "0"]],
                             ids=["M-minus-1e17", "M-minus-2000"])
    def test_blowup_approx_below_zero_ends(self, M):
        # a homotopy in unit steps from M = -1e17, where cur + 1 == cur,
        # never ended, and from -2000 it made 2000 solves.  A new
        # process, so that a run that does not end fails at the timeout
        argv = ["blowup-approx", "--n", "5", "--M", *M]
        code = ("import io, time, contextlib; from liouville.cli import run\n"
                "buf, t0 = io.StringIO(), time.perf_counter()\n"
                "with contextlib.redirect_stdout(buf):\n"
                f"    code = run({argv!r})\n"
                "print(code, time.perf_counter() - t0)\n"
                "print(buf.getvalue(), end='')")
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        head, out = proc.stdout.split("\n", 1)
        exit_code, seconds = head.split()
        assert exit_code == "0" and proc.stderr == ""
        assert float(seconds) < 1.0
        assert [ln for ln in out.splitlines() if ln.startswith("{")] == [
            out.splitlines()[-1]]
        assert summary_of(out)["M"] == [float(m) for m in M]

    @pytest.mark.parametrize("args, code, error", [
        (["--K", "1e300"], 1, "elliptic.singular_jacobian"),
        (["--K", "1e308"], 1, "elliptic.singular_jacobian"),
        (["--a", "1e300"], 2, "elliptic.non_convergence"),
        (["--geometry", "disk", "--a", "1e308"], 2,
         "elliptic.non_convergence"),
        (["--a", "1e308"], 1, "elliptic.singular_jacobian"),
        (["--K", "1e10", "--a=-1e300"], 1, "elliptic.singular_jacobian"),
        (["--boundary=1e308"], 1, "elliptic.error"),
        (["--boundary=-1e308"], 1, "elliptic.error"),
        (["--geometry", "disk", "--boundary=1e308"], 1, "elliptic.error"),
        (["--geometry", "disk", "--boundary=-1e308"], 1, "elliptic.error"),
    ], ids=["K-1e300", "K-1e308", "a-1e300", "disk-a-1e308", "a-1e308",
            "K-1e10-a-minus-1e300", "boundary-1e308", "boundary-minus-1e308",
            "disk-boundary-1e308", "disk-boundary-minus-1e308"])
    def test_huge_coefficients_end_in_one_summary(self, args, code, error):
        # the first four ended in a ZeroDivisionError traceback: the first
        # Newton correction was exactly 0, from an inf GMRES tolerance on
        # rectangles and an underflowing du.du on the disk; K = 1e308 and
        # the next two printed a RuntimeWarning from a Jacobian diagonal,
        # or its mean, the preconditioner's shift, that overflows.  The
        # boundary cases printed an overflow RuntimeWarning from the
        # boundary term A u|_boundary and then exited 2 at a non-finite
        # residual; they are refused before any solve
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, out, err = invoke(["solve-elliptic", *args])
        assert got == code
        assert out.count("\n") == 1
        assert summary_of(out)["error"]["code"] == error
        assert err.startswith("error:") and err.count("\n") == 1

    def test_tower_exponent_is_refused_before_it_is_formed(self):
        # 2^2^2^2^2^2 = 2^(2^65536): folding it never finished
        proc = spawn(["exact-h", "--f", "x^2^2^2^2^2^2", "--g", "y"],
                     subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        assert proc.returncode == 1
        assert out.count(b"\n") == 1
        assert summary_of(out.decode())["error"]["code"] == "expr.syntax"
        assert err.decode().startswith("error:") and err.count(b"\n") == 1

    def test_march_divergence_is_exit_two(self, monkeypatch):
        real = hyperbolic._lambert_w

        def spoiled(x):
            w = real(x)
            w[-1] = np.nan
            return w

        monkeypatch.setattr(hyperbolic, "_lambert_w", spoiled)
        code, out, err = invoke(["march", "--phi", "0", "--psi", "0",
                                 "--nx", "9", "--ny", "9"])
        assert code == 2
        assert out.count("\n") == 1
        doc = summary_of(out)
        assert doc["status"] == "error"
        assert doc["error"]["code"] == "hyperbolic.cell_divergence"
        # the first anti-diagonal (d = 2) holds the single cell (1, 1)
        assert "(i=1, j=1)" in doc["error"]["message"]
        assert err.startswith("error:")

    @pytest.mark.parametrize("flag", ["--out", "--in", "--mask-out"])
    def test_os_errors_keep_the_summary(self, flag, tmp_path):
        missing = str(tmp_path / "no_such_dir" / "field.csv")
        args = {
            "--out": ["exact-h", "--f", "x", "--g", "y", "--out", missing],
            "--in": ["verify", "--eq", "hyperbolic", "--in", missing],
            "--mask-out": ["march", "--phi", "0", "--psi", "0",
                           "--out", "/dev/null", "--mask-out", missing],
        }[flag]
        code, out, err = invoke(args)
        assert code == 1
        assert out.count("\n") == 1
        doc = summary_of(out)
        assert doc["status"] == "error"
        assert doc["command"] == args[0]
        assert doc["error"]["code"] == "io.error"
        assert err.startswith("error:")

    HUGE_RECT = ["--nx", "100000", "--ny", "100000"]

    @pytest.mark.parametrize("args", [
        ["exact-h", "--f", "x", "--g", "y"] + HUGE_RECT,
        ["exact-e", "--F", "z"] + HUGE_RECT,
        ["blowup-exact"] + HUGE_RECT,
        ["march", "--phi", "0", "--psi", "0"] + HUGE_RECT,
        ["backlund"] + HUGE_RECT,
        ["solve-elliptic"] + HUGE_RECT,
        ["gelfand", "--geometry", "rectangle"] + HUGE_RECT,
        ["solve-elliptic", "--geometry", "disk", "--n", "100000000"],
        ["gelfand", "--n", "100000000"],
        ["blowup-approx", "--n", "100000000"],
        # below MAX_NODES but past the radial cap, where the radial
        # solve's rounding overtakes its discretization error: gelfand
        # --n 262145 put its fold above lambda = 2 under status ok
        ["solve-elliptic", "--geometry", "disk", "--n", "1048577"],
        ["gelfand", "--n", "262145"],
    ], ids=["exact-h", "exact-e", "blowup-exact", "march", "backlund",
            "solve-elliptic", "gelfand-rectangle", "solve-elliptic-disk",
            "gelfand-disk", "blowup-approx", "solve-elliptic-radial-cap",
            "gelfand-radial-cap"])
    def test_grid_cap_is_checked_before_allocating(self, args):
        # the cap is checked when the grid or disk is built, before any
        # array; without it the first ten sizes would ask for tens of
        # gigabytes
        code, out, err = invoke(args)
        assert code == 1
        assert out.count("\n") == 1
        assert summary_of(out)["error"]["code"] == "fields.grid_too_large"
        assert err.startswith("error:")

    def test_blowup_curve_samples_are_capped(self):
        # without the cap this would run 2^23 + 1 bisections
        code, out, err = invoke(["blowup-curve", "--f", "x", "--g", "y",
                                 "--samples", str(2 ** 23 + 1)])
        assert code == 1
        assert out.count("\n") == 1
        assert summary_of(out)["error"]["code"] == "fields.grid_too_large"
        assert err.startswith("error:")

    def test_blowup_curve_non_finite_crossing_is_data_error(self):
        # past x = 709/800, f = e^(800 x) overflows and f + g at the
        # bracket's upper end is inf - inf: the crossing would be NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke([
                "blowup-curve", "--f", "exp(800*x)", "--g=-exp(800*y)",
                "--x-range", "0.8", "1.0", "--y-range", "0.8", "1.0",
                "--samples", "5"])
        assert code == 1
        assert out.count("\n") == 1
        doc = summary_of(out)
        assert doc["error"]["code"] == "closedform.error"
        assert "sample 2 (x = 0.9)" in doc["error"]["message"]
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("args, code", [
        (["exact-h", "--f", "x", "--g", "y", "--K", "inf"], "fields.error"),
        (["exact-h", "--f", "x", "--g", "y", "--a", "nan"], "fields.error"),
        (["march", "--phi", "0", "--psi", "0", "--K", "nan",
          "--nx", "9", "--ny", "9"], "fields.error"),
        (["solve-elliptic", "--nx", "9", "--ny", "9", "--a", "nan"],
         "fields.error"),
        (["solve-elliptic", "--geometry", "disk", "--n", "9", "--K=-inf"],
         "fields.error"),
        (["exact-e", "--F", "z", "--K", "inf"], "closedform.error"),
        (["verify", "--eq", "hyperbolic", "--K", "inf"], "fields.error"),
        (["verify", "--eq", "elliptic", "--a", "nan"], "fields.error"),
        (["verify", "--eq", "log", "--K", "inf"], "fields.error"),
        (["march", "--phi", "0", "--psi", "0", "--threshold", "nan",
          "--nx", "9", "--ny", "9"], "hyperbolic.error"),
        (["backlund", "--w-phi", "x", "--w-psi", "y", "--bt-a", "nan",
          "--nx", "9", "--ny", "9"], "hyperbolic.error"),
        (["gelfand", "--n", "9", "--lam-stop", "nan", "--u0-cap", "1e9"],
         "elliptic.error"),
        (["gelfand", "--n", "9", "--u0-cap", "inf"], "elliptic.error"),
        (["gelfand", "--n", "9", "--lam-start", "nan"], "elliptic.error"),
    ], ids=["exact-h-K", "exact-h-a", "march", "solve-elliptic",
            "solve-elliptic-disk", "exact-e", "verify-hyperbolic",
            "verify-elliptic", "verify-log", "march-threshold",
            "backlund-bt-a", "gelfand-lam-stop", "gelfand-u0-cap",
            "gelfand-lam-start"])
    def test_non_finite_params_are_rejected(self, args, code):
        # a NaN K masked most of a march, an infinite one made every
        # exact value -inf; both under status: ok
        field = "# 3 3 0.0 0.0 0.5 0.5\n" + "1.0,1.0,1.0\n" * 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exit_code, out, err = invoke(args, stdin_text=field)
        assert exit_code == 1
        assert out.count("\n") == 1
        doc = summary_of(out)
        assert doc["error"]["code"] == code
        assert "finite" in doc["error"]["message"]
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("args, error", [
        (["solve-elliptic", "--nx", "9", "--ny", "9", "--tol", "nan"],
         "elliptic.error"),
        (["solve-elliptic", "--geometry", "disk", "--n", "9", "--tol", "inf"],
         "elliptic.error"),
        (["gelfand", "--n", "9", "--tol", "nan"], "elliptic.error"),
        (["gelfand", "--n", "9", "--fold-tol", "nan"], "elliptic.error"),
        (["blowup-approx", "--n", "9", "--M", "3", "--tol", "nan"],
         "elliptic.error"),
        # a tolerance <= 0 would mean "stop at the rounding floor"
        (["solve-elliptic", "--nx", "9", "--ny", "9", "--tol=-1"],
         "elliptic.error"),
        (["solve-elliptic", "--geometry", "disk", "--n", "9", "--tol", "0"],
         "elliptic.error"),
        (["gelfand", "--n", "9", "--tol=-1"], "elliptic.error"),
        (["gelfand", "--n", "9", "--fold-tol", "0"], "elliptic.error"),
        (["blowup-approx", "--n", "9", "--M", "3", "--tol=-1"],
         "elliptic.error"),
        (["blowup-curve", "--f", "x", "--g", "y - 0.5", "--tol=-1"],
         "closedform.error"),
        (["blowup-curve", "--f", "x", "--g", "y - 0.5", "--tol", "0"],
         "closedform.error"),
    ], ids=["solve-elliptic", "solve-elliptic-disk", "gelfand-tol",
            "gelfand-fold-tol", "blowup-approx", "solve-elliptic-negative",
            "solve-elliptic-disk-zero", "gelfand-tol-negative",
            "gelfand-fold-tol-zero", "blowup-approx-negative",
            "blowup-curve-negative", "blowup-curve-zero"])
    def test_non_finite_tolerances_are_rejected(self, args, error):
        code, out, err = invoke(args)
        assert code == 1
        assert out.count("\n") == 1
        doc = summary_of(out)
        assert doc["error"]["code"] == error
        assert "must be finite" in doc["error"]["message"]
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("M", [["nan"], ["3", "inf"]])
    def test_non_finite_M_is_rejected(self, M, monkeypatch):
        # a NaN or infinite M is refused before any solve
        def solve(*args):
            raise AssertionError("solved before M was checked")

        monkeypatch.setattr(elliptic, "_newton", solve)
        code, out, err = invoke(["blowup-approx", "--n", "65", "--M", *M])
        assert code == 1
        assert out.count("\n") == 1
        doc = summary_of(out)
        assert doc["error"]["code"] == "elliptic.error"
        assert "M must be finite" in doc["error"]["message"]
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("args, stdin_text", [
        (["solve-elliptic", "--domain", "0", "0", "1e200", "1e200",
          "--nx", "9", "--ny", "9"], None),
        (["gelfand", "--geometry", "rectangle", "--domain", "0", "0",
          "1e300", "1e300", "--nx", "9", "--ny", "9"], None),
        (["verify", "--eq", "elliptic"],
         "# 3 3 0 0 1e200 1e200\n" + "1.0,1.0,1.0\n" * 3),
        (["action", "--mu", "1e308"],
         "# 3 3 0.0 0.0 0.5 0.5\n" + "1.0,1.0,1.0\n" * 3),
    ], ids=["solve-elliptic-spacing", "gelfand-rectangle-spacing",
            "verify-elliptic-spacing", "action-mu"])
    def test_overflowing_squares_are_data_errors(self, args, stdin_text):
        # hx^2 and mu^2 overflowed in the stencil or the potential and
        # escaped as a traceback
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(args, stdin_text=stdin_text)
        assert code == 1
        assert out.count("\n") == 1
        doc = summary_of(out)
        assert doc["error"]["code"] == "fields.error"
        assert "finite" in doc["error"]["message"]
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ["exact-h", "--f", "x", "--g", "y", "--K", "1e-308"],
        ["exact-h", "--f", "1e200*x", "--g", "1e200*y", "--nx", "3",
         "--ny", "3"],
        ["exact-h", "--f", "1e-200*x", "--g", "1e-200*y"],
        ["exact-h", "--f", "x+1e200", "--g", "y+1e200"],
        ["exact-h", "--f", "1e-160*x", "--g", "1e-160*y"],
        ["exact-e", "--F", "1e-200*z", "--nx", "3", "--ny", "3"],
        ["exact-e", "--F", "1e-160*z"],
    ], ids=["exact-h-K-tiny", "exact-h-pair-huge", "exact-h-pair-tiny",
            "exact-h-pair-offset", "exact-h-pair-subnormal",
            "exact-e-seed-tiny", "exact-e-seed-subnormal"])
    def test_closed_forms_finite_through_over_and_underflow(self, args):
        # u is finite although the quotient of the closed form would
        # over- or underflow or have a subnormal factor: u is a sum of
        # logarithms, taken without warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(args)
        assert code == 0 and err == ""
        assert summary_of(out)["status"] == "ok"
        assert np.isfinite(ScalarField2D.read_csv(io.StringIO(out)).values).all()

    @pytest.mark.parametrize("args", [
        ["exact-h", "--f", "x", "--g", "y", "--a", "1e-307"],
        ["exact-e", "--F", "z", "--a", "1e-307", "--nx", "3", "--ny", "3"],
    ], ids=["exact-h-a-tiny", "exact-e-a-tiny"])
    def test_non_finite_closed_forms_are_data_errors(self, args):
        # u = ln(...)/a itself overflows: a data error, not inf under
        # status: ok
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(args)
        assert code == 1
        assert out.count("\n") == 1
        doc = summary_of(out)
        assert doc["error"]["code"] == "closedform.non_finite"
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("args, exit_code, error", [
        (["march", "--phi", "1e308*x*10", "--psi", "0"], 1,
         "hyperbolic.error"),
        (["march", "--phi", "exp(1000*x)", "--psi", "1"], 1,
         "hyperbolic.error"),
        (["backlund", "--w-phi", "1e308*x*10"], 2, "hyperbolic.ode_overflow"),
        (["solve-elliptic", "--boundary", "1e308*x*10"], 1, "elliptic.error"),
    ], ids=["march-product", "march-exp", "backlund-product",
            "solve-elliptic-product"])
    def test_overflowing_edge_data_warns_nothing(self, args, exit_code,
                                                 error):
        # the edge expressions overflow at some nodes: numpy's overflow
        # RuntimeWarning reached stderr before the summary
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(args)
        assert code == exit_code
        assert out.count("\n") == 1
        assert summary_of(out)["error"]["code"] == error
        assert err.startswith("error:") and err.count("\n") == 1

    def test_log_form_pins_a(self):
        code, out, _ = invoke(["verify", "--eq", "log", "--a", "2"],
                              stdin_text="")
        assert code == 1
        assert "a = 1" in summary_of(out)["error"]["message"]


class TestNegation:
    """A minus sign on the command line and in an expression."""

    @pytest.mark.parametrize("args", [
        ["solve-elliptic", "--nx", "9", "--ny", "9", "--K", "-1e-3"],
        ["solve-elliptic", "--nx", "9", "--ny", "9", "--K", "-1E+0",
         "--a", "-2.5e-1", "--domain", "-1e-1", "-2E-1", "1e-1", "2e-1"],
        ["blowup-approx", "--n", "9", "--M", "-1e300", "0"],
        ["blowup-approx", "--n", "9", "--M", "-1E+300", "-1e-3"],
    ], ids=["K", "K-a-domain", "M", "M-both"])
    def test_exponent_notation_negatives_are_values(self, args):
        # argparse's negative-number pattern has no exponent: it read
        # "-1e-3" as an unknown option and refused "--K -1e-3" with
        # "expected one argument"
        code, out, err = invoke(args)
        assert code == 0, out
        assert summary_of(out)["status"] == "ok" and err == ""

    def test_separate_value_equals_attached_value(self):
        grid = ["solve-elliptic", "--nx", "9", "--ny", "9"]
        assert invoke(grid + ["--K", "-1e-3"]) == invoke(grid + ["--K=-1e-3"])

    @pytest.mark.parametrize("command, option, expr, rest", [
        ("exact-h", "--f", "-x", ["--g", "-y"]),
        ("march", "--phi", "-2*ln(1.3-0.5*x)", ["--psi", "-2*ln(1.3-0.5*y)"]),
        ("solve-elliptic", "--boundary", "-x", []),
    ], ids=["exact-h", "march", "solve-elliptic"])
    def test_leading_minus_expression_is_a_value(self, command, option, expr,
                                                 rest):
        # argparse took "-x" for an option: "expected one argument"
        args = [command, *rest, "--nx", "9", "--ny", "9"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(args + [option, expr])
        assert code == 0 and err == "", out
        assert invoke(args + [f"{option}={expr}"]) == (code, out, err)

    def test_dash_h_is_still_help(self):
        code, out, _ = invoke(["exact-h", "-h"])
        assert code == 0
        assert out == (DATA / "help_exact_h.txt").read_text()

    def test_unknown_long_option_is_still_usage_error(self):
        code, out, _ = invoke(["exact-h", "--f", "x", "--g", "y", "--bogus"])
        assert code == 1
        assert summary_of(out)["error"]["code"] == "cli.usage"

    @pytest.mark.parametrize("value", ["-inf", "-nan"])
    def test_non_finite_negatives_reach_the_finite_check(self, value):
        code, out, _ = invoke(["solve-elliptic", "--K", value])
        assert code == 1
        assert summary_of(out)["error"]["code"] == "fields.error"

    def test_non_number_after_option_is_usage_error(self):
        code, out, _ = invoke(["solve-elliptic", "--K", "-1e-3x"])
        assert code == 1
        doc = summary_of(out)
        assert doc["error"]["code"] == "cli.usage"
        assert "invalid float value" in doc["error"]["message"]

    def test_negated_constant_is_its_zero_minus_spelling(self):
        # sqrt(-0.04) is the principal 0.2i, as sqrt(0-0.04) always was;
        # a negated constant took -0.2i, moving F by 0.4i
        fields = []
        for F in ("z/2+sqrt(-0.04)", "z/2+sqrt(0-0.04)", "z/2-sqrt(0-0.04)"):
            code, out, _ = invoke(["exact-e", "--F", F, "--nx", "9",
                                   "--ny", "9"])
            assert code == 0, out
            fields.append(out.rsplit("\n", 2)[0])
        assert fields[0] == fields[1] != fields[2]


class TestPipeFlows:
    EXACT = ["exact-h", "--f", "exp(x)", "--g", "exp(y)",
             "--domain", "1", "1", "2", "2", "--nx", "65", "--ny", "65"]

    def test_exact_then_verify(self):
        code, out, _ = invoke(self.EXACT)
        assert code == 0
        # the verifier reads exactly the field rows, so the trailing
        # summary line may stay in the stream
        code, vout, _ = invoke(["verify", "--eq", "hyperbolic"], stdin_text=out)
        assert code == 0
        doc = summary_of(vout)
        assert doc["eq"] == "hyperbolic"
        assert doc["max_abs"] <= 1e-3
        assert doc["cells"] == 64 * 64

    @pytest.mark.parametrize("eq", ["hyperbolic", "elliptic"])
    def test_verify_fails_when_residual_overflows(self, eq):
        # no input is masked, yet every residual cell is non-finite: a
        # verifier that checked nothing must not pass
        field = "# 3 3 0.0 0.0 0.5 0.5\n" + "1e308,1e308,1e308\n" * 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(["verify", "--eq", eq], stdin_text=field)
        assert code == 1
        assert out.count("\n") == 1
        assert summary_of(out)["error"]["code"] == "fields.non_finite_residual"
        assert err.startswith("error:")

    @pytest.mark.parametrize("eq", ["hyperbolic", "elliptic", "log"])
    def test_verify_fails_when_spacing_underflows(self, eq):
        # hx * hy and hx^2 underflow to 0, so every stencil divides by
        # zero; no input is masked, so no cell may count as masked
        field = ("# 3 3 0 0 1e-170 1e-170\n"
                 "0.1,0.2,0.3\n0.4,0.5,0.6\n0.7,0.8,0.9\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = invoke(["verify", "--eq", eq], stdin_text=field)
        assert code == 1
        assert summary_of(out)["error"]["code"] == "fields.non_finite_residual"

    def test_verify_passes_masked_march(self):
        code, out, _ = invoke(["march", "--phi", "0", "--psi", "0",
                               "--domain", "0", "0", "3", "3",
                               "--nx", "33", "--ny", "33",
                               "--threshold", "1.0"])
        assert code == 0
        assert summary_of(out)["n_masked"] > 0
        U = ScalarField2D.read_csv(io.StringIO(out)).values
        corners_finite = (np.isfinite(U[1:, 1:]) & np.isfinite(U[1:, :-1])
                          & np.isfinite(U[:-1, 1:]) & np.isfinite(U[:-1, :-1]))
        code, vout, _ = invoke(["verify", "--eq", "hyperbolic"], stdin_text=out)
        assert code == 0
        doc = summary_of(vout)
        assert doc["status"] == "ok"
        assert doc["cells"] == int(corners_finite.sum())

    def test_convert_log_round(self):
        _, out, _ = invoke(self.EXACT)
        code, tout, _ = invoke(["convert-log", "--direction", "u-to-T"],
                               stdin_text=out)
        assert code == 0
        code, vout, _ = invoke(["verify", "--eq", "log"], stdin_text=tout)
        assert code == 0
        assert summary_of(vout)["max_abs"] <= 1e-3

    def test_action_fails_when_value_overflows(self):
        # no node is masked, yet the action is infinite: exit 1, not ok
        field = "# 3 3 0.0 0.0 0.5 0.5\n" + "1e308,1e308,1e308\n" * 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(["action"], stdin_text=field)
        assert code == 1
        assert out.count("\n") == 1
        assert summary_of(out)["error"]["code"] == "action.non_finite"
        assert err.startswith("error:")

    def test_action_without_potential_ignores_overflow(self):
        # mu = 0 drops the potential, so e^1000 is never formed
        field = "# 3 3 0 0 0.5 0.5\n" + "1000,1000,1000\n" * 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = invoke(["action", "--mu", "0"], stdin_text=field)
        assert code == 0
        doc = summary_of(out)
        assert doc["value"] == 0.0 and doc["grad_max"] == 0.0

    def test_convert_log_fails_when_exp_overflows(self):
        # no node is masked, yet e^u is infinite everywhere: exit 1, not ok
        field = "# 3 3 0.0 0.0 0.5 0.5\n" + "1e308,1e308,1e308\n" * 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(["convert-log", "--direction", "u-to-T"],
                                    stdin_text=field)
        assert code == 1
        assert out.count("\n") == 1
        assert summary_of(out)["error"]["code"] == "closedform.non_finite"
        assert err.startswith("error:")

    def test_action_of_masked_field_is_null(self):
        field = ("# 3 3 0.0 0.0 0.5 0.5\n" + "0.0,0.0,0.0\n"
                 + "0.0,nan,0.0\n" + "0.0,0.0,0.0\n")
        code, out, _ = invoke(["action"], stdin_text=field)
        assert code == 0
        assert summary_of(out)["value"] is None

    def test_only_nan_nodes_count_as_masked(self):
        field = ("# 3 3 0.0 0.0 0.5 0.5\n" + "1.0,1.0,1.0\n"
                 + "1.0,nan,inf\n" + "1.0,1.0,2.0\n")
        code, out, _ = invoke(["convert-log", "--direction", "T-to-u"],
                              stdin_text=field)
        assert code == 0
        doc = summary_of(out)
        assert doc["n_masked"] == 1
        assert doc["u_min"] == 0.0
        assert doc["u_max"] is None  # log(inf) = inf has no JSON number

    def test_action_on_piped_field(self):
        _, out, _ = invoke(self.EXACT)
        code, aout, _ = invoke(["action", "--fd-check", "10"], stdin_text=out)
        assert code == 0
        doc = summary_of(aout)
        assert doc["fd_rel_max"] <= 1e-6
        assert doc["value"] > 0


FIELD_READERS = [["verify", "--eq", "hyperbolic"], ["action"],
                 ["convert-log", "--direction", "u-to-T"]]
READER_IDS = ["verify", "action", "convert-log"]

# near-valid field text: a header and rows drawn from tokens that parse,
# do not parse, or parse to edge values
TOKENS = ["0", "1", "-1", "2", "0.5", "2.5", "1e308", "-1e308", "nan",
          "inf", "-inf", "x", "", " ", "#", "1,2", "\xff",
          # text float() and numpy's parser may read differently
          "1_0", "\uff11", "\t1", "+2", "-nan", "Infinity"]
ROW = st.lists(st.sampled_from(TOKENS), min_size=0, max_size=4).map(
    ",".join)
NEAR_FIELD = st.builds(
    lambda head, rows, tail: ("# " + " ".join(head) + "\n"
                              + "".join(r + "\n" for r in rows) + tail
                              ).encode("utf-8"),
    st.lists(st.sampled_from(TOKENS), min_size=4, max_size=7),
    st.lists(ROW, max_size=4), st.sampled_from(["", "junk\n", "1,2"]))


def summary_lines(out):
    """The stdout lines that are JSON objects."""
    docs = []
    for line in out.splitlines():
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if isinstance(doc, dict):
            docs.append(doc)
    return docs


class TestFieldInputContract:
    """Whatever arrives on stdin, a field reader ends in exactly one JSON
    summary line, the last line of stdout, and exit code 0, 1 or 2."""

    @pytest.mark.parametrize("args", FIELD_READERS, ids=READER_IDS)
    @pytest.mark.parametrize("text", [
        "# 2 2 0 0 1 1\n1,2,3\n3,4\n",  # ragged row
        "# 2.5 2 0 0 1 1\n1,2\n3,4\n",  # non-integer size
        "# 2 2 0 0 1 x\n1,2\n3,4\n",  # non-numeric spacing
    ], ids=["ragged", "size", "spacing"])
    def test_malformed_field_is_fields_error(self, args, text):
        code, out, err = invoke(args, stdin_text=text)
        assert code == 1
        assert out.count("\n") == 1
        assert summary_of(out)["error"]["code"] == "fields.error"
        assert err.startswith("error:")

    @pytest.mark.parametrize("args", FIELD_READERS, ids=READER_IDS)
    def test_oversized_header_is_refused_before_rows(self, args):
        code, out, _ = invoke(args, stdin_text="# 100000 100000 0 0 1 1\n")
        assert code == 1
        assert summary_of(out)["error"]["code"] == "fields.grid_too_large"

    @pytest.mark.parametrize("args", FIELD_READERS, ids=READER_IDS)
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.one_of(st.binary(max_size=200), NEAR_FIELD))
    @example(data=b"# 2 2 0 0 1 1\n1,2\n3,4\n")
    def test_any_stdin_ends_in_one_summary(self, args, data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out, _ = invoke(args, stdin_text=data)
        assert code in (0, 1, 2)
        docs = summary_lines(out)
        assert len(docs) == 1
        assert docs[0] == summary_of(out)
        assert docs[0]["status"] == ("ok" if code == 0 else "error")


# --- any argv the parser builds ------------------------------------------

COMMANDS = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices
# a number option takes one of the extremes, or its default when left out
NUMBERS = ["0", "1e-300", "-1e-300", "1e300", "-1e300", "1e308", "nan",
           "inf", "-inf", "-1", "-5"]
# the grid sizes are always given, at most 65 nodes, so an example stays
# small; the other integer options take small values and the defaults
SIZES = {"nx", "ny", "n", "samples"}
SIZE_VALUES = ["-5", "-1", "0", "1", "2", "3", "5", "17", "65"]
INTEGERS = ["-5", "-1", "0", "1", "3", "65"]
EXPR_VARIABLE = {"f": "x", "phi": "x", "w_phi": "x", "boundary": "x",
                 "g": "y", "psi": "y", "w_psi": "y", "F": "z"}
# "{v}" is the option's variable
AWKWARD = [
    "{v}", "-{v}", "0", "0*{v}", "1/{v}", "1/({v}-0.5)", "ln({v})",
    "sqrt({v})", "{v}^-2", "exp(800*{v})", "exp(800*{v})-exp(800*{v})",
    "{v}+(exp(800*{v})-exp(800*{v}))", "1e308*{v}", "1e-300*{v}",
    "cosh(1000*{v})", "ln(-{v})", "sqrt(-1)*{v}", "{v}^(10^400)",
    "(" * 101 + "{v}" + ")" * 101, "{v}+2^2000", "1e400", "", "{v} {v}",
    "sin(", "q", "tan({v})"]
# "{tmp}" is the example's own directory, which is no file
PATHS = {"out": ["-", "{tmp}/out.csv", "{tmp}/out_{M}.csv", "{tmp}"],
         "infile": ["-", "{tmp}/missing.csv"],
         "mask_out": ["{tmp}/mask.csv", "{tmp}"],
         "grad_out": ["{tmp}/grad.csv", "{tmp}"]}
READ_FIELD = {"verify", "action", "convert-log"}
NAN_AND_INF = "# 3 3 0.0 0.0 0.5 0.5\n0,nan,0\n0,inf,0\n0,0,0\n"
STDIN_FIELDS = ["# 3 3 0.0 0.0 0.5 0.5\n" + rows for rows in (
    "0,0,0\n0,1,0\n0,0,0\n", "1,2,3\n4,nan,6\n7,8,9\n",
    "1e308,-1e308,1e308\n0,1e308,0\n-1,-5,1e-300\n")]


@st.composite
def cli_argv(draw):
    """A subcommand and options drawn from ``build_parser()``'s actions:
    each option's choices, else values by its type and ``nargs``."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [name]
    for action in COMMANDS[name]._actions:
        dest = action.dest
        if dest == "help" or not (action.required or dest in SIZES
                                  or draw(st.booleans())):
            continue
        if action.choices:
            pool = sorted(action.choices)
        elif action.type is float:
            pool = NUMBERS
        elif action.type is int:
            pool = SIZE_VALUES if dest in SIZES else INTEGERS
        elif dest in PATHS:
            pool = PATHS[dest]
        else:
            pool = [e.replace("{v}", EXPR_VARIABLE[dest]) for e in AWKWARD]
        count = (draw(st.integers(1, 3)) if action.nargs == "+"
                 else action.nargs or 1)
        argv.append(action.option_strings[-1])
        argv += [draw(st.sampled_from(pool)) for _ in range(count)]
    return argv


def csv_numbers(text):
    """The numbers of a CSV text: a field, its header included, or a
    table."""
    for line in text.splitlines():
        cells = line[1:].split() if line.startswith("#") else line.split(",")
        for cell in cells:
            try:
                yield float(cell)
            except ValueError:
                pass


class TestParserContract:
    """Any argv built from the parser's own options ends in exactly one
    JSON summary line, the last line of stdout, and exit code 0, 1 or 2,
    with no warning.  Under ``status: ok`` no written number is infinite,
    and none is NaN unless the command documents a mask: the nodes off
    the disk of ``blowup-exact``, the blow-up mask of ``march``, and the
    masked nodes of a field read from stdin."""

    @staticmethod
    def check(argv, stdin_text):
        """Run ``argv`` in a new directory (its "{tmp}"), assert the
        contract and return the exit code and the summary."""
        with tempfile.TemporaryDirectory() as tmp:
            args = [a.replace("{tmp}", tmp) for a in argv]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, _ = invoke(args, stdin_text=stdin_text)
            assert [f"{w.filename}:{w.lineno} {w.message}"
                    for w in caught] == []
            assert code in (0, 1, 2)
            docs = summary_lines(out)
            assert len(docs) == 1
            assert docs[0] == summary_of(out)
            assert docs[0]["status"] == ("ok" if code == 0 else "error")
            if code == 0:
                body = out[:out.rstrip("\n").rfind("\n") + 1]
                written = [x for text in [body] + [p.read_text() for p in
                                                   Path(tmp).iterdir()]
                           for x in csv_numbers(text)]
                assert not any(map(math.isinf, written))
                if not (argv[0] in ("blowup-exact", "march")
                        or argv[0] in READ_FIELD and "nan" in stdin_text):
                    assert not any(map(math.isnan, written))
        return code, docs[0]

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=cli_argv(), stdin_text=st.sampled_from(STDIN_FIELDS))
    def test_any_argv_ends_in_one_summary(self, argv, stdin_text):
        self.check(argv, stdin_text)

    # the defects the property found, each mended where it arose
    @pytest.mark.parametrize("argv, stdin_text, code, want", [
        # the l2 norm squared a finite residual of -1e300 e^(1/4) past
        # the float range (an overflow warning); it is now summed scaled:
        # four equal cells of area 1/4 give l2 = max_abs
        (["verify", "--eq", "hyperbolic", "--K", "1e300"], STDIN_FIELDS[0],
         0, {"max_abs": 1.2840254166877414e300, "l2": 1.2840254166877414e300}),
        # edge data near the float range overflowed the march's cell sums
        # (warnings), and a sum of -inf was written as u = -inf
        (["march", "--phi", "-1e308*x", "--psi", "-1e308*y", "--nx", "2",
          "--ny", "2"], None, 0, {"n_masked": 1, "u_min": -1e308}),
        (["march", "--phi", "1e308*x", "--psi", "1e-300*y", "--K", "-1",
          "--a", "-5", "--nx", "2", "--ny", "3"], None, 0, {"n_masked": 2}),
        # a gradient entry past the float range was written as inf
        (["action", "--C", "1e308", "--mu", "-1e-300", "--grad-out",
          "{tmp}/grad.csv"], STDIN_FIELDS[0], 1,
         {"error": {"code": "action.non_finite",
                    "message": "the gradient is not finite at 1 node(s)"}}),
        # a masked field's probes are all NaN, and were reported as a
        # relative difference of 0.0; one at an inf node warned
        (["action", "--fd-check", "3"], STDIN_FIELDS[1], 0,
         {"value": None, "fd_rel_max": None}),
        (["action", "--fd-check", "1"], NAN_AND_INF, 0,
         {"value": None, "fd_rel_max": None}),
        # lambda + 0.02 rounds to lambda, so the first two branch points
        # were equal, and their secant's 0/0 tangent warned at each step;
        # then every step failed and the trace aborted (exit 2).  Such a
        # start is now refused before the first Newton solve
        (["gelfand", "--n", "3", "--lam-start", "1e150", "--tol", "1e308",
          "--out", "{tmp}/out.csv"], None, 1,
         {"error": {"code": "elliptic.error", "message":
                    "a first step of 0.02 does not move lambda from "
                    "lam_start = 1e+150"}}),
        # an x range of infinite width sampled x at inf and NaN, which
        # were written as the x column
        (["blowup-curve", "--f", "0", "--g", "y", "--x-range", "-1", "inf",
          "--samples", "3"], None, 1,
         {"error": {"code": "closedform.error", "message":
                    "need xb > xa and yb > ya a finite distance apart, and "
                    "at least 2 samples"}}),
        (["blowup-curve", "--f", "0", "--g", "y-0.5", "--x-range", "-1e308",
          "1e308", "--samples", "3"], None, 1,
         {"error": {"code": "closedform.error", "message":
                    "need xb > xa and yb > ya a finite distance apart, and "
                    "at least 2 samples"}}),
    ], ids=["verify-l2-overflow", "march-sum-below-range",
            "march-sum-above-range", "action-gradient-overflow",
            "action-fd-check-masked", "action-fd-check-inf-node",
            "gelfand-equal-points", "blowup-curve-infinite-range",
            "blowup-curve-overflowing-width"])
    def test_probed_argv(self, argv, stdin_text, code, want):
        got, doc = self.check(argv, stdin_text)
        assert got == code
        assert {k: doc.get(k) for k in want} == want


# OpenBLAS starts its pool when numpy loads; /proc/self/task lists the
# process's threads
multicore = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir() or len(os.sched_getaffinity(0)) < 2,
    reason="needs /proc/self/task and two CPUs")
THREADS = "len(os.listdir('/proc/self/task'))"
LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'liouville')"


class TestStartup:
    def test_import_loads_no_scipy(self, fresh_python):
        # every command pays the CLI's imports
        out = fresh_python(
            "import liouville.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert out.strip() == "[]"

    def test_rectangle_commands_load_no_scipy(self, fresh_python):
        # rectangle solves run on numpy alone: the fast sine transform and
        # GMRES are the package's own
        out = fresh_python(
            "from liouville.cli import run; "
            "codes = [run(['solve-elliptic', '--nx', '33', '--ny', '33', "
            "'--out', '/dev/null']), "
            "run(['gelfand', '--geometry', 'rectangle', '--nx', '17', "
            "'--ny', '17', '--out', '/dev/null'])]; "
            "print(codes, sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
        assert out.splitlines()[-1] == "[0, 0] []"

    def test_disk_commands_load_no_scipy(self, fresh_python):
        # the disk's tridiagonal solve is the package's own cyclic reduction
        out = fresh_python(
            "from liouville.cli import run; "
            "codes = [run(['solve-elliptic', '--geometry', 'disk', "
            "'--n', '65', '--out', '/dev/null']), "
            "run(['gelfand', '--n', '65', '--out', '/dev/null']), "
            "run(['blowup-approx', '--n', '65', '--M', '5', '--out', "
            "'/dev/null'])]; "
            "print(codes, sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
        assert out.splitlines()[-1] == "[0, 0, 0] []"

    def test_march_and_backlund_load_no_scipy(self, fresh_python):
        # both Lambert W branches (K a > 0 and, by Wright omega, K a < 0)
        # are the package's own
        out = fresh_python(
            "from liouville.cli import run; "
            "codes = [run(['march', '--phi', '0', '--psi', '0', '--K', '1', "
            "'--out', '/dev/null']), "
            "run(['march', '--phi', '0', '--psi', '0', '--K=-1', "
            "'--out', '/dev/null']), "
            "run(['backlund', '--w-phi', 'x', '--w-psi', 'y', "
            "'--out', '/dev/null'])]; "
            "print(codes, sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
        assert out.splitlines()[-1] == "[0, 0, 0] []"

    def test_commands_load_no_openssl(self, fresh_python, tmp_path):
        # the digests take sha256 from the interpreter's own module:
        # hashlib would load OpenSSL's libcrypto, about 3 MB of every
        # process.  (action --fd-check draws its probes through
        # numpy.random, which loads it through hmac.)
        path = str(tmp_path / "u.csv")
        out = fresh_python(
            "from liouville.cli import run; "
            "codes = [run(['exact-h', '--f', 'x', '--g', 'y', '--nx', '5', "
            f"'--ny', '5', '--out', {path!r}]), "
            f"run(['verify', '--eq', 'hyperbolic', '--in', {path!r}]), "
            f"run(['action', '--in', {path!r}]), "
            "run(['solve-elliptic', '--nx', '9', '--ny', '9', "
            "'--out', '/dev/null'])]; "
            "print(codes, [m for m in ('_hashlib', 'hashlib') "
            "if m in sys.modules])")
        assert out.splitlines()[-1] == "[0, 0, 0, 0] []"

    def test_verify_imports_only_fields(self, fresh_python):
        # a verify in a pipe runs one stencil: it loads no solver, no
        # marcher, no action and no expression parser
        out = fresh_python(
            "import io; sys.stdin = io.StringIO("
            "'# 3 3 0.0 0.0 0.5 0.5\\n' + '0.0,0.0,0.0\\n' * 3); "
            "from liouville.cli import run; "
            "code = run(['verify', '--eq', 'hyperbolic']); "
            f"print(code, {LOADED})")
        assert out.splitlines()[-1] == (
            "0 ['liouville', 'liouville.cli', 'liouville.errors', "
            "'liouville.fields']")

    def test_numeric_elliptic_commands_load_no_expr(self, fresh_python):
        # only an expression boundary needs the expression parser
        out = fresh_python(
            "from liouville.cli import run; "
            "codes = [run(['gelfand', '--n', '65', '--out', '/dev/null']), "
            "run(['blowup-approx', '--n', '65', '--M', '5', "
            "'--out', '/dev/null']), "
            "run(['solve-elliptic', '--nx', '17', '--ny', '17', "
            "'--boundary', '0', '--out', '/dev/null'])]; "
            f"print(codes, 'liouville.expr' in {LOADED})")
        assert out.splitlines()[-1] == "[0, 0, 0] False"

    def test_exact_h_imports_no_solver(self, fresh_python):
        out = fresh_python(
            "from liouville.cli import run; "
            "code = run(['exact-h', '--f', 'x', '--g', 'y', '--nx', '5', "
            "'--ny', '5', '--out', '/dev/null']); "
            f"print(code, [m for m in {LOADED} if m in "
            "('liouville.elliptic', 'liouville.hyperbolic', "
            "'liouville.action')])")
        assert out.splitlines()[-1] == "0 []"

    def test_no_command_loads_numpy_ma(self, fresh_python, tmp_path):
        # importing numpy.ma costs 10-15 ms of a process; np.unique, for
        # one, loads it on its first call
        path = str(tmp_path / "u.csv")
        null = ["--out", os.devnull]
        argvs = [
            ["exact-h", "--f", "x", "--g", "y", "--nx", "5", "--ny", "5",
             "--out", path],
            ["exact-h", "--f", "x", "--g", "y-1", "--nx", "5", "--ny", "5"],
            ["exact-h", "--f", "x", "--g", "-y-5", "--nx", "5", "--ny", "5"],
            ["exact-e", "--F", "z", "--nx", "5", "--ny", "5", *null],
            ["blowup-exact", "--nx", "5", "--ny", "5", *null],
            ["blowup-curve", "--f", "x", "--g", "-y", *null],
            ["verify", "--eq", "hyperbolic", "--in", path],
            ["solve-elliptic", "--nx", "9", "--ny", "9", *null],
            ["gelfand", "--n", "65", *null],
            ["blowup-approx", "--n", "65", "--M", "5", *null],
            ["march", "--phi", "0", "--psi", "0", *null],
            ["backlund", "--w-phi", "x", "--w-psi", "y", *null],
            ["action", "--in", path, "--fd-check", "3"],
            ["convert-log", "--in", path, "--direction", "u-to-T", *null]]
        out = fresh_python(
            "from liouville.cli import run; "
            f"codes = [run(a) for a in {argvs!r}]; "
            "print(codes, 'numpy.ma' in sys.modules)")
        assert out.splitlines()[-1] == f"{[0, 1, 1] + [0] * 11} False"

    @multicore
    def test_import_starts_no_blas_pool(self, fresh_python):
        # the variable lives only as long as numpy's import, so child
        # processes do not inherit it
        out = fresh_python(
            "import os, liouville.cli; "
            f"print({THREADS}, 'OPENBLAS_NUM_THREADS' in os.environ)")
        assert out.strip() == "1 False"

    @multicore
    def test_caller_thread_count_is_kept(self, fresh_python):
        out = fresh_python(
            "import os, liouville.cli; "
            f"print({THREADS}, os.environ['OPENBLAS_NUM_THREADS'])",
            OPENBLAS_NUM_THREADS="2")
        assert out.strip() == "2 2"

    @multicore
    def test_numpy_imported_first_is_left_alone(self, fresh_python):
        out = fresh_python(
            "import os, numpy; env = dict(os.environ); import liouville.cli; "
            f"print({THREADS}, dict(os.environ) == env)")
        assert out.strip() == "2 True"


class TestEntryPoint:
    """``main()`` in a new process, as the console script and the
    benchmark run it: ``run()``'s output and exit code, then an exit with
    the collector frozen.  The dead-stdout cases of TestExitCodes run
    through it too (``spawn``)."""

    ARGS = TestSummaryContract.ARGS

    def communicate(self, args):
        proc = spawn(args, subprocess.PIPE)
        out, err = proc.communicate(timeout=120)
        return proc.returncode, out.decode(), err.decode()

    def test_success_ends_in_the_summary_line(self):
        code, out, err = self.communicate(self.ARGS)
        assert (code, err) == (0, "")
        assert out == invoke(self.ARGS)[1]
        lines = out.splitlines()
        assert [ln for ln in lines if ln.startswith("{")] == [lines[-1]]
        assert summary_of(out)["status"] == "ok"

    def test_usage_error_is_exit_one(self):
        code, out, err = self.communicate(["exact-h"])
        assert code == 1
        assert out.count("\n") == 1
        assert summary_of(out)["error"]["code"] == "cli.usage"
        assert err.startswith("error:") and err.count("\n") == 1

    def test_nonconvergence_is_exit_two(self):
        code, out, _ = self.communicate(
            ["solve-elliptic", "--geometry", "disk", "--n", "257",
             "--K", "-2", "--out", "/dev/null"])
        assert code == 2
        assert summary_of(out)["error"]["code"] == "elliptic.non_convergence"

    def test_out_file_reads_back_bitwise(self, tmp_path):
        path = tmp_path / "u.csv"
        code, out, err = self.communicate(self.ARGS + ["--out", str(path)])
        assert (code, err, out.count("\n")) == (0, "", 1)
        expect = hyperbolic_exact(
            AxisPair(parse("exp(x)", ("x",)), parse("exp(y)", ("y",))),
            LiouvilleParams(1.0, 1.0),
            Grid2D.from_bounds(0.5, 0.5, 1.5, 1.5, 17, 17))
        back = ScalarField2D.read_csv(path)
        assert back.grid == expect.grid
        assert back.values.tobytes() == expect.values.tobytes()

    def test_atexit_runs_after_the_freeze(self, fresh_python):
        out = fresh_python(
            "import atexit, gc; atexit.register(lambda: print("
            "'frozen', gc.get_freeze_count() > 0)); "
            f"sys.argv = ['liouville', *{self.ARGS!r}]; "
            "import liouville.cli as c; c.main()")
        *_, summary, last = out.splitlines()
        assert json.loads(summary)["status"] == "ok"
        assert last == "frozen True"

    def test_run_leaves_the_collector_alone(self):
        before = gc.get_freeze_count(), gc.isenabled()
        assert invoke(self.ARGS)[0] == 0
        assert invoke(["exact-h"])[0] == 1
        assert (gc.get_freeze_count(), gc.isenabled()) == before


class TestFieldFiles:
    def test_round_trip_is_bitwise(self, tmp_path):
        path = tmp_path / "u.csv"
        code, out, _ = invoke(["exact-h", "--f", "x", "--g", "y",
                               "--nx", "17", "--ny", "9", "--out", str(path)])
        assert code == 0
        assert summary_of(out)["n_masked"] == 0
        back = ScalarField2D.read_csv(path)
        assert back.grid.nx == 17 and back.grid.ny == 9
        code, vout, _ = invoke(["verify", "--eq", "hyperbolic",
                                "--in", str(path)])
        assert code == 0
        assert summary_of(vout)["max_abs"] <= 1e-3

    def test_field_sha256_hashes_header_and_value_bytes(self, tmp_path):
        # NaN and -0.0 keep their own bytes in the hash
        path = tmp_path / "u.csv"
        path.write_text("# 3 2 0.0 -1.5 0.25 0.5\n"
                        "1.0,nan,-0.0\n"
                        "0.0,-2.5,1e-300\n")
        ns = argparse.Namespace(infile=str(path))
        field = _read_field(ns)
        header = b"# 3 2 0.0 -1.5 0.25 0.5"
        values = np.array([[1.0, np.nan, -0.0], [0.0, -2.5, 1e-300]])
        assert field.values.tobytes() == values.tobytes()
        assert ns.field_sha256 == hashlib.sha256(
            header + values.tobytes()).hexdigest()

    def test_march_writes_mask(self, tmp_path):
        mask = tmp_path / "mask.csv"
        code, out, _ = invoke(["march", "--phi", "0", "--psi", "0",
                               "--domain", "0", "0", "3", "3",
                               "--nx", "33", "--ny", "33",
                               "--threshold", "1.0",
                               "--out", "/dev/null", "--mask-out", str(mask)])
        assert code == 0
        assert summary_of(out)["n_masked"] > 0
        lines = mask.read_text().splitlines()
        assert lines[0].startswith("# 33 33 ")
        assert len(lines) == 34
        assert set("".join(lines[1:]).replace(",", "")) == {"0", "1"}


class TestSolverCommands:
    def test_solve_elliptic_rectangle(self):
        code, out, _ = invoke(["solve-elliptic", "--nx", "33", "--ny", "33",
                               "--out", "/dev/null"])
        assert code == 0
        doc = summary_of(out)
        assert doc["report"]["converged"] is True
        # Lap u = e^u with zero boundary keeps the interior negative
        assert doc["u_min"] < 0 and doc["u_max"] == 0.0

    def test_solve_elliptic_disk_meets_the_closed_form(self):
        # Lap u = K e^u, u = 0 on the unit circle: u = 2 ln((1 - b)/(1 -
        # b r^2)), so u(0) = 2 ln(1 - b), with 8 b = K (1 - b)^2, b < 1
        K = 1.0
        b = (K + 4.0 - math.sqrt(8.0 * K + 16.0)) / K
        exact = 2.0 * math.log1p(-b)
        errors = []
        for n in (33, 65, 129):
            code, out, _ = invoke(["solve-elliptic", "--geometry", "disk",
                                   "--n", str(n), "--K", str(K),
                                   "--out", "/dev/null"])
            assert code == 0
            doc = summary_of(out)
            assert doc["status"] == "ok" and doc["report"]["converged"]
            errors.append(abs(doc["u_center"] - exact))
        for coarse, fine in zip(errors, errors[1:]):
            assert 1.8 <= math.log2(coarse / fine) <= 2.2

    @pytest.mark.parametrize("args", [
        ["--nx", "9", "--ny", "9"], ["--geometry", "disk", "--n", "33"],
    ], ids=["rectangle", "disk"])
    def test_newton_iteration_cap_is_exit_two(self, args):
        # Newton needs three iterations from u = 0 on either geometry
        code, out, err = invoke(["solve-elliptic", *args, "--max-iter", "1",
                                 "--out", "/dev/null"])
        assert code == 2
        assert out.count("\n") == 1
        doc = summary_of(out)
        assert doc["error"]["code"] == "elliptic.non_convergence"
        assert doc["error"]["message"].startswith(
            "no convergence in 1 iterations")
        assert err.startswith("error:")

    def test_fd_check_needs_a_3x3_grid(self):
        field = "# 2 2 0.0 0.0 1.0 1.0\n0.0,0.0\n0.0,0.0\n"
        code, out, err = invoke(["action", "--fd-check", "3"],
                                stdin_text=field)
        assert code == 1
        assert out.count("\n") == 1
        doc = summary_of(out)
        assert doc["error"] == {"code": "cli.usage", "message":
                                "--fd-check needs at least a 3x3 grid"}
        assert err.startswith("error:")

    def test_boundary_is_read_on_the_ring_only(self, tmp_path):
        # sqrt(x^2 + y^2 - 0.2) is undefined around the centre of the
        # grid and finite on its ring, which holds it as given
        out_csv = tmp_path / "u.csv"
        code, out, _ = invoke(["solve-elliptic", "--boundary",
                               "sqrt(x*x+y*y-0.2)", "--nx", "9", "--ny", "9",
                               "--out", str(out_csv)])
        assert code == 0
        assert summary_of(out)["report"]["converged"] is True
        u = ScalarField2D.read_csv(out_csv)
        ring = np.ones(u.values.shape, dtype=bool)
        ring[1:-1, 1:-1] = False
        x, y = (c[ring] for c in u.grid.meshgrid())
        assert np.array_equal(u.values[ring], np.sqrt(x * x + y * y - 0.2))

    def test_fd_check_probes_the_3x3_patch_around_a_node(self, tmp_path,
                                                         monkeypatch):
        # on an exact field the gradient and its central differences
        # agree to the step's rounding once the action differenced is
        # that of the probed node's own cells
        from liouville import action
        field = str(tmp_path / "e.csv")
        code, _, _ = invoke(["exact-e", "--F", "0.8*z", "--nx", "257",
                             "--ny", "257", "--out", field])
        assert code == 0
        shapes = []

        def spy(phi, p):
            shapes.append(phi.values.shape)
            return action_value(phi, p)

        action_value = action.action_value
        monkeypatch.setattr(action, "action_value", spy)
        code, out, _ = invoke(["action", "--in", field, "--fd-check", "200"])
        assert code == 0
        assert summary_of(out)["fd_rel_max"] <= 1e-4
        # the field's own value, then two patch actions per probe
        assert shapes == [(257, 257)] + [(3, 3)] * 400

    def test_fd_check_patch_past_the_float_range_is_null(self):
        # e^phi is finite at every cell, but not once the probe's step
        # is added: the probe checks nothing, and no error is raised
        field = "# 3 3 0.0 0.0 1.0 1.0\n" + "709.7826,709.7826,709.7826\n" * 3
        code, out, _ = invoke(["action", "--mu", "1e-10", "--fd-check", "1"],
                              stdin_text=field)
        assert code == 0
        doc = summary_of(out)
        assert doc["value"] is not None
        assert doc["fd_rel_max"] is None

    def test_gelfand_reports_fold(self):
        code, out, _ = invoke(["gelfand", "--n", "65", "--out", "/dev/null"])
        assert code == 0
        doc = summary_of(out)
        assert doc["aborted"] is False
        assert 1.99 <= doc["lambda0"] < 2.0
        assert abs(doc["u0_at_fold"] - math.log(4.0)) <= 1e-2
        assert doc["points"] > 10

    def test_gelfand_abort_before_fold_is_exit_two(self, monkeypatch):
        def failing(*args):
            raise elliptic.NonConvergenceError("step failed")

        monkeypatch.setattr(elliptic, "_step", failing)
        code, out, err = invoke(["gelfand", "--n", "65"])
        assert code == 2
        assert out.count("\n") == 1
        doc = summary_of(out)
        assert doc["error"]["code"] == "elliptic.non_convergence"
        assert "before the fold" in doc["error"]["message"]
        assert err.startswith("error:")

    @pytest.mark.parametrize("args", [
        # lambda steps of at most 0.1 toward a fold near 7e6
        ["gelfand", "--geometry", "rectangle", "--domain", "0", "0",
         "1e-3", "1e-3", "--nx", "9", "--ny", "9"],
        ["gelfand", "--n", "65", "--max-steps", "3"],
    ], ids=["tiny-rectangle", "few-steps"])
    def test_gelfand_without_fold_is_exit_two(self, args, tmp_path):
        # ran to --max-steps and exited 0 with "lambda0": null
        branch = tmp_path / "branch.csv"
        code, out, err = invoke(args + ["--out", str(branch)])
        assert code == 2
        assert out.count("\n") == 1
        doc = summary_of(out)
        assert doc["error"]["code"] == "elliptic.non_convergence"
        assert "--max-steps before the fold" in doc["error"]["message"]
        assert err.startswith("error:")
        assert not branch.exists()

    def test_gelfand_abort_after_fold_is_reported(self, monkeypatch):
        step, solve_fold, folds = elliptic._step, elliptic._solve_fold, []

        def solve_and_record(*args):
            folds.append(solve_fold(*args))
            return folds[-1]

        def failing_after_fold(*args):
            if folds:
                raise elliptic.NonConvergenceError("step failed")
            return step(*args)

        monkeypatch.setattr(elliptic, "_solve_fold", solve_and_record)
        monkeypatch.setattr(elliptic, "_step", failing_after_fold)
        code, out, _ = invoke(["gelfand", "--n", "65", "--out", "/dev/null"])
        assert code == 0
        doc = summary_of(out)
        assert doc["aborted"] is True
        assert 1.99 <= doc["lambda0"] < 2.0

    def test_backlund_default_domain(self):
        code, out, _ = invoke(["backlund", "--out", "/dev/null"])
        assert code == 0
        # u = -2 ln(1 - x - y/2) peaks at the (0.5, 0.5) corner
        assert summary_of(out)["u_max"] == pytest.approx(
            -2.0 * math.log(0.25), abs=1e-6)

    def test_backlund_past_the_former_cap(self):
        # u = 550 - 2 ln(1 - e^275 (x + y/2)) on a domain 1e-130 wide:
        # finite, and no longer refused for exceeding 500
        code, out, _ = invoke(["backlund", "--u-corner", "550", "--domain",
                               "0", "0", "1e-130", "1e-130", "--nx", "9",
                               "--ny", "9", "--out", os.devnull])
        assert code == 0
        doc = summary_of(out)
        assert doc["u_min"] == 550.0
        assert doc["u_max"] == pytest.approx(
            550.0 - 2.0 * math.log1p(-1.5e-130 * math.exp(275.0)), abs=1e-12)

    def test_exact_h_refuses_a_singular_line_between_nodes(self):
        # x + y = 2.05 crosses [0.5, 1.5]^2 without meeting a node
        code, out, err = invoke(["exact-h", "--f", "x", "--g", "y-2.05",
                                 "--nx", "65", "--ny", "65"])
        assert code == 1
        assert out.count("\n") == 1
        doc = summary_of(out)
        assert doc["error"]["code"] == "closedform.singular_node"
        assert "changes sign" in doc["error"]["message"]
        assert err.startswith("error:") and err.count("\n") == 1

    def test_backlund_overflow_prints_only_the_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(["backlund", "--w-phi", "sin(3*x)",
                                     "--w-psi", "cos(2*y)", "--bt-a", "1",
                                     "--domain", "0", "0", "0.5", "0.5",
                                     "--order", "yx"])
        assert code == 2
        assert out.count("\n") == 1
        assert summary_of(out)["error"]["code"] == "hyperbolic.ode_overflow"
        assert err.count("\n") == 1 and err.startswith("error:")

    def test_backlund_overflow_names_one_node_for_both_orders(self):
        errors = []
        for order in ("xy", "yx"):
            code, out, _ = invoke(["backlund", "--w-phi", "sin(3*x)",
                                   "--w-psi", "cos(2*y)", "--bt-a", "1",
                                   "--domain", "0", "0", "0.5", "0.5",
                                   "--order", order])
            assert code == 2
            errors.append(summary_of(out)["error"])
        assert errors[0] == errors[1]
        assert "(i=64, j=40), (x, y) = (0.5, 0.3125)" in errors[0]["message"]

    def test_blowup_approx_blocks_on_stdout(self):
        code, out, _ = invoke(["blowup-approx", "--n", "65", "--M", "3", "4.5"])
        assert code == 0
        body = out.rsplit("\n", 2)[0]
        blocks = body.split("\n\n")
        assert len(blocks) == 2
        assert all(b.startswith("r,u") for b in blocks)
        doc = summary_of(out)
        assert doc["gaps"][1] < doc["gaps"][0]

    def test_blowup_approx_needs_placeholder(self, tmp_path):
        code, out, _ = invoke(["blowup-approx", "--n", "65", "--M", "3", "4",
                               "--out", str(tmp_path / "prof.csv")])
        assert code == 1
        assert "{M}" in summary_of(out)["error"]["message"]

    def test_blowup_approx_needs_distinct_files(self, tmp_path):
        # {M} is written with format(M, "g"): both values read "5"
        code, out, _ = invoke(["blowup-approx", "--n", "65",
                               "--M", "5.0000001", "5.0000002",
                               "--out", str(tmp_path / "p_{M}.csv")])
        assert code == 1
        assert out.count("\n") == 1
        assert summary_of(out)["error"]["code"] == "cli.usage"
        assert list(tmp_path.iterdir()) == []

    def test_blowup_approx_placeholder_files(self, tmp_path):
        out_pat = tmp_path / "prof_{M}.csv"
        code, _, _ = invoke(["blowup-approx", "--n", "65", "--M", "3", "4",
                             "--out", str(out_pat)])
        assert code == 0
        assert (tmp_path / "prof_3.csv").exists()
        assert (tmp_path / "prof_4.csv").exists()

    def test_blowup_curve_csv(self):
        code, out, _ = invoke(["blowup-curve", "--f", "exp(x)", "--g=-2*y",
                               "--x-range", "0", "1", "--y-range", "0", "2",
                               "--samples", "11"])
        assert code == 0
        doc = summary_of(out)
        assert doc["n_found"] == 11
        first = out.splitlines()[0]
        assert first == "x,y"


# 363^2 nodes: a field of 1.05 MB, each case well under a second
MEMORY_N = 363
# the CSV writer's blocks and the parser, whatever the field's size
MEMORY_ALLOWANCE = 4 * 2 ** 20
_GRID = ["--nx", str(MEMORY_N), "--ny", str(MEMORY_N)]
_NULL = ["--out", os.devnull]


class TestMemoryBounds:
    """Each command's traced peak, run in process, is at most k field-
    sized arrays (``MEMORY_N``^2 doubles; ``--n`` doubles for the radial
    profile of ``blowup-approx``) plus ``MEMORY_ALLOWANCE``.  k is the
    largest (peak - allowance) / array bytes measured at 363^2, 513^2
    and 1025^2 nodes (16,385, 32,769 and 65,537 radial nodes), plus
    about 15 %, rounded up to a quarter; README "Limits" states the
    bounds at MAX_NODES and at the radial cap.  tracemalloc counts numpy's
    buffers, not RSS, so the bounds do not depend on the host."""

    @pytest.fixture(scope="class")
    def fields(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("memory")
        paths = {name: str(d / f"{name}.csv") for name in ("h", "e", "T")}
        for args in (["exact-h", "--f", "exp(x)", "--g", "exp(y)", *_GRID,
                      "--out", paths["h"]],
                     ["exact-e", "--F", "0.8*z", *_GRID, "--out", paths["e"]],
                     ["convert-log", "--in", paths["h"], "--direction",
                      "u-to-T", "--out", paths["T"]]):
            assert invoke(args)[0] == 0
        return paths

    @pytest.mark.parametrize("args, k", [
        (["exact-h", "--f", "exp(x)", "--g", "exp(y)", *_GRID, *_NULL], 2.0),
        (["exact-e", "--F", "0.8*z", *_GRID, *_NULL], 2.0),
        (["verify", "--eq", "hyperbolic", "--in", "{h}"], 3.25),
        (["verify", "--eq", "elliptic", "--in", "{e}"], 3.25),
        (["verify", "--eq", "log", "--in", "{T}"], 3.25),
        (["action", "--in", "{h}", "--grad-out", os.devnull], 2.5),
        (["convert-log", "--in", "{h}", "--direction", "u-to-T", *_NULL],
         3.25),
        (["march", "--phi", "0", "--psi", "0", *_GRID, *_NULL,
          "--mask-out", os.devnull], 2.25),
        (["backlund", "--w-phi", "x", "--w-psi", "y", *_GRID, *_NULL], 2.0),
        (["blowup-exact", *_GRID, *_NULL], 1.75),
        (["solve-elliptic", *_GRID, *_NULL], 19.0),
        # five GMRES iterations a step: the Krylov basis grows once
        (["solve-elliptic", *_GRID, *_NULL, "--K", "30"], 30.5),
        # k in radial arrays of its --n nodes, here the radial cap: M = 2
        # is one Newton solve from the constant guess
        (["blowup-approx", "--n", str(elliptic.MAX_RADIAL_NODES), "--M", "2",
          *_NULL], 12.25),
    ], ids=["exact-h", "exact-e", "verify-hyperbolic", "verify-elliptic",
            "verify-log", "action", "convert-log", "march", "backlund",
            "blowup-exact", "solve-elliptic", "solve-elliptic-K-30",
            "blowup-approx"])
    def test_traced_peak_is_bounded(self, fields, args, k):
        args = [a.format(**fields) for a in args]
        gc.collect()
        tracemalloc.start()
        try:
            code, out, _ = invoke(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, out
        values = int(args[args.index("--n") + 1]) if "--n" in args else (
            MEMORY_N ** 2)
        assert peak <= k * values * 8 + MEMORY_ALLOWANCE
