"""Compare this checkout's CLI with another checkout's, byte for byte.

Runs a fixed argv list (every subcommand, the --out, --mask-out and
--grad-out writers, fields that span several 64-row evaluation blocks,
fields of one and of many CSV writer and reader blocks and rows wider
than one, and the elliptic solves at several sizes) once under
``src/`` here and once under ``BASE/src``, each through ``main()`` as
the ``liouville`` console script runs it.  Each side runs the
list in order in its own empty directory, so commands that read a field
read the file an earlier command of the same side wrote.  For each argv
the stdout bytes, the stderr bytes, the exit code and every file the
command wrote are compared (so a numpy warning or a traceback on stderr
reads DIFF); one SAME/DIFF line is printed per argv and the exit code is 1
if any argv differs.  The verdict is byte-based; a DIFF line also gives
the largest relative difference between the two sides' numbers, apart
over the JSON summary values (matched by key), over the solvers'
residual reports (``final_residual`` and ``newton_history``, which sit
at the rounding floor and move under any change of arithmetic order)
and over the CSV cells (matched by row and column) of stdout and every
written file.

Byte-identical output holds on one host, with one numpy build at one
SIMD level: numpy picks its exp and log loops by CPU feature, and the
loops differ in the last bits.  So each side's numpy SIMD ``found``
list is printed first.

    git archive --prefix=parent/ HEAD~1 | tar -x -C /tmp
    python scripts/cli_parity.py --base /tmp/parent
"""

import argparse
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the console script's entry point, whose exit the benchmark also takes
RUN_CLI = "import liouville.cli as c; c.main()"
# seconds an argv may run; one that runs longer is stopped and its exit
# code reads "timeout"
TIMEOUT_S = 120
# numpy's SIMD extensions in use beyond its baseline, as a JSON list
SIMD_FOUND = ("import json, numpy; print(json.dumps(numpy.show_config("
              "mode='dicts')['SIMD Extensions']['found']))")

ARGVS = [
    # closed forms, then the commands that read their fields back
    ["exact-h", "--f", "exp(x)", "--g", "exp(y)", "--nx", "33", "--ny", "33",
     "--out", "exact_h.csv"],
    ["exact-e", "--F", "z", "--nx", "17", "--ny", "17"],
    ["blowup-exact", "--nx", "17", "--ny", "17"],
    # closed forms whose quotient 2 f' g'/(a K (f+g)^2) or 8|F'|^2/(1 -+
    # |F|^2)^2 would over- or underflow, or have a subnormal factor,
    # although u, a sum of logarithms, is finite
    ["exact-h", "--f", "x", "--g", "y", "--K", "1e-308"],
    ["exact-h", "--f", "1e200*x", "--g", "1e200*y", "--nx", "3", "--ny", "3"],
    ["exact-h", "--f", "1e-200*x", "--g", "1e-200*y"],
    ["exact-h", "--f", "x+1e200", "--g", "y+1e200"],
    ["exact-h", "--f", "1e-160*x", "--g", "1e-160*y"],
    ["exact-e", "--F", "1e-200*z", "--nx", "3", "--ny", "3"],
    ["exact-e", "--F", "1e-160*z"],
    # every function and operator rule of the expression evaluator: on
    # the default domain f + g runs from -3.5 to 6.6, so the singular
    # line crosses it (exit 1); on [1, 1.5]^2 f + g > 0 and u is sampled
    ["exact-h", "--f", "sqrt(x)*sinh(x)+x^3/cosh(x)-cos(x)",
     "--g", "exp(sin(y))+ln(y)-y^-2", "--nx", "9", "--ny", "9"],
    ["exact-h", "--f", "sqrt(x)*sinh(x)+x^3/cosh(x)-cos(x)",
     "--g", "exp(sin(y))+ln(y)-y^-2", "--nx", "9", "--ny", "9",
     "--domain", "1", "1", "1.5", "1.5"],
    # left-associative - and / chains (f' = 0.75, g' = 1), and a chain
    # whose quotient divides by zero at the node x = 1 (exit 1,
    # expr.domain)
    ["exact-h", "--f", "8-4-2*x/4/2+x", "--g", "y-1-1+3"],
    ["exact-h", "--f", "2+1/(x-1-0)*3", "--g", "y"],
    # expressions past the parser's limits (exit 1): an exponent past
    # 2^53, and parentheses nested past 100 levels
    ["exact-h", "--f", "x^(10^400)", "--g", "y", "--nx", "3", "--ny", "3"],
    ["exact-h", "--f", "(" * 3000 + "x" + ")" * 3000, "--g", "y",
     "--nx", "3", "--ny", "3"],
    # constant powers that overflow a float or a complex (exit 1)
    ["exact-h", "--f", "x+2^2000", "--g", "y", "--nx", "3", "--ny", "3"],
    ["exact-h", "--f", "x+10^400", "--g", "y", "--nx", "3", "--ny", "3"],
    ["exact-e", "--F", "z+2^2000", "--nx", "3", "--ny", "3"],
    ["solve-elliptic", "--boundary", "x+2^2000", "--nx", "5", "--ny", "5"],
    # constants that overflow without a power, refused by the parser
    # (exit 1, expr.domain)
    ["exact-h", "--f", "x+1e200^2", "--g", "y", "--nx", "3", "--ny", "3"],
    ["solve-elliptic", "--boundary", "x+1e200^3", "--nx", "5", "--ny", "5"],
    ["blowup-curve", "--f", "x^2-0.5+1e200^2", "--g", "exp(y)-1",
     "--samples", "11"],
    ["blowup-curve", "--f", "x", "--g", "y - 0.5", "--samples", "11",
     "--out", "curve.csv"],
    # end-point zeros at both ends of the y-interval, and rows with no
    # crossing (NA)
    ["blowup-curve", "--f", "x", "--g", "y", "--x-range", "-1", "1",
     "--y-range", "-1", "1", "--samples", "2001"],
    ["blowup-curve", "--f", "x^2-0.6", "--g", "exp(y)-1", "--samples", "1001",
     "--out", "curve1001.csv"],
    ["verify", "--eq", "hyperbolic", "--in", "exact_h.csv"],
    ["action", "--in", "exact_h.csv", "--fd-check", "5",
     "--grad-out", "grad.csv"],
    ["convert-log", "--in", "exact_h.csv", "--direction", "u-to-T",
     "--out", "T.csv"],
    ["verify", "--eq", "log", "--in", "T.csv"],
    # fields of several 64-row evaluation blocks, ending in a ragged one,
    # with hx != hy
    ["exact-e", "--F", "0.8*z+0.1*z^2", "--nx", "200", "--ny", "203",
     "--out", "exact_e200.csv"],
    ["verify", "--eq", "elliptic", "--in", "exact_e200.csv"],
    ["action", "--in", "exact_e200.csv", "--fd-check", "3",
     "--grad-out", "grad_e200.csv"],
    ["exact-h", "--f", "exp(x)", "--g", "exp(y)", "--nx", "301",
     "--ny", "157", "--out", "exact_h301.csv"],
    ["convert-log", "--in", "exact_h301.csv", "--direction", "u-to-T",
     "--out", "T301.csv"],
    ["verify", "--eq", "log", "--in", "T301.csv"],
    # the CSV writer's blocks of 2^14 values: 1025^2 values are 65 of
    # them, with seams inside rows and a last block of 2049 values; rows
    # of 20000 values are wider than a block.  The reader's blocks are
    # whole rows: 15 rows of 1025 values, one row of 20000, or 8192 rows
    # of 2, the last of 20000 such rows in a ragged block
    ["exact-h", "--f", "exp(x)", "--g", "exp(y)", "--nx", "1025",
     "--ny", "1025", "--out", "exact_h1025.csv"],
    ["convert-log", "--in", "exact_h1025.csv", "--direction", "u-to-T",
     "--out", "T1025.csv"],
    ["verify", "--eq", "log", "--in", "T1025.csv"],
    # a field of more than 2^17 values is digested through hashlib
    ["verify", "--eq", "hyperbolic", "--in", "exact_h1025.csv"],
    ["exact-h", "--f", "exp(x)", "--g", "exp(y)", "--nx", "20000",
     "--ny", "3", "--out", "exact_h20000.csv"],
    ["verify", "--eq", "hyperbolic", "--in", "exact_h20000.csv"],
    ["exact-h", "--f", "exp(x)", "--g", "exp(y)", "--nx", "2",
     "--ny", "20000", "--out", "exact_h2.csv"],
    ["verify", "--eq", "hyperbolic", "--in", "exact_h2.csv"],
    # masked nodes outside the unit circle, across the block seams
    ["blowup-exact", "--nx", "301", "--ny", "157", "--out", "blowup301.csv"],
    ["verify", "--eq", "elliptic", "--in", "blowup301.csv"],
    ["march", "--phi", "0", "--psi", "0", "--domain", "0", "0", "3", "3",
     "--nx", "33", "--ny", "33", "--threshold", "1.0",
     "--out", "march.csv", "--mask-out", "mask.csv"],
    # the mask along a singular line that crosses the domain
    ["march", "--phi", "ln(2/(x-2)^2)", "--psi", "ln(2/(-2+y)^2)",
     "--domain", "-2", "-2", "1", "1", "--nx", "97", "--ny", "97",
     "--out", "march_cross.csv", "--mask-out", "mask_cross.csv"],
    # Goursat data whose corner values differ (exit 1)
    ["march", "--phi", "-2*ln(1.3-0.5*x)", "--psi", "0"],
    # K a < 0 (Wright omega), and data where e^(beta (c+s)) overflows
    ["march", "--phi", "sin(3*x)", "--psi", "sin(5*y)", "--K=-3", "--a", "2",
     "--out", "march_omega.csv"],
    ["march", "--phi", "800+x", "--psi", "800+y", "--K=-1",
     "--nx", "33", "--ny", "33", "--out", "march_huge.csv",
     "--mask-out", "mask_huge.csv"],
    ["backlund", "--w-phi", "x", "--w-psi", "y", "--nx", "17", "--ny", "17"],
    ["backlund", "--w-phi", "x/2", "--w-psi=-y/3", "--bt-a", "1",
     "--nx", "33", "--ny", "33"],
    # the image blows up inside the domain (exit 2), under both orders
    ["backlund", "--w-phi", "sin(3*x)", "--w-psi", "cos(2*y)", "--bt-a", "1",
     "--order", "xy"],
    ["backlund", "--w-phi", "sin(3*x)", "--w-psi", "cos(2*y)", "--bt-a", "1",
     "--order", "yx"],
    # elliptic solves: rectangles, disks, a nonconvergent disk (exit 2);
    # rectangle interiors of at most 64 nodes a side are sine-transformed
    # by dense products, larger ones by the FFT: 64 x 38 and 65 x 38
    # straddle that cut
    ["solve-elliptic", "--nx", "129", "--ny", "129", "--out", "rect129.csv"],
    ["solve-elliptic", "--nx", "300", "--ny", "97", "--out", "rect300.csv"],
    ["solve-elliptic", "--nx", "66", "--ny", "40", "--out", "rect66.csv"],
    ["solve-elliptic", "--nx", "67", "--ny", "40", "--out", "rect67.csv"],
    # the FFT goes in blocks of 64 lines: a 513 x 129 interior ends in a
    # one-line block on both axes
    ["solve-elliptic", "--nx", "515", "--ny", "131", "--out", "rect515.csv"],
    # the benchmark's size, whose Newton steps run 1-3 GMRES iterations,
    # and a stiffer K whose steps run 5, past the basis first allocated
    ["solve-elliptic", "--nx", "257", "--ny", "257", "--out", "rect257.csv"],
    ["solve-elliptic", "--nx", "257", "--ny", "257", "--K", "30",
     "--out", "rect257_K30.csv"],
    # an expression ring, on the FFT path with a ragged last row block
    # (a 127 x 99 interior)
    ["solve-elliptic", "--K", "30", "--nx", "129", "--ny", "101",
     "--boundary", "sin(3*x)+y^2", "--out", "rect129x101.csv"],
    ["solve-elliptic", "--domain", "-0.4", "-0.4", "0.4", "0.4",
     "--nx", "65", "--ny", "65", "--K", "-1",
     "--boundary", "ln(8/(1+x^2+y^2)^2)", "--out", "rect65.csv"],
    ["solve-elliptic", "--geometry", "disk", "--n", "257",
     "--out", "disk257.csv"],
    ["solve-elliptic", "--geometry", "disk", "--n", "1025", "--boundary", "2",
     "--out", "disk1025.csv"],
    ["solve-elliptic", "--geometry", "disk", "--n", "257", "--K", "-2",
     "--out", "disk_none.csv"],
    # coefficients so large that the first Newton correction is 0 or
    # its norm underflows, or the mean of the Jacobian's diagonal, the
    # preconditioner's shift, overflows (exit 1 or 2): each ended in a
    # ZeroDivisionError traceback or printed a RuntimeWarning before
    # these were detected
    ["solve-elliptic", "--K", "1e300"],
    ["solve-elliptic", "--K", "1e308"],
    ["solve-elliptic", "--a", "1e300"],
    ["solve-elliptic", "--geometry", "disk", "--a", "1e308"],
    ["solve-elliptic", "--a", "1e308"],
    ["solve-elliptic", "--K", "1e10", "--a=-1e300"],
    # boundary data whose term in F overflows, on both geometries (exit 1)
    ["solve-elliptic", "--boundary=1e308"],
    ["solve-elliptic", "--geometry", "disk", "--boundary=-1e308"],
    # past the radial node cap, below MAX_NODES (exit 1)
    ["solve-elliptic", "--geometry", "disk", "--n", "1048577"],
    # continuation on both geometries
    ["gelfand"],
    ["gelfand", "--n", "1025", "--out", "branch1025.csv"],
    ["gelfand", "--n", "2049", "--out", "branch2049.csv"],
    ["gelfand", "--geometry", "rectangle", "--nx", "33", "--ny", "33",
     "--out", "branch_rect33.csv"],
    ["gelfand", "--geometry", "rectangle", "--nx", "17", "--ny", "25"],
    ["gelfand", "--geometry", "rectangle", "--nx", "161", "--ny", "161",
     "--u0-cap", "1.0", "--out", "branch_rect161.csv"],
    # an even, asymmetric 16 x 10 interior, whose center value is the
    # mean of four nodes
    ["gelfand", "--geometry", "rectangle", "--nx", "18", "--ny", "12"],
    # m = 99 unknowns, not a power of two; the one-node rectangle, whose
    # fold is lambda = 16/e at u = 1; a branch capped just past its fold
    ["gelfand", "--n", "100", "--out", "branch100.csv"],
    ["gelfand", "--geometry", "rectangle", "--nx", "3", "--ny", "3"],
    ["gelfand", "--n", "257", "--u0-cap", "1.0", "--out", "capped.csv"],
    # fold solves that drive the disk Jacobian to an exactly singular
    # one, a branch whose e^u overflows in a rejected corrector iterate,
    # and a rectangle fold whose border is tiny next to J
    ["gelfand", "--n", "8", "--ds", "0.01"],
    ["gelfand", "--n", "3", "--ds", "0.1"],
    ["gelfand", "--n", "63", "--ds", "0.02"],
    ["gelfand", "--geometry", "rectangle", "--nx", "97", "--ny", "97",
     "--u0-cap", "1.5"],
    # bordered solves on the FFT path
    ["gelfand", "--geometry", "rectangle", "--nx", "131", "--ny", "67",
     "--u0-cap", "1.5"],
    # boundary blow-up approximation, one solve per M
    ["blowup-approx", "--n", "1025"],
    ["blowup-approx", "--n", "2049", "--out", "prof2049_{M}.csv"],
    ["blowup-approx", "--n", "4097", "--M", "5.2869", "8.2869", "11.2869"],
    # Newton from the constant guess converges through M = 40, and not
    # at M = 60 (exit 2)
    ["blowup-approx", "--n", "257", "--M", "40"],
    ["blowup-approx", "--n", "257", "--M", "60"],
    # levels at or below 0, each one solve (a homotopy in unit steps from
    # -1e17 never ended: TIMEOUT_S stops such a run)
    ["blowup-approx", "--n", "5", "--M", "-100000000000000000", "0"],
    ["blowup-approx", "--n", "5", "--M", "-2000", "0"],
    # negative values in exponent notation, each its own argument (exit 1
    # with cli.usage before argparse took them as values)
    ["solve-elliptic", "--K", "-1e-3", "--nx", "33", "--ny", "33"],
    ["blowup-approx", "--n", "9", "--M", "-1E+300", "0"],
    # a negated constant in complex evaluation: sqrt(-0.04) is the
    # principal 0.2i (it was -0.2i)
    ["exact-e", "--F", "z/2+sqrt(-0.04)", "--nx", "17", "--ny", "17"],
    # tables of several writer blocks: a profile of 20001 rows, a curve
    # with NA rows, and a ragged 1025 x 1023 mask
    ["blowup-approx", "--n", "20001", "--M", "2", "--out", "prof20001.csv"],
    ["blowup-curve", "--f", "x^2-0.6", "--g", "exp(y)-1", "--samples",
     "20001", "--out", "curve20001.csv"],
    ["march", "--phi", "0", "--psi", "0", "--domain", "0", "0", "3", "3",
     "--nx", "1025", "--ny", "1023", "--threshold", "1.0",
     "--out", "march1025.csv", "--mask-out", "mask1025.csv"],
    # expressions that begin with a minus, each its own argument (exit 1
    # with cli.usage before such an argument was taken as a value)
    ["exact-h", "--f", "-x", "--g", "-y", "--nx", "9", "--ny", "9"],
    ["march", "--phi", "-2*ln(1.3-0.5*x)", "--psi", "-2*ln(1.3-0.5*y)",
     "--nx", "33", "--ny", "33"],
    ["solve-elliptic", "--boundary", "-x", "--nx", "17", "--ny", "17"],
    # boundary data undefined inside the grid and finite on its ring
    # (exit 1 with expr.domain while the whole grid was evaluated)
    ["solve-elliptic", "--boundary", "sqrt(x*x+y*y-0.2)", "--nx", "9",
     "--ny", "9"],
    ["solve-elliptic", "--boundary", "ln(x*x+y*y)", "--nx", "9", "--ny", "9"],
    # 200 gradient probes of an exact field, each on the 3 x 3 nodes
    # around the probed node
    ["exact-e", "--F", "0.8*z", "--nx", "257", "--ny", "257",
     "--out", "exact_e257.csv"],
    ["action", "--in", "exact_e257.csv", "--fd-check", "200"],
    # the zero wave's Baecklund image, which the two-function sampler
    # gives bit for bit; a singular line that crosses the grid between
    # nodes (exit 1; it exited 0 with a verify max_abs of 6.8e4); an
    # image above u = 500 (exit 0; it exited 2 while u was capped at
    # 500); a gelfand start that its first step cannot move (exit 1; it
    # exited 2 after a trace that could not step)
    ["backlund", "--nx", "65", "--ny", "65"],
    ["exact-h", "--f", "x", "--g", "y-2.05", "--nx", "65", "--ny", "65"],
    ["backlund", "--u-corner", "550", "--domain", "0", "0", "1e-130",
     "1e-130", "--nx", "9", "--ny", "9"],
    ["gelfand", "--n", "3", "--lam-start", "1e150", "--tol", "1e308"],
]


def _snapshot(work: pathlib.Path) -> dict:
    return {p.name: p.read_bytes() for p in work.iterdir() if p.is_file()}


def run_side(src: pathlib.Path, work: pathlib.Path) -> tuple:
    """Run every argv under ``src`` in ``work``; return numpy's SIMD
    ``found`` list there and per-argv (exit code, stdout bytes, stderr
    bytes, {written file: bytes})."""
    env = dict(os.environ, PYTHONPATH=str(src))
    simd = subprocess.run([sys.executable, "-c", SIMD_FOUND], env=env,
                          capture_output=True, text=True).stdout.strip()
    results = []
    for argv in ARGVS:
        before = _snapshot(work)
        try:
            proc = subprocess.run([sys.executable, "-c", RUN_CLI, *argv],
                                  cwd=work, env=env, capture_output=True,
                                  timeout=TIMEOUT_S)
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:
            code, out, err = "timeout", exc.stdout or b"", exc.stderr or b""
        after = _snapshot(work)
        written = {name: blob for name, blob in after.items()
                   if before.get(name) != blob}
        results.append((code, out, err, written))
    return simd, results


def _leaves(doc, path=()):
    """(key path, number) for every numeric leaf of a JSON value."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _leaves(value, path + (i,))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path, float(doc)


def _numbers(blob: bytes) -> dict:
    """The numbers of one output, keyed by where they stand: JSON lines
    by key path, CSV lines by (line, column)."""
    found = {}
    for i, line in enumerate(blob.decode("utf-8", "replace").splitlines()):
        try:
            doc = json.loads(line)
        except ValueError:
            doc = None
        if isinstance(doc, dict):
            found.update(_leaves(doc, ("json",)))
            continue
        for j, cell in enumerate(line.split(",")):
            try:
                found[(i, j)] = float(cell)
            except ValueError:
                pass
    return found


def _rel(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


# Summary keys whose values sit at the rounding floor
RESIDUAL_KEYS = {"final_residual", "newton_history"}


def _kind(key) -> str:
    if key[0] != "json":
        return "csv"
    return "residuals" if RESIDUAL_KEYS.intersection(key) else "summary"


def _max_rel_diff(here, base) -> str:
    """The largest relative difference over the numbers both sides wrote
    at the same place, for summary values, residual reports and CSV
    cells apart, and a note when the sides wrote numbers at different
    places."""
    (_, out, _, files), (_, bout, _, bfiles) = here, base
    outputs = [(out, bout)] + [(files.get(n, b""), bfiles.get(n, b""))
                               for n in sorted(set(files) | set(bfiles))]
    worst, unmatched = {"summary": 0.0, "residuals": 0.0, "csv": 0.0}, 0
    for mine, theirs in outputs:
        a, b = _numbers(mine), _numbers(theirs)
        unmatched += len(a.keys() ^ b.keys())
        for key in a.keys() & b.keys():
            kind = _kind(key)
            worst[kind] = max(worst[kind], _rel(a[key], b[key]))
    note = f", {unmatched} unmatched" if unmatched else ""
    return (f"max rel diff summary {worst['summary']:.2g}, residuals "
            f"{worst['residuals']:.2g}, csv {worst['csv']:.2g}{note}")


def _differences(here, base) -> list:
    (code, out, err, files), (bcode, bout, berr, bfiles) = here, base
    diffs = []
    if code != bcode:
        diffs.append(f"exit {bcode} -> {code}")
    if out != bout:
        diffs.append("stdout")
    if err != berr:
        diffs.append("stderr")
    diffs += [f"file {name}" for name in sorted(set(files) | set(bfiles))
              if files.get(name) != bfiles.get(name)]
    return diffs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, type=pathlib.Path,
                    help="checkout to compare against (its src/ is used)")
    ns = ap.parse_args()
    base_src = ns.base.resolve() / "src"
    if not (base_src / "liouville").is_dir():
        ap.error(f"{base_src} holds no liouville package")
    with tempfile.TemporaryDirectory() as tmp:
        here_dir, base_dir = pathlib.Path(tmp, "here"), pathlib.Path(tmp, "b")
        here_dir.mkdir()
        base_dir.mkdir()
        here_simd, here = run_side(ROOT / "src", here_dir)
        base_simd, base = run_side(base_src, base_dir)
    print(f"numpy SIMD found: here {here_simd}, base {base_simd}")
    n_diff = 0
    for argv, h, b in zip(ARGVS, here, base):
        diffs = _differences(h, b)
        n_diff += bool(diffs)
        verdict = "DIFF" if diffs else "SAME"
        detail = (f"  [{', '.join(diffs)}; {_max_rel_diff(h, b)}]"
                  if diffs else "")
        print(f"{verdict} exit={h[0]} liouville {shlex.join(argv)}{detail}")
    print(f"{len(ARGVS) - n_diff} SAME, {n_diff} DIFF")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main())
