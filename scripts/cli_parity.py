"""Compare this checkout's CLI with another checkout's, byte for byte.

Runs a fixed argv list (every subcommand, the --out, --mask-out and
--grad-out writers, fields that span several 64-row evaluation blocks,
and the elliptic solves at several sizes) once
under ``src/`` here and once under ``BASE/src``.  Each side runs the
list in order in its own empty directory, so commands that read a field
read the file an earlier command of the same side wrote.  For each argv
the stdout bytes, the exit code and every file the command wrote are
compared; one SAME/DIFF line is printed per argv and the exit code is 1
if any argv differs.  The verdict is byte-based; a DIFF line also gives
the largest relative difference between the two sides' numbers, once
over the JSON summary values (matched by key) and once over the CSV
cells (matched by row and column) of stdout and every written file.

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
RUN_CLI = "import sys; from liouville.cli import run; sys.exit(run())"

ARGVS = [
    # closed forms, then the commands that read their fields back
    ["exact-h", "--f", "exp(x)", "--g", "exp(y)", "--nx", "33", "--ny", "33",
     "--out", "exact_h.csv"],
    ["exact-e", "--F", "z", "--nx", "17", "--ny", "17"],
    ["blowup-exact", "--nx", "17", "--ny", "17"],
    ["blowup-curve", "--f", "x", "--g", "y - 0.5", "--samples", "11",
     "--out", "curve.csv"],
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
    # masked nodes outside the unit circle, across the block seams
    ["blowup-exact", "--nx", "301", "--ny", "157", "--out", "blowup301.csv"],
    ["verify", "--eq", "elliptic", "--in", "blowup301.csv"],
    ["march", "--phi", "0", "--psi", "0", "--domain", "0", "0", "3", "3",
     "--nx", "33", "--ny", "33", "--threshold", "1.0",
     "--out", "march.csv", "--mask-out", "mask.csv"],
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
    # elliptic solves: rectangles, disks, a nonconvergent disk (exit 2)
    ["solve-elliptic", "--nx", "129", "--ny", "129", "--out", "rect129.csv"],
    ["solve-elliptic", "--domain", "-0.4", "-0.4", "0.4", "0.4",
     "--nx", "65", "--ny", "65", "--K", "-1",
     "--boundary", "ln(8/(1+x^2+y^2)^2)", "--out", "rect65.csv"],
    ["solve-elliptic", "--geometry", "disk", "--n", "257",
     "--out", "disk257.csv"],
    ["solve-elliptic", "--geometry", "disk", "--n", "1025", "--boundary", "2",
     "--out", "disk1025.csv"],
    ["solve-elliptic", "--geometry", "disk", "--n", "257", "--K", "-2",
     "--out", "disk_none.csv"],
    # continuation on both geometries
    ["gelfand"],
    ["gelfand", "--n", "1025", "--out", "branch1025.csv"],
    ["gelfand", "--n", "2049", "--out", "branch2049.csv"],
    ["gelfand", "--geometry", "rectangle", "--nx", "33", "--ny", "33",
     "--out", "branch_rect33.csv"],
    ["gelfand", "--geometry", "rectangle", "--nx", "17", "--ny", "25"],
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
    # boundary blow-up homotopy
    ["blowup-approx", "--n", "1025"],
    ["blowup-approx", "--n", "2049", "--out", "prof2049_{M}.csv"],
    ["blowup-approx", "--n", "4097", "--M", "5.2869", "8.2869", "11.2869"],
]


def _snapshot(work: pathlib.Path) -> dict:
    return {p.name: p.read_bytes() for p in work.iterdir() if p.is_file()}


def run_side(src: pathlib.Path, work: pathlib.Path) -> list:
    """Run every argv under ``src`` in ``work``; return per-argv
    (exit code, stdout bytes, {written file: bytes})."""
    env = dict(os.environ, PYTHONPATH=str(src))
    results = []
    for argv in ARGVS:
        before = _snapshot(work)
        proc = subprocess.run([sys.executable, "-c", RUN_CLI, *argv],
                              cwd=work, env=env, capture_output=True)
        after = _snapshot(work)
        written = {name: blob for name, blob in after.items()
                   if before.get(name) != blob}
        results.append((proc.returncode, proc.stdout, written))
    return results


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


def _max_rel_diff(here, base) -> str:
    """The largest relative difference over the numbers both sides wrote
    at the same place, for summary values and CSV cells apart, and a
    note when the sides wrote numbers at different places."""
    (_, out, files), (_, bout, bfiles) = here, base
    outputs = [(out, bout)] + [(files.get(n, b""), bfiles.get(n, b""))
                               for n in sorted(set(files) | set(bfiles))]
    worst, unmatched = {"summary": 0.0, "csv": 0.0}, 0
    for mine, theirs in outputs:
        a, b = _numbers(mine), _numbers(theirs)
        unmatched += len(a.keys() ^ b.keys())
        for key in a.keys() & b.keys():
            kind = "summary" if key[0] == "json" else "csv"
            worst[kind] = max(worst[kind], _rel(a[key], b[key]))
    note = f", {unmatched} unmatched" if unmatched else ""
    return (f"max rel diff summary {worst['summary']:.2g}, "
            f"csv {worst['csv']:.2g}{note}")


def _differences(here, base) -> list:
    (code, out, files), (bcode, bout, bfiles) = here, base
    diffs = []
    if code != bcode:
        diffs.append(f"exit {bcode} -> {code}")
    if out != bout:
        diffs.append("stdout")
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
        here = run_side(ROOT / "src", here_dir)
        base = run_side(base_src, base_dir)
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
