"""Benchmark entry point.

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it runs the workload's seeded CLI pipelines as one
closed-loop client, one pipeline at a time, repeating the op list until
``--seconds`` is used up, and reports the end-to-end metrics.  With
``--trace 1`` it replays the same ops inside this process with a span
around every call into the package and reports the per-layer metrics.
Human-readable lines go first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness
import workloads


def measure(workload: str, seed: int, seconds: float) -> dict:
    env = harness.child_env()
    ops, setup_s = harness.setup(workload, seed, env)
    passes = list(harness.timed_passes(ops, seconds, env))
    attempted = len(ops) * len(passes)
    failures = [f for p in passes for f in p["failures"]]
    for f in sorted(set(failures)):
        print(f"FAILED {f}")
    op_walls = [w for p in passes for w in p["op_walls"]]
    q = harness.top_percentile(len(op_walls))
    spread = (f", op p{q} {harness.percentile(op_walls, q):.3f} s"
              if q else "")
    print(f"{workload} seed {seed}: {len(passes)} passes of {len(ops)} ops, "
          f"op median {harness.median(op_walls):.3f} s{spread} "
          f"over {len(op_walls)} ops")
    print(f"failed_ratio = {len(failures) / attempted:.4f} "
          f"({len(failures)} of {attempted})")
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (harness.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (harness.median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_ratio": ((attempted - len(failures)) / attempted, "1"),
    }
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        harness.require_source()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        import tracing
        result = tracing.measure(args.workload, args.seed, args.seconds)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print("meta " + json.dumps(harness.run_metadata(), sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
