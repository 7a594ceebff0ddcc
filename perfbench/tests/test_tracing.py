"""The in-process replay passes the same oracles as the CLI run and
records a span for every layer it reaches."""

import tracing
import workloads


def test_cli_small_replay_passes_and_counts_repeat():
    ops = workloads.make_ops("cli-small", 2)
    counts = []
    for _ in range(2):
        t = tracing.Tracer()
        for op in ops:
            t.op = (op.name, "0")
            assert tracing.replay(op, t) is None, op.name
        counts.append(dict(t.counts))
    assert counts[0] == counts[1]
    assert counts[0]["cli.processes"] == sum(len(op.stages) for op in ops)
    names = {span[0] for span in t.spans}
    assert {"cli.parse", "expr.parse", "expr.eval", "closedform.sample",
            "closedform.curve", "fields.write_csv", "fields.read_csv",
            "fields.residual", "fields.norms", "action.value",
            "action.gradient", "hyperbolic.march", "hyperbolic.backlund",
            "elliptic.solve_rect", "elliptic.branch_disk",
            "elliptic.blowup_disk"} <= names
    assert all(end >= start for _, start, end, _, _ in t.spans)


def test_replay_reports_library_errors():
    op = workloads.Op("exact-h", (("exact-h", "--f", "x", "--g", "2-y"),),
                      "n_masked", lambda s, b: None)
    assert "SignError" in tracing.replay(op, tracing.Tracer())
