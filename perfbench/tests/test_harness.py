"""The output checker, the statistics helpers and one real pipeline."""

import json
import random

import pytest

import harness
import workloads

SUMMARY = {"command": "verify", "digest": "0", "status": "ok", "eq": "x",
           "max_abs": 1e-9}


def op(check=lambda summary, body: None):
    return workloads.Op("gen|verify", (("exact-h",), ("verify",)), "max_abs",
                        check)


def line(**changes):
    return json.dumps(dict(SUMMARY, **changes)) + "\n"


def test_good_output_passes():
    assert harness.assess(op(), [0, 0], line()) is None


def test_missing_summary_fails():
    assert "0 summary lines" in harness.assess(op(), [0, 0], "")
    assert "0 summary lines" in harness.assess(op(), [0, 0], "# 2 2\n1,2\n")


def test_duplicated_summary_fails():
    assert "2 summary lines" in harness.assess(op(), [0, 0], line() + line())


def test_summary_must_be_last_line():
    assert "not the last" in harness.assess(op(), [0, 0], line() + "1,2\n")


def test_nonzero_exit_fails_even_with_ok_summary():
    assert "stage 0 (exact-h) exited 1" in harness.assess(op(), [1, 0], line())
    assert "exited 2" in harness.assess(op(), [0, 2], "")


def test_error_status_fails():
    msg = harness.assess(op(), [0, 0], line(status="error"))
    assert "status 'error'" in msg


def test_null_headline_fails():
    assert "headline max_abs is null" in harness.assess(
        op(), [0, 0], line(max_abs=None))


def test_oracle_failure_is_reported():
    failing = op(lambda summary, body: "too large")
    assert harness.assess(failing, [0, 0], line()) == "too large"


def test_body_lines_reach_the_oracle():
    seen = []
    harness.assess(op(lambda s, body: seen.append(body)), [0, 0],
                   "x,y\n0.0,NA\n" + line())
    assert seen == [["x,y", "0.0,NA"]]


def test_median():
    assert harness.median([3.0, 1.0, 2.0]) == 2.0
    assert harness.median([4, 1, 3, 2]) == 2.5
    assert harness.median([7.5]) == 7.5
    with pytest.raises(ValueError):
        harness.median([])


def test_percentile_matches_linear_interpolation():
    xs = list(range(1, 11))
    assert harness.percentile(xs, 0) == 1
    assert harness.percentile(xs, 100) == 10
    assert harness.percentile(xs, 90) == pytest.approx(9.1)
    assert harness.percentile(reversed(xs), 25) == pytest.approx(3.25)


def test_top_percentile_leaves_ten_samples_above():
    assert harness.top_percentile(9) is None
    assert harness.top_percentile(20) == 50
    assert harness.top_percentile(100) == 90
    assert harness.top_percentile(1000) == 99
    assert harness.top_percentile(10000) == 99.9


def test_real_pipeline_passes_and_usage_error_fails():
    env = harness.child_env()
    good = workloads.exact_h_op(random.Random(1), 17, log_form=False)
    res, problem = harness.run_op(good, env)
    assert problem is None, problem
    assert res.returncodes == [0, 0] and res.cpu_s > 0 and res.peak_rss_mb > 0
    bad = workloads.Op("bad", (("march", "--phi", "-2*ln(2-x)"),), "max_abs",
                       lambda s, b: None)
    res, problem = harness.run_op(bad, env)
    assert res.returncodes == [1]
    assert "exited 1" in problem


def test_metadata_fields():
    meta = harness.run_metadata()
    assert meta["src_lines"] > 0 and meta["cpu_count"] >= 1
    assert set(meta["thread_env"]) == set(harness.THREAD_VARS)
