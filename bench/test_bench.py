"""Self-tests of the benchmark:  python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import speed  # noqa: E402
from tracer import COUNT_NAMES, SPAN_NAMES, layer_metrics, self_times  # noqa: E402

SMALL = run.Command(("zc", "--no-shortcuts", "cyclic:10"), expect="Proved")


@pytest.fixture(scope="module")
def helpzc():
    return run.import_helpzc()


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        ["verify.driver", 0.0, 10.0, -1],
        ["constraints.assembly", 1.0, 4.0, 0],
        ["intsolve.search", 5.0, 9.0, 0],
        ["intsolve.lp", 6.0, 7.5, 2],
        ["intsolve.lp", 8.0, 8.5, 2],
    ]
    got = self_times(spans)
    assert got["verify.driver"] == pytest.approx(3.0)
    assert got["constraints.assembly"] == pytest.approx(3.0)
    assert got["intsolve.search"] == pytest.approx(2.0)
    assert got["intsolve.lp"] == pytest.approx(2.0)
    assert sum(got.values()) == pytest.approx(10.0)

    sweep = [["intsolve.redund", 10.0, 12.0, -1], ["intsolve.lp", 10.5, 11.5, 5]]
    metrics = layer_metrics(spans + sweep, {})
    assert metrics["intsolve.redund_s"] == pytest.approx(2.0)
    assert metrics["intsolve.lp_s"] == pytest.approx(3.0)


def test_traced_runs_repeat_counts_and_account_for_verdict_time():
    first, second = (run.launch(SMALL, trace=True) for _ in range(2))
    assert "error" not in first and "error" not in second
    counts = [{k: layer_metrics([], r["counts"])[k] for k in COUNT_NAMES} for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["intsolve.lp_solves"] > 0
    for report in (first, second):
        own = self_times(report["spans"])
        assert set(own) == set(SPAN_NAMES)
        covered = sum(own.values()) - own["chartables.load"]
        assert covered == pytest.approx(report["verdict_s"], rel=0.02, abs=0.002)


def test_reference_seconds_integrate_the_sampled_speed():
    probe = speed.SpeedProbe()
    probe._stop.set()  # sampling has ended: no waiting, the last speed extends
    # speed 1 up to t=10, 2 from 10 to 12, then 0.5
    probe._samples[:] = [(10.0, 1.0, 0.0), (11.0, 2.0, 2.0), (12.0, 2.0, 4.0), (14.0, 0.5, 5.0)]
    assert probe.work(9.0, 10.0) == pytest.approx(1.0)
    assert probe.work(10.0, 11.5) == pytest.approx(3.0)
    assert probe.work(11.5, 15.0) == pytest.approx(1.0 + 1.0 + 0.5)
    assert probe.at(12.0) == pytest.approx(4.0)


def test_probe_pins_the_process_and_samples_the_speed():
    before = os.sched_getaffinity(0)
    with speed.SpeedProbe() as probe:
        assert os.sched_getaffinity(0) == {probe.cpu}
        t0 = perf_counter()
        speed.burst()
        t1 = perf_counter()
        assert probe.work(t0, t1) > 0
        assert 0.2 < probe.mean_speed() < 5
    assert not probe._thread.is_alive()
    assert os.sched_getaffinity(0) == before


def test_tracing_does_not_change_the_store():
    plain, traced = run.launch(SMALL), run.launch(SMALL, trace=True)
    assert plain["store"] == traced["store"]
    assert plain["verdict"] == traced["verdict"] == "Proved"


def test_checker_accepts_a_real_report_and_rejects_broken_ones(helpzc):
    report = run.launch(SMALL)
    assert run.Checker(helpzc).problems(SMALL, report) == []

    wrong_verdict = {**report, "verdict": "Unknown"}
    assert any("expected 'Proved'" in p for p in run.Checker(helpzc).problems(SMALL, wrong_verdict))

    store = report["store"]
    dropped = {**store, "solutions": {**store["solutions"], "10": store["solutions"]["10"][1:]}}
    problems = run.Checker(helpzc).problems(SMALL, {**report, "store": dropped})
    assert any("group-element tuples missing" in p for p in problems)

    unclosed = {**store, "solutions": {"10": store["solutions"]["10"]}}
    problems = run.Checker(helpzc).problems(SMALL, {**report, "store": unclosed})
    assert any("rejected on reload" in p for p in problems)

    checker = run.Checker(helpzc)
    assert checker.problems(SMALL, report) == []
    assert any("digest" in p for p in checker.problems(SMALL, {**report, "store": dropped}))

    assert run.Checker(helpzc).problems(SMALL, {"error": "exit status 1: boom"}) == [
        "exit status 1: boom"
    ]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "m11", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
