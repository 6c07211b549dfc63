"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_checkout_sources()

import tracing  # noqa: E402
import workloads  # noqa: E402
from hcmu import builders  # noqa: E402

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize(
    "n, pct",
    [(19, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99), (9999, 99), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert run.tail_percentile(n) == pct


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([7], 90) == 7


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0, 100, -1, 0],
        ["a", 10, 30, 0, 0],
        ["b", 25, 50, 0, 0],  # overlaps a: the overlap is subtracted once
        ["a.inner", 12, 20, 1, 0],
        ["root", 200, 210, -1, 1],
    ]
    assert tracing.self_times(spans) == [60, 12, 25, 8, 10]
    assert tracing.per_span(spans) == {
        "root": (2, pytest.approx(70e-9)),
        "a": (1, pytest.approx(12e-9)),
        "b": (1, pytest.approx(25e-9)),
        "a.inner": (1, pytest.approx(8e-9)),
    }


def test_install_wraps_calls_inside_the_package_and_restores_them():
    original = builders.build_surface
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        assert builders.build_surface is not original
        builders.build_surface(0, [3, 3], [1, 2])  # outside an op: not recorded
        assert tracer.spans == []
        tracer.op = 7
        builders.build_surface(0, [3, 3], [1, 2])
        tracer.op = None
    assert builders.build_surface is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "builders.build_surface"
    assert "constraints.check_refined" in names and "angulation.MixedAngulation" in names
    assert all(s[4] == 7 for s in tracer.spans)
    assert all(s[3] == 0 for s in tracer.spans[1:] if s[0] == "constraints.check_refined")


@pytest.mark.xfail(raises=AssertionError, strict=True, reason="build_one_cone asserts on some gcd(p, q) >= 3")
def test_one_cone_with_a_common_factor_of_three_builds():
    # one_cone_triple leaves out gcd(p, q) >= 3 because of this failure;
    # once it passes, drop that filter so the construct workload covers them
    builders.build_one_cone(0, 9, 6)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_round_of_each_workload_is_correct_and_repeats(name, tmp_path):
    first = workloads.WORKLOADS[name](3, tmp_path)
    second = workloads.WORKLOADS[name](3, tmp_path)
    try:
        a = run.measure(first, 0, 1)
        b = run.measure(second, 0, 1)
    finally:
        first.close()
        second.close()
    assert a["failures"] == []
    assert len(a["latencies"]) == first.round_len
    assert (a["digest"], a["counts"]) == (b["digest"], b["counts"])


def test_command_prints_the_metrics_as_its_last_line():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "profile", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] >= run.MIN_OPS
    assert set(line["metrics"]) == {"ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb"}


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "profile", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
