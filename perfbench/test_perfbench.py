"""Smoke tests of the benchmark on a coarse grid (24 cells, a few seconds).

    PYTHONPATH=src python3 -m pytest perfbench -q

They run the harness, the workers, the tracer and the checker end to end,
and show that the checker rejects tampered artifacts.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import run
import spans
import speed

COARSE = 24


@pytest.fixture
def sweep():
    bench = run.Run("coefficients-sweep", seed=0, cells=COARSE, probes=1)
    yield bench
    bench.close()


def test_sweep_runs_and_passes_every_check(sweep):
    result = run.end_to_end(sweep, 0.01)
    assert result["correct"], sweep.failures
    assert (result["attempted"], result["failed"]) == (5, 0)
    assert set(result["metrics"]) == {"wall_s", "cpu_s", "peak_rss_mb",
                                      "setup_s"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # every invocation and every set-up got speed samples
    assert all(inv["kernel_s"] > 0 for inv in sweep.rounds[0]["invocations"])


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        spans.LAYER_METRICS
    assert [m["name"] for m in bench["end_to_end"]] == \
        ["wall_s", "cpu_s", "peak_rss_mb", "setup_s"]
    assert sorted(w["name"] for w in bench["workloads"]) == \
        sorted(run.WORKLOADS)


def test_tampered_coefficients_fail_the_check(sweep):
    run.end_to_end(sweep, 0.01)
    out = sweep.rounds[0]["out"] / "n11"
    inputs = sweep.inputs[11]
    assert check.check_run(out, inputs, 11, with_slopes=False) == []

    path = out / "coefficients.csv"
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    phi = float(fields[9])
    fields[9] = repr(phi * (1.0 + 1e-6))
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    failures = check.check_run(out, inputs, 11, with_slopes=False)
    assert any("phi" in f for f in failures), failures


def test_tampered_tree_is_not_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        root.mkdir()
        (root / "coefficients.csv").write_text("label\nbattery-00\n")
    assert check.compare_trees(a, b) == []
    (b / "coefficients.csv").write_text("label\nbattery-01\n")
    assert check.compare_trees(a, b) == ["coefficients.csv differs"]


def test_threaded_sweep_matches_serial_bytes():
    bench = run.Run("coefficients-sweep-threads2", seed=0, cells=COARSE,
                    probes=1)
    try:
        result = run.end_to_end(bench, 0.01)
        assert (bench.work / "serial-reference").is_dir()
    finally:
        bench.close()
    assert result["correct"], bench.failures


def _traced_counts(seed: int) -> dict:
    bench = run.Run("coefficients-sweep", seed=seed, cells=COARSE, probes=1)
    try:
        result = run.traced(bench)
    finally:
        bench.close()
    assert result["correct"], bench.failures
    metrics = result["metrics"]
    assert [name for name in metrics] == [n for n, _ in spans.LAYER_METRICS]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


def test_traced_counts_repeat_exactly():
    first, second = _traced_counts(0), _traced_counts(1)
    assert first == second
    # a Richardson pair per dimension, each factor probed 25 times
    assert first["corrector.factorizations"] == 2 * 5
    assert first["corrector.lu_solves"] == 51 * 2 * 5
    assert first["geometry.metric_inverse_points"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(Path(run.HERE), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_scaled_time_follows_the_host_speed():
    # twice as slow a host: the kernel and the measured time both double
    assert speed.scaled(2.0, 2 * speed.REFERENCE_S) == pytest.approx(1.0)
    assert speed.scaled(1.0, speed.REFERENCE_S) == pytest.approx(1.0)
    sampler = speed.Sampler()
    sampler.sample()
    sampler.sample()
    assert sampler.mean(0.0, float("inf")) > 0
