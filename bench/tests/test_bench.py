"""Smoke tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest bench/tests -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import program  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = list(workloads.WORKLOADS)


def _declared(section):
    return {m["name"]: m["unit"] for m in run.DECLARED[section]}


def test_declared_metrics_match_the_runner():
    assert list(_declared("end_to_end")) == list(run.END_TO_END)
    assert list(_declared("per_layer")) == list(run.PER_LAYER)
    assert sorted(run.RATIONALE) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_smoke(workload):
    result = run.measure(workload, run.DEFAULT_SEED, 0.01, trace=0, size="tiny", fresh=1)
    assert set(result["metrics"]) == set(_declared("end_to_end"))
    assert all(m["value"] > 0 and m["samples"] >= 1 for m in result["metrics"].values())
    assert result["attempted"] > 0
    assert result["failed"] == 0  # includes the stored default-seed digests
    assert result["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke(workload):
    from fuzzyfp import cli, metrics, rng

    originals = (cli.main, metrics.StandardFuzzyMetric.mu_grid, rng.SplitMix64.next_u64)
    result = run.measure(workload, run.DEFAULT_SEED + 1, 0.01, trace=1, size="tiny", blocks=1)
    assert set(result["metrics"]) == set(_declared("per_layer"))
    assert result["failed"] == 0 and result["correct"]
    digests = result["digests"]
    assert digests["traced"] == digests["untraced"] == digests["memory"]
    assert (cli.main, metrics.StandardFuzzyMetric.mu_grid, rng.SplitMix64.next_u64) == originals


@pytest.mark.parametrize("workload", WORKLOADS)
def test_cells_agree_with_estimator_reports(workload, tmp_path):
    """cells_per_s counts cells from artifacts; the tracer counts them from
    the estimators' return values.  Both must agree."""
    gate = run.Gate({})
    runner = run.Runner(program.import_cli(), workload, 7, "tiny", str(tmp_path), gate)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, _, cells = runner.round(0)
    finally:
        tracer.uninstall()
    assert gate.failed == 0
    assert cells == tracer.counts["hypotheses.cells"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
