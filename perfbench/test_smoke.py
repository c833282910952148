"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json declares is printed with its unit,
that every output check passes, that tracing leaves no wrapper behind, and
that the benchmark refuses to run without the repository's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_declared_metrics_match_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert _declared("end_to_end") == dict(run.END_TO_END)
    assert _declared("per_layer") == dict(run.PER_LAYER)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_end_to_end_metrics(name):
    result, record = run.bench(name, seed=3, seconds=0.2, trace=0, size="tiny")
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["environment"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_restores_the_library(name):
    import blockprec.partition
    import blockprec.spectral
    import tracer

    original = blockprec.partition.check_symmetric_matrix
    result, record = run.bench(name, seed=3, seconds=0.2, trace=1, size="tiny")
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _declared("per_layer")
    assert result["metrics"]["cli.main.calls"]["value"] >= 1
    assert tracer.leftover_wrappers() == []
    assert blockprec.partition.check_symmetric_matrix is original
    assert blockprec.spectral.check_symmetric_matrix is original


def test_tracer_wraps_reexported_names():
    import blockprec
    import blockprec.solver
    import blockprec.spectral
    import tracer

    run.import_blockprec()
    tr = tracer.Tracer()
    tr.install()
    try:
        for module in (blockprec, blockprec.spectral, blockprec.solver):
            assert hasattr(module.sample_uniform_partition, tracer._MARK)
        blockprec.spectral.lambda_min_precond(
            blockprec.gen_uniform_q(4, 0.2), blockprec.sample_uniform_partition(4, 2, 0))
    finally:
        tr.uninstall()
    tr.close_run()
    assert tracer.leftover_wrappers() == []
    assert tr.calls["partition.BlockCholesky.factorize"] == 1
    assert tr.calls["spectral.lambda_min_precond"] == 1


def test_command_prints_result_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "solve-quadratic", "--seed", "5",
         "--seconds", "0.2", "--trace", "0", "--size", "tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectral-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
