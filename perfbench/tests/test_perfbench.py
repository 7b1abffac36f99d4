"""Tests of the benchmark harness itself, on tiny workloads.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "train_qffn_L4": dataclasses.replace(
        WORKLOADS["train_qffn_L4"], num_train=6, num_val=3, epochs=2, batch_size=4,
        min_val_accuracy=0.0,
    ),
    "train_classical": dataclasses.replace(
        WORKLOADS["train_classical"], num_train=6, num_val=3, epochs=2, batch_size=4,
        min_val_accuracy=0.0,
    ),
    "probe": dataclasses.replace(WORKLOADS["probe"], depths=(1, 8), num_samples=30),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def _traced_job(workload, seed=3):
    cli = run.import_qffn()
    workdir, config_path, out_dir = run.prepare(workload, seed)
    tracer = tracing.Tracer("test")
    try:
        job = run.run_job(cli, workload, config_path, out_dir, tracer)
    finally:
        shutil.rmtree(workdir)
    return job, tracer


def _wrapped_attributes():
    run.import_qffn()
    return {
        (module, path): vars(owner)[attr]
        for _, module, path in tracing.TRACED
        for owner, attr in [tracing.resolve(module, path)]
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_printed_with_its_unit(tiny, capsys, name, trace):
    code = run.main(["--workload", name, "--seed", "5", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1 + trace
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert f"metric {metric['name']} = {printed['value']!r} {metric['unit']}" in lines


def test_traced_job_restores_every_wrapped_attribute():
    before = _wrapped_attributes()
    tracer = tracing.Tracer("test")
    with tracer.installed():
        during = _wrapped_attributes()
    assert all(during[key] is not before[key] for key in before)
    assert _wrapped_attributes() == before

    job, _ = _traced_job(TINY["train_qffn_L4"])
    assert job["ok"], job.get("error")
    assert all(v is before[k] for k, v in _wrapped_attributes().items())

    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("job failed")
    assert all(v is before[k] for k, v in _wrapped_attributes().items())


@pytest.mark.parametrize("name", sorted(TINY))
def test_self_times_sum_to_the_root_span(name):
    job, tracer = _traced_job(TINY[name])
    assert job["ok"], job.get("error")
    roots = [i for i, (_, _, _, parent) in enumerate(tracer.spans) if parent == -1]
    assert [tracer.spans[i][0] for i in roots] == [tracing.ROOT_SPAN]
    _, start, end, _ = tracer.spans[roots[0]]
    self_times = tracer.self_times()
    assert min(self_times) >= 0.0
    assert sum(self_times) == pytest.approx(end - start, rel=1e-9, abs=1e-9)


def test_counters_follow_the_circuit_calls():
    workload = TINY["train_qffn_L4"]
    job, tracer = _traced_job(workload)
    calls = job["calls"]
    # optimized ansatz, L=4: 32 angles, one encoding layer of 4 qubits
    assert tracer.counters["circuits.rows_simulated"] == (
        calls["circuits.pqc_forward"] + 73 * calls["circuits.pqc_value_and_gradients"]
    )
    # Every gradient call re-simulates the circuit its forward pass ran.
    assert tracer.counters["circuits.rows_recomputed"] == calls["circuits.pqc_value_and_gradients"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "probe", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
