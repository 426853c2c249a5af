"""Smoke test of the benchmark itself on the `tiny-*` workloads.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that traced spans nest (self times >= 0, children inside their parent) and
that the wrapped module attributes are restored afterwards.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
import worker  # noqa: E402


def _declared(section: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["tiny-run", "tiny-dataset"])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_traced_spans_nest_and_wrapped_attributes_are_restored(tmp_path):
    before = tracing.snapshot_sites()
    worker.main(["--workload", "tiny-run", "--seed", "3", "--work", str(tmp_path), "--trace",
                 "--result", str(tmp_path / "result.json"), "--spawned-at", repr(time.monotonic())])
    assert tracing.originals_restored(before)
    with open(tmp_path / "result.json") as fh:
        assert json.load(fh)["restored"]

    with open(tmp_path / "spans.json") as fh:
        spans = json.load(fh)["spans"]
    names = {s[tracing.NAME] for s in spans}
    assert {"cli.main", "mlp.train", "mlp.backward", "dtree.fit_tree", "propagation.rsrp_grid"} <= names
    assert all(own >= -1e-9 for own in tracing.self_times(spans))  # float rounding only
    for span in spans:
        if span[tracing.PARENT] >= 0:
            parent = spans[span[tracing.PARENT]]
            assert parent[tracing.START] <= span[tracing.START] <= span[tracing.END] <= parent[tracing.END]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench(str(tmp_path), "tiny-run", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
