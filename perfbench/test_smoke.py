"""Smoke test of the benchmark itself.

Runs every workload for one repetition of its real configuration
(``--seconds 0``), traced and untraced, and checks the output contract:
every named metric is emitted with its unit, spans nest, self times are
never negative and never exceed their parent.  Run with::

    python -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER  # noqa: E402
from tracing import Tracer, check_nesting  # noqa: E402

WORKLOADS = ("gpt-ff", "gpt-profiled", "t5-pressure", "gpt-real")


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_emits_every_end_to_end_metric(workload):
    result = _result(_run(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_emits_every_per_layer_metric_and_spans_nest(workload):
    result = _result(_run(workload, 1))
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(PER_LAYER)
    record = json.loads((HERE / "results" / f"{workload}-seed3-trace1.json").read_text())
    assert record["trace"] is True and record["seed"] == 3
    for key in ("commit", "source_sha256", "config_hash", "nproc", "python", "numpy"):
        assert key in record
    spans = []
    with open(ROOT / record["spans_file"]) as fh:
        for line in fh:
            s = json.loads(line)
            spans.append((s["id"], s["parent"], s["name"], s["start_ns"], s["end_ns"], s["self_ns"]))
    assert spans
    assert check_nesting(spans) == []
    by_id = {s[0]: s for s in spans}
    for span in spans:
        parent = by_id.get(span[1])
        if parent is not None:
            assert span[5] <= parent[4] - parent[3]
    for name, layer in record["layers"].items():
        assert 0 <= layer["self_ms"] <= layer["outer_ms"] + 1e-9 or layer["outer_ms"] == 0, name


def test_tracer_self_time_excludes_children():
    tracer = Tracer()

    def child():
        return sum(range(1000))

    def parent():
        return tracer.span("child", child) + tracer.span("child", child)

    tracer.span("parent", parent)
    spans = tracer.spans()
    assert check_nesting(spans) == []
    (parent_span,) = [s for s in spans if s[2] == "parent"]
    children = [s for s in spans if s[2] == "child"]
    covered = sum(s[4] - s[3] for s in children)
    assert parent_span[5] == parent_span[4] - parent_span[3] - covered
    assert all(s[1] == parent_span[0] for s in children)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("gpt-ff", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
