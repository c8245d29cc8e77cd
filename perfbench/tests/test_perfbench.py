"""Tests of the benchmark itself, at a short run length.

Run from the root of a source checkout:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def short_steps(name):
    return None if run.WORKLOADS[name][4] is None else run.TEST_STEPS


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_workload_runs_and_prints_every_end_to_end_metric(name, capsys):
    # seed 32 maps to input seed 0, the one with short-length references
    result = run.benchmark(name, seed=32, seconds=0, trace=False, steps=short_steps(name))
    assert result["failed"] == 0, result["problems"]
    assert result["runs"] == run.MIN_RUNS
    final = run.report(result, trace=False)
    assert final["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in final["metrics"].items()} == want
    assert all(v["value"] > 0 for v in final["metrics"].values())
    printed = capsys.readouterr().out
    for key, unit in want.items():
        assert f"{key}" in printed and f" {unit}\n" in printed
    assert "failed_frac = 0 1" in printed


def test_traced_run_prints_every_per_layer_metric():
    name = "anchor-r32"
    result = run.benchmark(name, seed=0, seconds=0, trace=True, steps=run.TEST_STEPS)
    assert result["failed"] == 0, result["problems"]
    assert result["traced_runs"] == run.MIN_RUNS
    final = run.report(result, trace=True)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in final["metrics"].items()} == want
    layers = result["per_layer"]
    # four right-hand sides per RK4 step
    assert layers["flow.anchor_velocity.calls"] == 4 * run.TEST_STEPS
    assert layers["flow.anchor_velocity.self_s"] > 0
    assert math.isfinite(layers["trace.overhead_frac"])
    with open(os.path.join(run.OUT, f"spans-{name}.json"), encoding="utf-8") as fh:
        assert json.load(fh)["skipped"] == []


def test_self_time_excludes_children():
    spans_list = [
        ["flow.run_flow", -1, 0.0, 10.0, 4096],
        ["flow.anchor_velocity", 0, 1.0, 5.0, None],
        ["forms.wedge", 1, 2.0, 3.0, None],
        ["flow.anchor_velocity", 0, 6.0, 8.0, None],
    ]
    out = spans.layer_metrics(spans_list)
    assert out["flow.run_flow.self_s"] == pytest.approx(4.0)
    assert out["flow.anchor_velocity.self_s"] == pytest.approx(5.0)
    assert out["flow.anchor_velocity.calls"] == 2
    assert out["flow.anchor_velocity.p50_ms"] == pytest.approx(2000.0)
    assert out["flow.anchor_velocity.p99_ms"] == pytest.approx(4000.0)
    assert out["flow.trajectory.bytes_held"] == 4096


def _corrupt_record(out_dir, field, value, line=1):
    """Overwrite one field of a diagnostics line (1: first record, -2: last)."""
    path = os.path.join(out_dir, "diagnostics.jsonl")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rec = json.loads(lines[line])
    rec[field] = value
    lines[line] = json.dumps(rec)  # json writes NaN for float("nan")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _set_all_pass(out_dir, value):
    path = os.path.join(out_dir, "reports.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["allPass"] = value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("monitor-r32", lambda d: _corrupt_record(d, "sMax", float("nan"))),
        ("monitor-r32", lambda d: _corrupt_record(d, "t", 1.0)),
        ("anchor-r32", lambda d: _corrupt_record(d, "balancedDefect", 1e-3)),
        ("weighted-r64", lambda d: _corrupt_record(d, "hEigMax", 2.0, line=-2)),
        ("verify-r32", lambda d: _set_all_pass(d, False)),
    ],
)
def test_corrupted_output_counts_as_failed(name, corrupt, monkeypatch, capsys):
    real_run_child = run.run_child
    calls = []

    def corrupting_run_child(verb, config_path, out_dir, seed, spans_path=None):
        child, error = real_run_child(verb, config_path, out_dir, seed, spans_path)
        calls.append(out_dir)
        if len(calls) == 2:
            corrupt(out_dir)
        return child, error

    monkeypatch.setattr(run, "run_child", corrupting_run_child)
    result = run.benchmark(name, seed=0, seconds=0, trace=False, steps=short_steps(name))
    assert result["attempted"] == run.MIN_RUNS
    assert result["failed"] == 1
    assert result["runs"] == run.MIN_RUNS - 1
    final = run.report(result, trace=False)
    assert final["correct"] is False
    assert f"failed_frac = {1 / run.MIN_RUNS:.6g} 1" in capsys.readouterr().out


def test_without_sources_exits_nonzero_without_result():
    # a directory holding only BENCHMARK.json and the benchmark's own files
    bare = os.path.join(run.WORK, f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "weighted-r64",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
