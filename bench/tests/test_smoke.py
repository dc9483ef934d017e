"""Smoke-sized runs of every workload through the benchmark's own entry point.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, seed: int = 7, seconds: float = 0.0):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    *_, info_line, result_line = out.stdout.strip().splitlines()
    assert info_line.startswith("info ")
    return json.loads(info_line[5:]), json.loads(result_line)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    info, result = run_bench(workload, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert info["check_problems"] == []
    assert info["budget_ms"] == 60_000 and info["node_cap"] == 50_000
    for key in ("nproc", "python", "seed", "src_lines", "report_sha256"):
        assert key in info
    if trace:
        metrics = result["metrics"]
        # Every hook fired, and the hooked spans cover the traced pass.
        for name in ("simulation.sample_s", "simulation.self_s", "orchestrator.step_self_s",
                     "orchestrator.apply_update_s", "selection.self_s", "blp.build_s",
                     "blp.knapsack.solve_s", "model.opt_s", "io.report_s"):
            assert metrics[name]["value"] > 0, name
        assert metrics["trace.accounted_share"]["value"] == pytest.approx(1, abs=0.02)
        assert (ROOT / info["trace_file"]).is_file()


def test_report_hash_repeats_for_one_seed():
    first, _ = run_bench("full-nolev", 0, seed=11, seconds=8.0)
    second, _ = run_bench("full-nolev", 0, seed=11)
    assert len(first["pass_wall_s"]) > 1
    assert len(first["report_sha256"]) == 1
    assert first["report_sha256"] == second["report_sha256"]


def test_missing_sources_fail_without_a_result(tmp_path):
    # Only BENCHMARK.json and the benchmark's own files, no src/.
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "full-nolev", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
