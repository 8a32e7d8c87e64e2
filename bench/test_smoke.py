"""Smoke test of the benchmark harness.

Runs the tiny ``smoke`` workload through all six stages, untraced and
traced, and checks the result against ``BENCHMARK.json``. It is not part of
the repository's test suite (``testpaths`` is ``tests``); run it with

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ROOT / ".bench_work" / "records"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3
STAGES = {"generate", "aggregate", "estimate", "detect-flooding", "stats",
          "detect-coordination"}


def run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "smoke", "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_appears_with_its_unit_and_all_checks_pass(trace, section):
    done = run_bench(ROOT, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0
    # At least three set-ups and three repetitions of the five analysis stages.
    assert result["attempted"] >= 3 * 6
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in DECLARED[section]}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if section == "end_to_end":
        assert result["metrics"]["stage_pass_ratio"]["value"] == 1.0
    else:
        assert result["metrics"]["failed_stage_ratio"]["value"] == 0.0
        assert result["metrics"]["records.notice_passes"]["value"] > 0
        assert result["metrics"]["coordination.components"]["value"] == 2
        check_spans(RECORDS / f"smoke-seed{SEED}-trace1.spans.json")


def check_spans(path: Path) -> None:
    """One stage span per stage; within each, self times add up to its wall time."""
    spans = json.loads(path.read_text(encoding="utf-8"))
    errors = spans["stage_self_sum_error_s"]
    assert set(errors) == STAGES
    assert all(abs(error) < 1e-6 for error in errors.values()), errors
    stage_ids = {s["id"] for s in spans["spans"] if s["kind"] == "stage"}
    for span in spans["spans"]:
        assert span["stage_id"] in stage_ids
        if span["kind"] != "stage":
            assert span["parent"] is not None


def test_fails_without_a_result_where_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
