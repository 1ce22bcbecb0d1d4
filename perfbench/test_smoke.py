"""Smoke test of the benchmark itself; it runs every workload briefly.

    python3 -m pytest -q perfbench/test_smoke.py

It takes a few minutes, because one pass of ``long_course`` takes ~20 s.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    cmd = [sys.executable, "perfbench/run.py", "--seed", "0", "--seconds", "1", *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported(workload: str, trace: str) -> None:
    code, out = bench("--workload", workload, "--trace", trace)
    result = result_of(out)
    assert code == 0 and result["correct"] and result["failed"] == 0
    listed = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_wrong_recorded_digest_fails_the_run(tmp_path: Path) -> None:
    recorded = json.loads((HERE / "recorded.json").read_text())
    recorded["digests"]["course"]["log_digest"] = "0" * 64
    wrong = tmp_path / "recorded.json"
    wrong.write_text(json.dumps(recorded))
    code, out = bench("--workload", "course", "--trace", "0", "--recorded", str(wrong))
    result = result_of(out)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - 1  # every pass but the adaptive one


def test_exits_without_result_when_the_program_is_missing(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, out = bench("--workload", "course", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert '"correct"' not in out
