"""The frozen outcome table holds on seeds 0-9 of the generated workloads.

Each seed of ``noisy_course`` and ``long_course`` draws its own noise or
pose jitter, and every run must still give each object its frozen outcome
(attributions may move; see ``perfbench/run.py``). The twenty runs take a
few minutes, so the tests are marked ``sweep`` and left out of a plain
``pytest``; run them with

    python -m pytest -m sweep
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from clearbot import cli
from clearbot.orchestrator import run_scenario

pytestmark = pytest.mark.sweep

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("workload", ["noisy_course", "long_course"])
def test_generated_course_keeps_the_frozen_outcomes(workloads, workload, seed):
    doc = workloads.GENERATORS[workload](seed)
    report, _ = run_scenario(cli.parse_scenario(doc))
    expected = workloads.expected_outcomes(workload, doc)
    assert report.attempted == len(expected)
    got = {r.object_id: r.outcome for r in report.records}
    assert got == {oid: outcome for oid, (outcome, _) in expected.items()}
