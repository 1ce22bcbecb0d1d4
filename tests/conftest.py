"""Shared fixtures: the built-in ten-object course is expensive enough
(a few seconds per run) that the runs are produced once per session and
shared by the orchestrator, CLI, and acceptance tests."""

from __future__ import annotations

import contextlib
import io
import time
from pathlib import Path

import pytest

from clearbot import cli
from clearbot.orchestrator import (
    RunReport,
    Simulation,
    build_benchmark_config,
    run_scenario,
)
from helpers import Recorder, openblas_core, run_recorded


def pytest_report_header(config) -> str:
    # the recorded digests hold under the SkylakeX kernel alone (ROADMAP,
    # Baseline), so a red digest test on another kernel need not be a fault
    return f"openblas core: {openblas_core()}"


@pytest.fixture(scope="session")
def benchmark_run() -> tuple[RunReport, Simulation, Recorder, float]:
    """The course, with a recorder that keeps every message it publishes."""
    t0 = time.perf_counter()
    report, sim, recorder = run_recorded(build_benchmark_config())
    wall = time.perf_counter() - t0
    return report, sim, recorder, wall


@pytest.fixture(scope="session")
def benchmark_rerun() -> tuple[RunReport, Simulation]:
    return run_scenario(build_benchmark_config())


@pytest.fixture(scope="session")
def adaptive_run() -> tuple[RunReport, Simulation]:
    return run_scenario(build_benchmark_config(adaptive_order=True))


@pytest.fixture(scope="session")
def cli_benchmark(tmp_path_factory) -> tuple[int, str, Path, float]:
    """One `benchmark --paper-table1` invocation: (exit code, stdout, out dir, wall s)."""
    out = tmp_path_factory.mktemp("bench_out")
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["benchmark", "--paper-table1", "--out", str(out)])
    wall = time.perf_counter() - t0
    return code, buf.getvalue(), out, wall
