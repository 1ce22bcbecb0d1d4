"""Every demo script runs to the end against the package in ``src``."""

from __future__ import annotations

import subprocess
import sys

import pytest

from helpers import ROOT, child_env

DEMOS = ("calibrate_from_points.py", "render_scene.py", "run_course.py", "single_pick.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo, tmp_path):
    args = [sys.executable, str(ROOT / "demos" / demo)]
    if demo == "render_scene.py":
        args.append(str(tmp_path / "out"))  # its output directory
    proc = subprocess.run(
        args, cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
