"""Every demo script runs to the end against the package in ``src``."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("calibrate_from_points.py", "render_scene.py", "run_course.py", "single_pick.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo, tmp_path):
    args = [sys.executable, str(ROOT / "demos" / demo)]
    if demo == "render_scene.py":
        args.append(str(tmp_path / "out"))  # its output directory
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), path]))}
    proc = subprocess.run(
        args, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
