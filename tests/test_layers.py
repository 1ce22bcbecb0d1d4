"""The package is its modules: importing one loads only the layers below it
(scene, camera, geometry, then segmentation and arm side by side, then the
scenario schema, the orchestrator and the command line), and the package
root loads none."""

from __future__ import annotations

import subprocess
import sys

import pytest

from helpers import child_env

_BELOW_SEGMENTATION = {"scene", "camera", "geometry"}
_BELOW_SCHEMA = _BELOW_SEGMENTATION | {"segmentation", "arm"}
_ALL = _BELOW_SCHEMA | {"schema", "orchestrator"}

LOADED = {
    "clearbot": set(),
    "clearbot.scene": {"scene"},
    "clearbot.camera": {"scene", "camera"},
    "clearbot.geometry": _BELOW_SEGMENTATION,
    "clearbot.segmentation": _BELOW_SEGMENTATION | {"segmentation"},
    "clearbot.arm": _BELOW_SEGMENTATION | {"arm"},
    "clearbot.schema": _BELOW_SCHEMA | {"schema"},
    "clearbot.orchestrator": _ALL,
    "clearbot.cli": _ALL | {"cli"},
}


@pytest.mark.parametrize("module", LOADED)
def test_a_module_loads_only_the_layers_below_it(module):
    script = (
        "import sys\n"
        f"import {module}\n"
        "loaded = [m for m in sys.modules if m.startswith('clearbot.')]\n"
        "print(' '.join(m.removeprefix('clearbot.') for m in loaded))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=child_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == LOADED[module]
