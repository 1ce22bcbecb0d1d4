"""Write the files that explain a failure of the recorded-digest test.

Run it from the repository root after an output change has refreshed
``perfbench/recorded.json``:

    PYTHONPATH=src:tests python tests/data/refresh.py

For the course, the adaptive course and noisy_course it writes
``<entry>_report.json``, the run's ``report.json``, and
``<entry>_log_lines.txt``, one ``seq topic sha256[:16]`` line per line of
its ``messages.ndjson``. It also writes ``libm.txt``: the distinct inputs
of every ``math.sin``, ``math.cos`` and ``math.atan2`` call that clearbot
makes on those runs and on long_course, with this libm's results, as
``float.hex``.
"""

from __future__ import annotations

import importlib
import json
import math
import pkgutil

import clearbot
from clearbot import orchestrator
from clearbot.log import messages_to_ndjson, report_to_json
from clearbot.orchestrator import build_benchmark_config
from clearbot.schema import parse_scenario
from helpers import DATA, PERFBENCH, log_lines, perfbench_module


class _RecordingMath:
    """``math``, with the inputs of ``sin``, ``cos`` and ``atan2`` kept."""

    def __init__(self) -> None:
        self.calls: set[tuple[str, tuple[float, ...]]] = set()

    def __getattr__(self, name: str):
        return getattr(math, name)

    def _call(self, name: str, *args: float) -> float:
        self.calls.add((name, tuple(float(a) for a in args)))
        return getattr(math, name)(*args)

    def sin(self, x):
        return self._call("sin", x)

    def cos(self, x):
        return self._call("cos", x)

    def atan2(self, y, x):
        return self._call("atan2", y, x)


def main() -> None:
    recording = _RecordingMath()
    # every module of the package, but __main__, whose import runs the CLI
    names = [info.name for info in pkgutil.iter_modules(clearbot.__path__)]
    for module in [importlib.import_module(f"clearbot.{n}") for n in names if n != "__main__"]:
        if getattr(module, "math", None) is math:
            module.math = recording
    seed = json.loads((PERFBENCH / "recorded.json").read_text())["default_seed"]
    workloads = perfbench_module("workloads")
    runs = {
        "course": build_benchmark_config(),
        "adaptive_course": build_benchmark_config(adaptive_order=True),
        "noisy_course": parse_scenario(workloads.noisy_course(seed)),
        "long_course": parse_scenario(workloads.long_course(seed)),
    }
    for entry, cfg in runs.items():
        report, sim = orchestrator.run_scenario(cfg)
        if entry == "long_course":
            continue
        (DATA / f"{entry}_report.json").write_text(report_to_json(report))
        lines = log_lines(messages_to_ndjson(sim.bus))
        (DATA / f"{entry}_log_lines.txt").write_text("".join(f"{line}\n" for line in lines))
    rows = [
        " ".join([name, *(a.hex() for a in args), getattr(math, name)(*args).hex()])
        for name, args in sorted(recording.calls)
    ]
    header = (
        "# function, inputs and result of each distinct math.sin, cos and atan2\n"
        "# call on the recorded runs, as float.hex, under glibc 2.36\n"
    )
    (DATA / "libm.txt").write_text(header + "".join(f"{row}\n" for row in rows))


if __name__ == "__main__":
    main()
