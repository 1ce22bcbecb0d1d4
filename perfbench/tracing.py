"""In-memory spans around the calls into each clearbot layer.

The tracer rebinds the layer functions that ``clearbot.orchestrator`` and
``clearbot.cli`` look up as module globals, and wraps a simulation's own
``step``, ``arm.execute_pick`` and ``bus.publish``. No clearbot source file
changes; ``Tracer.uninstall`` puts every name back.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from typing import Any, Callable, TextIO

from clearbot import cli, orchestrator
from clearbot.orchestrator import Topic

LAYERS = ("cli", "scene", "camera", "segmentation", "geometry", "arm", "orchestrator")


def _count_none(args: tuple, result: Any) -> dict:
    return {}


def _count_orientation(args: tuple, result: Any) -> dict:
    return {"geometry.orientation_pixels": args[0].area}


def _count_components(args: tuple, result: Any) -> dict:
    return {"geometry.components": len(result)}


def _count_targets(args: tuple, result: Any) -> dict:
    return {"orchestrator.targets": len(result[0])}


def _count_render(args: tuple, result: Any) -> dict:
    return {"camera.patches": len(result.patches), "camera.empty_frames": int(not result.patches)}


def _count_ndjson(args: tuple, result: Any) -> dict:
    return {"orchestrator.messages_to_ndjson.bytes": len(result.encode())}


#: (module, attribute, span name, counter) for every rebound layer entry point
MODULE_HOOKS: tuple[tuple[Any, str, str, Callable[[tuple, Any], dict]], ...] = (
    (cli, "parse_scenario", "cli.parse_scenario", _count_none),
    (orchestrator, "validate_scene", "scene.validate_scene", _count_none),
    (orchestrator, "render_full", "camera.render_full", _count_render),
    (orchestrator, "compose_patches", "camera.compose_patches", _count_none),
    (orchestrator, "apply_noise", "camera.apply_noise", _count_none),
    (orchestrator, "segment", "segmentation.segment", _count_none),
    (orchestrator, "connected_components", "geometry.connected_components", _count_components),
    (orchestrator, "component_center_3d", "geometry.component_center_3d", _count_none),
    (orchestrator, "principal_orientation", "geometry.principal_orientation", _count_orientation),
    (orchestrator, "compute_targets", "orchestrator.compute_targets", _count_targets),
    (orchestrator, "messages_to_ndjson", "orchestrator.messages_to_ndjson", _count_ndjson),
    (orchestrator, "report_to_json", "orchestrator.report_to_json", _count_none),
)

#: every layer call that gets a span, each reported with ``.calls`` and ``.s``
TRACED_CALLS = tuple(name for _, _, name, _ in MODULE_HOOKS) + ("arm.execute_pick",)


class Tracer:
    """Collects spans as ``[id, name, start, end, parent_id, frame_index]``.

    Spans are appended when they end. ``frame_index`` is set on a
    ``orchestrator.step`` span whose step captured a frame and is inherited
    by every span below it; other spans carry ``None``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple[Any, str, Any]] = []
        self._step: list | None = None

    # -- recording --

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [self._next_id, name, time.perf_counter(), 0.0, parent, None]
        self._next_id += 1
        self._stack.append(span)
        return span

    def _exit(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        span = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(span)

    def wrap(self, name: str, fn: Callable, counter: Callable[[tuple, Any], dict] = _count_none):
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            self.counts[f"{name}.calls"] += 1
            self.counts.update(counter(args, result))
            return result

        return traced

    # -- rebinding --

    def install(self) -> None:
        """Rebind every module-level layer entry point to a traced wrapper."""
        for module, attr, name, counter in MODULE_HOOKS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def attach(self, sim: orchestrator.Simulation) -> None:
        """Trace one simulation's steps, picks and frame captures."""
        step = sim.step
        publish = sim.bus.publish

        def traced_step():
            before = sim.state
            span = self._step = self._enter("orchestrator.step")
            try:
                return step()
            finally:
                self._exit(span)
                self._step = None
                self.counts["orchestrator.step.calls"] += 1
                self.counts[f"orchestrator.step.{before.value.lower()}.calls"] += 1

        def counted_publish(topic, t, payload):
            self.counts["orchestrator.bus.messages"] += 1
            if topic is Topic.CAMERA_FRAMES and self._step is not None:
                self._step[5] = payload.frame_index
            return publish(topic, t, payload)

        sim.step = traced_step
        sim.arm.execute_pick = self.wrap("arm.execute_pick", sim.arm.execute_pick)
        sim.bus.publish = counted_publish

    # -- analysis --

    def finish(self) -> None:
        """Give every span the frame index of the step span above it."""
        by_id = {s[0]: s for s in self.spans}
        for s in self.spans:
            if s[5] is None and s[4] is not None:
                parent = by_id[s[4]]
                while parent[5] is None and parent[4] is not None:
                    parent = by_id[parent[4]]
                s[5] = parent[5]

    def busy(self) -> dict[str, float]:
        """Inclusive time per span name."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s[1]] += s[3] - s[2]
        return dict(out)

    def self_time_by_layer(self) -> dict[str, float]:
        """Span time minus the time of its child spans, summed by layer."""
        child: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[4] is not None:
                child[s[4]] += s[3] - s[2]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s[1].split(".", 1)[0]] += (s[3] - s[2]) - child[s[0]]
        return dict(out)

    def write(self, f: TextIO, rep: int) -> None:
        """Write the spans of pass ``rep``, one JSON object per line."""
        for sid, name, start, end, parent, frame in self.spans:
            record = {
                "rep": rep,
                "id": sid,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "frame_index": frame,
            }
            f.write(json.dumps(record) + "\n")
