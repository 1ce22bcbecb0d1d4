"""Seeded scenario documents for the benchmark's workloads.

Every workload starts from the built-in ten-object course and is returned
as a scenario document, the same JSON form ``clearbot simulate`` reads, so
the program sees only its input and never the seed that made it.
"""

from __future__ import annotations

import copy
import random

from clearbot.orchestrator import (
    EXPECTED_BENCHMARK_OUTCOMES,
    build_benchmark_config,
    scenario_to_dict,
)

#: course tiles in ``long_course``; object count drives the linear-time work
LONG_COURSE_TILES = 4
#: uniform pose jitter of each tiled object: x along the lane, y across it (m),
#: yaw (rad). Kept small: the pipe parked at the reach boundary is grasped
#: with a center error of ~0.011-0.012 m against a 0.015 m tolerance.
JITTER = (0.01, 0.002, 0.01)

NOISY_DEPTH = {"sigma": 0.002, "bias": 0.0, "dropout_prob": 0.02}
NOISY_MASK_OPS = [
    {"op": "erode", "radius": 1},
    {"op": "holes", "fraction": 0.1, "seed": 0},
]


def course(seed: int) -> dict:
    """The paper's table: fixed, so the seed is unused."""
    del seed
    return scenario_to_dict(build_benchmark_config())


def tile_id(base_id: str, tile: int) -> str:
    return f"t{tile}{base_id}"


def long_course(seed: int, tiles: int = LONG_COURSE_TILES) -> dict:
    """The course repeated ``tiles`` times along one lane.

    Each tile keeps its own cut-band and depth-bias fault, so every tile
    should reproduce the course's outcome table.
    """
    doc = course(seed)
    rng = random.Random(seed)
    length = doc["ugv"]["end"][0] - doc["ugv"]["start"][0]
    jx, jy, jyaw = JITTER
    objects = []
    for t in range(tiles):
        for obj in doc["objects"]:
            tiled = copy.deepcopy(obj)
            tiled["id"] = tile_id(obj["id"], t)
            pose = tiled["pose"]
            pose["x"] += t * length + rng.uniform(-jx, jx)
            pose["y"] += rng.uniform(-jy, jy)
            pose["yaw"] += rng.uniform(-jyaw, jyaw)
            objects.append(tiled)
    doc["name"] = f"long-course-{tiles}x"
    doc["objects"] = objects
    doc["ugv"]["end"] = [doc["ugv"]["start"][0] + tiles * length, doc["ugv"]["end"][1]]
    doc["corruptions"] = [
        {**op, "target_id": tile_id(op["target_id"], t)}
        for t in range(tiles)
        for op in doc["corruptions"]
    ]
    doc["injections"]["depth_bias"] = [
        {**inj, "id": tile_id(inj["id"], t)}
        for t in range(tiles)
        for inj in doc["injections"]["depth_bias"]
    ]
    return doc


def noisy_course(seed: int) -> dict:
    """The course with noisy, dropped-out depth and eroded, holed masks.

    The noise and holes draw from the scenario seed, so every frame takes
    the dense-depth path and each seed gives a different noise pattern.
    """
    doc = course(seed)
    doc["name"] = "noisy-course"
    doc["seed"] = seed
    doc["camera"]["noise"] = dict(NOISY_DEPTH)
    doc["corruptions"] = [dict(op) for op in NOISY_MASK_OPS] + doc["corruptions"]
    return doc


GENERATORS = {"course": course, "long_course": long_course, "noisy_course": noisy_course}


def expected_outcomes(workload: str, doc: dict) -> dict[str, tuple[str, tuple[str, ...]]]:
    """The frozen outcome table a run of ``doc`` must reproduce, by object id."""
    if workload != "long_course":
        return dict(EXPECTED_BENCHMARK_OUTCOMES)
    tiles = len(doc["objects"]) // len(EXPECTED_BENCHMARK_OUTCOMES)
    return {
        tile_id(oid, t): want
        for t in range(tiles)
        for oid, want in EXPECTED_BENCHMARK_OUTCOMES.items()
    }
