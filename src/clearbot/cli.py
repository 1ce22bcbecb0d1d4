"""Command-line front end.

Three subcommands:

* ``simulate`` runs a scenario file and writes the attempt report plus the
  full message log (optionally every rendered frame).
* ``calibrate`` fits the camera-to-arm transform from point pairs.
* ``benchmark`` runs the built-in ten-object course and checks the result
  against its frozen outcome table.

Exit codes: 0 all picks succeeded (or calibration printed), 1 the run
finished but some picks failed, 2 the input was rejected (every problem is
reported with its field path) or an output could not be written, 3 internal
error or a benchmark that failed its built-in validation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback
from pathlib import Path
from typing import Optional

from .camera import encode_depth_pgm, encode_label_ppm
from .geometry import (
    DegenerateConfiguration,
    Frame,
    Point3,
    estimate_rigid_transform,
    registration_rms,
)
from .orchestrator import (
    FrameData,
    MessageEnvelope,
    RunReport,
    Simulation,
    Topic,
    build_benchmark_config,
    check_benchmark_report,
    messages_to_ndjson,
    report_to_json,
)
from .schema import InvalidConfig, JsonObject, ScenarioConfig, parse_scenario

EXIT_OK = 0
EXIT_PICK_FAILURES = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3

Errors = list[tuple[str, str]]

#: largest calibration coordinate, in metres: far above any rig, and far
#: below the ~1e154 where the fit's squared residuals overflow
MAX_PAIR_COORD = 1e6


# --- output writers ---------------------------------------------------------


def _run_and_write(
    cfg: ScenarioConfig, out: str, dump_frames: bool = False
) -> Optional[RunReport]:
    """Run ``cfg``, write its files under ``out`` and print its records;
    ``None`` once the reason a file cannot be written is printed.

    The run is built first, so a rejected scenario leaves no directory, and
    the directory (with its ``frames/``) is made before the run, so a bad
    path costs no run.
    """
    sim = Simulation(cfg)
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if dump_frames:
            (out_dir / "frames").mkdir(exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return None
    # the bus keeps no payloads: the frames to dump are kept as they come
    frames: list[FrameData] = []
    if dump_frames:

        def keep_frame(env: MessageEnvelope) -> None:
            if env.topic is Topic.CAMERA_FRAMES:
                frames.append(env.payload)

        sim.bus.subscribe(keep_frame)
    report = sim.run()
    try:
        (out_dir / "report.json").write_text(report_to_json(report))
        (out_dir / "messages.ndjson").write_text(messages_to_ndjson(sim.bus))
        if dump_frames:
            frames_dir = out_dir / "frames"
            for fd in frames:
                images = fd.images(sim.cfg)
                stem = f"frame_{fd.frame_index:05d}"
                (frames_dir / f"{stem}_labels.ppm").write_bytes(encode_label_ppm(images.labels))
                (frames_dir / f"{stem}_depth.pgm").write_bytes(encode_depth_pgm(images.depth))
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return None
    for r in report.records:
        line = f"{r.object_id:<4} {r.cls:<6} {r.outcome:<17} {r.elapsed_s:6.3f} s"
        if r.attribution:
            line += "  [" + ", ".join(r.attribution) + "]"
        print(line)
    print(f"picked {report.succeeded}/{report.attempted}")
    return report


def _report_errors(exc: InvalidConfig) -> int:
    for path, msg in exc.errors:
        print(f"error: {path or '<root>'}: {msg}", file=sys.stderr)
    return EXIT_BAD_INPUT


# --- subcommands --------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> int:
    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
        doc = json.loads(text, object_pairs_hook=JsonObject)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (json.JSONDecodeError, RecursionError) as exc:
        print(f"error: scenario is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        cfg = parse_scenario(doc)
    except InvalidConfig as exc:
        return _report_errors(exc)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.adaptive_order:
        cfg = dataclasses.replace(
            cfg, arm=dataclasses.replace(cfg.arm, adaptive_order=True)
        )
    report = _run_and_write(cfg, args.out, args.dump_frames)
    if report is None:
        return EXIT_BAD_INPUT
    failures = report.attempted - report.succeeded
    return EXIT_PICK_FAILURES if failures else EXIT_OK


def _parse_pairs_text(text: str) -> tuple[list[tuple[Point3, Point3]], Errors]:
    """Correspondence rows: six numbers per line (camera xyz, then arm xyz).

    Blank lines are skipped and ``#`` starts a comment.
    """
    pairs: list[tuple[Point3, Point3]] = []
    errors: Errors = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            errors.append((f"line {lineno}", "every field must be a number"))
            continue
        if len(vals) != 6:
            errors.append((f"line {lineno}", f"expected 6 numbers, got {len(vals)}"))
            continue
        if not all(abs(v) <= MAX_PAIR_COORD for v in vals):  # NaN fails too
            msg = f"every field must be finite and at most {MAX_PAIR_COORD:g} m in size"
            errors.append((f"line {lineno}", msg))
            continue
        pairs.append(
            (
                Point3(vals[0], vals[1], vals[2], Frame.CAMERA),
                Point3(vals[3], vals[4], vals[5], Frame.ARM),
            )
        )
    return pairs, errors


def _cmd_calibrate(args: argparse.Namespace) -> int:
    try:
        text = Path(args.pairs).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read pairs: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    pairs, errors = _parse_pairs_text(text)
    if errors:
        return _report_errors(InvalidConfig(errors))
    if len(pairs) < 3:
        print(
            f"error: need at least 3 correspondence rows, got {len(pairs)}",
            file=sys.stderr,
        )
        return EXIT_BAD_INPUT
    try:
        t = estimate_rigid_transform(pairs)
    except DegenerateConfiguration as exc:
        print(f"error: degenerate configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    rms = registration_rms(t, pairs)
    print(
        json.dumps(
            {
                "r": [float(v) for v in t.rotation.flatten()],
                "t": [float(v) for v in t.translation],
                "rms_residual": rms,
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


def _cmd_benchmark(args: argparse.Namespace) -> int:
    cfg = build_benchmark_config(adaptive_order=args.adaptive_order)
    report = _run_and_write(cfg, args.out)
    if report is None:
        return EXIT_BAD_INPUT
    problems = check_benchmark_report(report, adaptive_order=args.adaptive_order)
    if problems:
        for p in problems:
            print(f"benchmark validation failed: {p}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clearbot",
        description="Deterministic pick-pipeline simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario file")
    sim.add_argument("--scenario", required=True, help="scenario JSON file")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seed", type=int, default=None, help="override scenario seed")
    sim.add_argument(
        "--dump-frames", action="store_true", help="write every frame as PPM/PGM"
    )
    sim.add_argument(
        "--adaptive-order",
        action="store_true",
        help="reorder arm phases to avoid boundary collisions",
    )
    sim.set_defaults(func=_cmd_simulate)

    cal = sub.add_parser("calibrate", help="fit the camera-to-arm transform")
    cal.add_argument(
        "--pairs",
        required=True,
        help="text file of rows: camera x y z, arm x y z ('#' comments)",
    )
    cal.set_defaults(func=_cmd_calibrate)

    bench = sub.add_parser("benchmark", help="run the built-in course")
    bench.add_argument(
        "--paper-table1",
        action="store_true",
        required=True,
        help="run the ten-object benchmark course",
    )
    bench.add_argument("--out", required=True, help="output directory")
    bench.add_argument(
        "--adaptive-order",
        action="store_true",
        help="reorder arm phases to avoid boundary collisions",
    )
    bench.set_defaults(func=_cmd_benchmark)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidConfig as exc:
        return _report_errors(exc)
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
