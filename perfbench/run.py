"""clearbot benchmark: three course workloads, end-to-end and per-layer host times.

Run from the repository root:

    python3 perfbench/run.py --workload course --seed 0 --seconds 20 --trace 0

Each pass drives one generated scenario document through the public API:
``cli.parse_scenario`` -> ``orchestrator.Simulation`` -> ``Simulation.run``
-> ``report_to_json`` / ``messages_to_ndjson`` written to disk. Passes repeat
until ``--seconds`` of measuring are used. ``--trace 0`` reports the
end-to-end metrics of the untraced passes; ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics of the traced ones (see
``tracing.py``), plus the tracing overhead.

Every number is host time; simulated time and outputs must not move. The
end-to-end timings are scaled by how fast the host ran a fixed reference
job between the steps of the same pass (see ``reference_job``), so that
they read as seconds on the reference machine; the unscaled host times are
printed beside them. Per-layer times are unscaled. Each
pass is checked against the frozen outcome table, against the digests in
``recorded.json`` when the document is the one they were recorded for, and
against the other passes of the same invocation. The adaptive-order course
is run once per invocation (untimed, also the warm-up) against its own
table and digest. A pass that raises, does not terminate or mismatches
counts as failed; any failure makes the exit code 1.

The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: set-ups and writes per untraced pass; both are short, so one sample is noise
REPEATS = 5

#: the unit the reported timings are scaled to: about the median time of
#: ``reference_job`` on the 2-core Xeon VM the baseline was recorded on
REF_SECONDS = 4.0e-4
#: steps on each side of a frame whose reference times scale that frame
REF_WINDOW = 10
#: reference jobs timed before and after each set-up and write, to scale it
REF_BURST = 21
_REF_ARRAY = np.random.default_rng(0).random((256, 256))


@dataclass
class Pass:
    """Timings and outputs of one set-up -> run -> write pass."""

    setup_s: list[float] = field(default_factory=list)
    setup_ref: list[float] = field(default_factory=list)  # reference time around each
    run_s: float = 0.0
    write_s: list[float] = field(default_factory=list)
    write_ref: list[float] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)  # reference time after each step
    frame_steps: list[int] = field(default_factory=list)  # steps that drove one frame
    log_digest: str = ""
    report_sha256: str = ""
    picks: tuple[int, int] = (0, 0)  # (succeeded, attempted)
    wall: float = 0.0
    problems: list[str] = field(default_factory=list)
    tracer: object = None


def machine_record() -> dict:
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def reference_job() -> float:
    """Time a fixed job that runs no clearbot code: a Python loop and numpy scans.

    Run after every untraced step, it tracks how fast the host is at that
    moment; on a shared host that speed drifts by tens of percent within
    seconds, which would otherwise swamp every timing.
    """
    t0 = time.perf_counter()
    total = 0.0
    for i in range(1000):
        total += i * 0.5
    int((_REF_ARRAY > 0.5).sum())
    np.nonzero(_REF_ARRAY > 0.9)
    return time.perf_counter() - t0


def reference_burst() -> float:
    return statistics.median(reference_job() for _ in range(REF_BURST))


def host_times(p: Pass) -> dict[str, list[float]]:
    return {
        "setup_s": p.setup_s,
        "run_s": [p.run_s],
        "write_s": p.write_s,
        "frame_s": [p.step_s[i] for i in p.frame_steps],
    }


def speed_adjusted(p: Pass) -> dict[str, list[float]]:
    """Host times of an untraced pass scaled to the reference machine.

    Each set-up and write is scaled by the reference bursts around it, and
    each step by the median reference time of the steps around it. The
    rest of the run (the report and its log digest) is scaled by the median
    over all steps.
    """
    steps = [
        t * REF_SECONDS / statistics.median(p.ref_s[max(0, i - REF_WINDOW) : i + REF_WINDOW + 1])
        for i, t in enumerate(p.step_s)
    ]
    rest = (p.run_s - sum(p.step_s)) * REF_SECONDS / statistics.median(p.ref_s)
    return {
        "setup_s": [t * REF_SECONDS / r for t, r in zip(p.setup_s, p.setup_ref)],
        "run_s": [sum(steps) + rest],
        "write_s": [t * REF_SECONDS / r for t, r in zip(p.write_s, p.write_ref)],
        "frame_s": [steps[i] for i in p.frame_steps],
    }


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(name: str, doc: dict, tracer=None) -> Pass:
    """One measured pass. With a tracer, every layer call is a span."""
    from clearbot import cli, orchestrator
    from clearbot.orchestrator import PipelineState

    out = Pass(tracer=tracer)
    span = tracer.span if tracer else (lambda _name, fn, *a: fn(*a))
    repeats = 1 if tracer else REPEATS

    def repeat(fn, times: list[float], refs: list[float]):
        """Time ``fn`` ``repeats`` times; untraced, between reference bursts."""
        before = None if tracer else reference_burst()
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - t0)
            if not tracer:
                after = reference_burst()
                refs.append((before + after) / 2)
                before = after
        return result

    def setup():
        cfg = cli.parse_scenario(doc)
        return span("orchestrator.Simulation", orchestrator.Simulation, cfg)

    sim = repeat(setup, out.setup_s, out.setup_ref)

    if tracer:
        tracer.attach(sim)
    else:
        step = sim.step

        def timed_step():
            driving = sim.state is PipelineState.DRIVING
            t0 = time.perf_counter()
            state = step()
            out.step_s.append(time.perf_counter() - t0)
            if driving and state is not PipelineState.DONE:
                out.frame_steps.append(len(out.ref_s))
            out.ref_s.append(reference_job())
            return state

        sim.step = timed_step

    t0 = time.perf_counter()
    report = span("orchestrator.run", sim.run)
    out.run_s = time.perf_counter() - t0 - sum(out.ref_s)

    out_dir = OUT / name
    out_dir.mkdir(parents=True, exist_ok=True)

    def write() -> tuple[str, str]:
        report_text = orchestrator.report_to_json(report)
        (out_dir / "report.json").write_text(report_text)
        log_text = orchestrator.messages_to_ndjson(sim.bus)
        (out_dir / "messages.ndjson").write_text(log_text)
        return report_text, log_text

    report_text, log_text = repeat(lambda: span("bench.write", write), out.write_s, out.write_ref)

    out.log_digest = report.log_digest
    out.picks = (report.succeeded, report.attempted)
    out.report_sha256 = sha256(report_text)
    if sha256(log_text) != report.log_digest:
        out.problems.append("messages.ndjson does not hash to the report's log_digest")
    out.problems += outcome_problems(name, doc, report)
    return out


def outcome_problems(name: str, doc: dict, report) -> list[str]:
    """Differences from the frozen outcome table of the workload."""
    from clearbot.orchestrator import check_benchmark_report

    import workloads

    if name == "course":
        return check_benchmark_report(report)
    if name == "adaptive_course":
        return check_benchmark_report(report, adaptive_order=True)
    # generated courses keep the outcomes; noise and pose jitter may move
    # the attribution of a failure, so only outcomes are frozen there
    expected = workloads.expected_outcomes(name, doc)
    got = {r.object_id: r.outcome for r in report.records}
    problems = []
    if report.attempted != len(expected):
        problems.append(f"attempted {report.attempted}, expected {len(expected)}")
    for oid, (outcome, _) in expected.items():
        if got.get(oid) != outcome:
            problems.append(f"{oid}: outcome {got.get(oid)}, expected {outcome}")
    return problems


def checked_pass(name: str, doc: dict, recorded: Optional[dict], tracer=None) -> Pass:
    """A pass whose failures are recorded in ``problems`` instead of raised."""
    try:
        p = run_pass(name, doc, tracer)
    except Exception:  # a failed pass is counted, and the benchmark goes on
        traceback.print_exc()
        return Pass(problems=[f"{name}: pass raised"], tracer=tracer)
    if recorded is not None:
        for key in ("log_digest", "report_sha256"):
            if getattr(p, key) != recorded[key]:
                p.problems.append(
                    f"{name}: {key} {getattr(p, key)}, recorded {recorded[key]}"
                )
    return p


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile, interpolated between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(times: list[dict[str, list[float]]], peak_rss_mb: float) -> dict:
    """Each end-to-end metric as (value, number of samples) over the passes."""
    samples = {key: [t for p in times for t in p[key]] for key in times[0]}
    frames_ms = [t * 1000.0 for t in samples["frame_s"]]
    return {
        "setup_s": (statistics.median(samples["setup_s"]), len(samples["setup_s"])),
        "run_s": (statistics.median(samples["run_s"]), len(samples["run_s"])),
        "write_s": (statistics.median(samples["write_s"]), len(samples["write_s"])),
        "frame_ms_p50": (statistics.median(frames_ms), len(frames_ms)),
        "frame_ms_p95": (quantile(frames_ms, 95), len(frames_ms)),
        "peak_rss_mb": (peak_rss_mb, 1),
    }


def per_layer_metrics(traced: Pass) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    import tracing

    t = traced.tracer
    t.finish()
    busy = t.busy()
    counts = t.counts
    frames = counts["camera.render_full.calls"]
    m: dict[str, float] = {}
    for name in tracing.TRACED_CALLS:
        m[f"{name}.calls"] = counts[f"{name}.calls"]
        m[f"{name}.s"] = busy.get(name, 0.0)
    for key in (
        "geometry.orientation_pixels",
        "geometry.components",
        "orchestrator.targets",
        "orchestrator.messages_to_ndjson.bytes",
        "orchestrator.bus.messages",
        "orchestrator.step.calls",
    ):
        m[key] = counts[key]
    for state in ("driving", "stopping", "picking", "resuming"):
        m[f"orchestrator.step.{state}.calls"] = counts[f"orchestrator.step.{state}.calls"]
    m["camera.patches"] = counts["camera.patches"] / frames
    m["camera.compose_per_frame"] = counts["camera.compose_patches.calls"] / frames
    m["camera.empty_frame_share"] = counts["camera.empty_frames"] / frames
    m["arm.success_ratio"] = traced.picks[0] / traced.picks[1]
    self_time = t.self_time_by_layer()
    for layer in tracing.LAYERS:
        m[f"layer.{layer}.self_s"] = self_time.get(layer, 0.0)
    m["trace.spans"] = len(t.spans)
    return m


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--recorded",
        type=Path,
        default=HERE / "recorded.json",
        help="recorded digests to check against",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import clearbot
    except ImportError as exc:
        print(f"error: cannot import clearbot from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(clearbot.__file__).resolve().parent.parent != SRC:
        print(f"error: clearbot imported from {clearbot.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from clearbot import cli
    from clearbot.orchestrator import (
        InvalidConfig,
        build_benchmark_config,
        scenario_to_dict,
        validate_config,
    )

    import tracing
    import workloads

    if args.workload not in workloads.GENERATORS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    recorded_doc = json.loads(args.recorded.read_text())
    default_seed = recorded_doc["default_seed"]
    digests = recorded_doc["digests"]

    generate = workloads.GENERATORS[args.workload]
    doc = generate(args.seed)
    try:
        errors = validate_config(cli.parse_scenario(doc))
    except InvalidConfig as exc:
        errors = exc.errors
    if errors:
        print(f"error: generated scenario is invalid: {errors}", file=sys.stderr)
        return 1
    # the recorded digests hold for the document they were recorded from
    recorded = digests[args.workload] if doc == generate(default_seed) else None

    adaptive = checked_pass(
        "adaptive_course",
        scenario_to_dict(build_benchmark_config(adaptive_order=True)),
        digests["adaptive_course"],
    )
    gc.collect()

    passes: list[Pass] = []
    untraced: list[Pass] = []
    traced: list[Pass] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        trace_this = args.trace == 1 and len(traced) < len(untraced)
        tracer = None
        if trace_this:
            tracer = tracing.Tracer()
            tracer.install()
        t0 = time.perf_counter()
        try:
            p = checked_pass(args.workload, doc, recorded, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        p.wall = time.perf_counter() - t0
        (traced if trace_this else untraced).append(p)
        passes.append(p)
        gc.collect()
        need_traced = args.trace == 1 and not traced
        if not need_traced and time.perf_counter() + p.wall > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outputs = {(p.log_digest, p.report_sha256) for p in passes if not p.problems}
    if len(outputs) > 1:
        for p in passes:
            p.problems.append("passes of one invocation disagree on their outputs")
    attempted = len(passes) + 1
    failed = sum(1 for p in passes + [adaptive] if p.problems)
    for p in [adaptive] + passes:
        for problem in p.problems:
            print(f"FAILED: {problem}", file=sys.stderr)

    print("machine: " + " ".join(f"{k}={v}" for k, v in machine_record().items()))
    print(
        f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
        f"{len(traced)} traced passes, log_digest {passes[-1].log_digest}, "
        f"report.json sha256 {passes[-1].report_sha256}"
    )
    print(f"failed_share {failed}/{attempted} = {failed / attempted:.3f}")

    # a pass that mismatched was still measured; one that raised was not
    untraced = [p for p in untraced if p.log_digest]
    traced = [p for p in traced if p.log_digest]
    if not untraced or (args.trace == 1 and not traced):
        result = {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
        print(json.dumps(result))
        return 1

    raw = end_to_end([host_times(p) for p in untraced], peak_rss_mb)
    e2e = end_to_end([speed_adjusted(p) for p in untraced], peak_rss_mb)
    host_speed = REF_SECONDS / statistics.median(t for p in untraced for t in p.ref_s)
    print(f"end-to-end metrics, untraced; host speed {host_speed:.3f} of the reference machine:")
    print(f"  {'':<14} {'adjusted':>12} {'host time':>12}")
    for name, (value, n) in e2e.items():
        print(
            f"  {name:<14} {value:12.6g} {raw[name][0]:12.6g} {units[name]:<6} "
            f"(median of {n} samples)"
        )

    if args.trace == 0:
        metrics = {name: value for name, (value, _) in e2e.items()}
    else:
        per_pass = [per_layer_metrics(p) for p in traced]
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(p.run_s for p in traced) - raw["run_s"][0]
        )
        print(f"per-layer metrics, median of {len(traced)} traced passes:")
        for name, value in metrics.items():
            print(f"  {name:<44} {value:14.6g} {units[name]}")
        spans_path = OUT / args.workload / "spans.ndjson"
        with spans_path.open("w") as f:
            for i, p in enumerate(traced):
                p.tracer.write(f, rep=i)
        print(f"spans written to {spans_path.relative_to(ROOT)}")

    reported = "end_to_end" if args.trace == 0 else "per_layer"
    if set(metrics) != {m["name"] for m in spec[reported]}:
        print(f"error: metrics differ from the {reported} list of BENCHMARK.json", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
