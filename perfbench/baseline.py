"""Run the benchmark over several seeds and summarise each end-to-end metric.

From the repository root:

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 10 --compare perfbench/baseline.json

For every workload and metric it reports the median of the per-seed values,
their quartiles and the spread (third minus first quartile, as a share of
the median) against the metric's bound in BENCHMARK.json. ``--out`` writes
the summary with the machine record; ``--compare`` checks each median
against a summary written earlier, as a regression check would.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: the benchmark failed")
    return result["metrics"]


def summarise(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med,
        "bound": bound,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary: dict = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    for workload in args.workloads:
        runs = [one_run(workload, seed, 0) for seed in seeds]
        summary["workloads"][workload] = {
            name: summarise([r[name]["value"] for r in runs], bound)
            for name, bound in bounds.items()
        }
    summary["machine"] = run.machine_record()
    summary["seeds"] = list(seeds)

    reference = json.loads(args.compare.read_text())["workloads"] if args.compare else {}
    worse = 0
    for workload, metrics in summary["workloads"].items():
        for name, s in metrics.items():
            line = (
                f"{workload:<13} {name:<13} median {s['median']:<12.6g} "
                f"spread {s['spread']:.4f} (bound {s['bound']})"
            )
            if name != "setup_s" and s["spread"] > s["bound"]:
                line += "  SPREAD OVER BOUND"
            ref = reference.get(workload, {}).get(name)
            if ref:
                change = s["median"] / ref["median"] - 1.0
                line += f"  vs reference {change:+.4f}"
                if change > s["bound"]:
                    line += "  WORSE"
                    worse += 1
            print(line)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
