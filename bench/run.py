"""Benchmark of the ``touchard`` package: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it measures the
end-to-end metrics: import-and-parser set-up time, then alternating
``python`` and ``python -O`` repetitions of the workload, each in a fresh
interpreter and one at a time, until the next pair would overrun
``--seconds`` (at least one pair).  With ``--trace 1`` it runs the
workload once untraced and once with spans around every layer function,
and reports the per-layer metrics.  Every output is checked; the last
line of standard output is one JSON object, and the exit code is 0 only
if every operation passed its check.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_SCRIPT = BENCH / "workloads.py"

SETUP_IMPORTS = 15
# Every run must end within 180 s; stop starting children past this.
RUN_LIMIT_S = 170

# Import the CLI and build its parser in an interpreter that has loaded
# nothing else, so work moved to import time shows up; then sample the
# host's speed (bench/speed.py) to convert to reference seconds.
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import touchard.cli
touchard.cli.build_parser()
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
from speed import SpeedProbe
probe = SpeedProbe()
for _ in range(20):
    probe.sample()
print(elapsed, probe.factor())
"""

END_TO_END_UNITS = {
    "wall_s": "s",
    "wall_O_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    """A child process failed to produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_child(args, optimize: bool, trace: bool, deadline: float) -> dict:
    cmd = [sys.executable] + (["-O"] if optimize else []) + [
        str(WORKLOAD_SCRIPT), "--workload", args.workload, "--seed", str(args.seed),
    ]
    if trace:
        cmd.append("--trace")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a repetition")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition did not finish within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def measure_setup(deadline: float) -> list[tuple[float, float]]:
    """(seconds, speed factor) of fresh interpreters importing the CLI.

    The first import, which may compile bytecode, is dropped.
    """
    imports = []
    for _ in range(SETUP_IMPORTS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH)], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up import exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        elapsed, factor = map(float, proc.stdout.split())
        imports.append((elapsed, factor))
    return imports[1:]


def timed_run(args, deadline: float) -> tuple[dict, list[dict]]:
    setup = measure_setup(deadline)
    runs: dict[bool, list[dict]] = {False: [], True: []}
    # Pairs are budgeted by their timed work in reference seconds, so that
    # how many fit does not depend on the host's speed at the time.  Raw
    # time, start-up and checks included, is capped at twice the budget.
    timed = 0.0
    began = time.monotonic()
    while True:
        pair_began = time.monotonic()
        for optimize in (False, True):
            run = run_child(args, optimize, False, deadline)
            timed += run["wall_s"]
            runs[optimize].append(run)
        pairs = len(runs[False])
        next_end = 2 * time.monotonic() - pair_began
        if timed / pairs * (pairs + 1) > args.seconds or next_end - began > 2 * args.seconds or next_end > deadline:
            break
    plain, optimized = runs[False], runs[True]
    ops = sum(run["ops"] for run in plain)
    print(f"runs: {len(plain)} python, {len(optimized)} python -O, {timed:.2f} reference seconds timed;"
          f" {ops} timed operations in the python runs; setup from {len(setup)} fresh interpreters")
    print("raw seconds (python, python -O): "
          + ", ".join(f"{a['raw_wall_s']:.3f}/{b['raw_wall_s']:.3f}" for a, b in zip(plain, optimized))
          + "; mean speed factors: " + ", ".join(f"{run['factor']:.3f}" for run in plain + optimized))
    print(f"raw setup seconds: median {statistics.median(t for t, _ in setup):.4f}")
    metrics = {
        "wall_s": statistics.median(run["wall_s"] for run in plain),
        "wall_O_s": statistics.median(run["wall_s"] for run in optimized),
        "op_p50_ms": statistics.median(run["p50_ms"] for run in plain),
        "op_p99_ms": statistics.median(run["p99_ms"] for run in plain),
        "peak_rss_mb": statistics.median(run["peak_rss_kb"] for run in plain) / 1024,
        "setup_s": statistics.median(t * factor for t, factor in setup),
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}, plain + optimized


def traced_run(args, deadline: float) -> tuple[dict, list[dict]]:
    plain = run_child(args, False, False, deadline)
    traced = run_child(args, False, True, deadline)
    metrics = {name: tuple(metric) for name, metric in traced["layer_metrics"].items()}
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    print(f"raw seconds: untraced {plain['raw_wall_s']:.3f} (mean speed factor {plain['factor']:.3f}),"
          f" traced {traced['raw_wall_s']:.3f} (mean speed factor {traced['factor']:.3f});"
          " spans by parent, in reference seconds:")
    for parent, layer, calls, busy_s in sorted(traced["edges"]):
        print(f"  {parent} -> {layer}: {calls} calls, {busy_s:.4f} s self")
    return metrics, [plain, traced]


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark one touchard workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=23)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "touchard" / "cli.py").is_file():
        print(f"bench: no package source at {SRC / 'touchard'}; run from a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        metrics, runs = (traced_run if args.trace else timed_run)(args, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    env = dict(runs[0]["env"])
    env["optimize"] = sorted({run["env"]["optimize"] for run in runs})
    env["nproc"] = os.cpu_count()
    env["affinity"] = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    print("env " + json.dumps(env, sort_keys=True))
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    for run in runs:
        for problem in run["problems"]:
            print(f"bench: check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"error_rate {failed / attempted if attempted else 1.0} ratio ({failed} of {attempted} operations failed)")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 and attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
