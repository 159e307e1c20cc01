"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Copies the checkout into a temporary directory with every workload
shrunk to about a second (the ``SIZE`` line of ``workloads.py``
rewritten), runs every workload of BENCHMARK.json there, untraced and
traced, and checks that each run exits 0 with no failed operation and
prints exactly the metrics BENCHMARK.json names, with their units.  Then
it plants wrong outputs in a temporary copy of the checkout (a
``validate_g`` that no longer checks its word, so ``map g2c`` under
``python -O``, where word constructors skip their re-check, accepts
broken lines; an off-by-one Motzkin number in the benchmark's oracle) and
checks that each drives error_rate above 0 and makes the command exit
non-zero, and that a directory without the package source gives no
result.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
ERROR_RATE = re.compile(r"^error_rate (\S+) ratio", re.MULTILINE)
SIZE_LINE = re.compile(r"^SIZE = .*$", re.MULTILINE)
TINY = 'SIZE = {"verify": (8, 3, 4), "stream_length": 6, "sweep_n": 30, "semilength": 21, "samples": 10}'

# Planted faults: (file in the copy, text to replace, replacement, workloads that must notice).
FAULTS = (
    (
        "src/touchard/words.py",
        "    letters = tuple(letters)\n    _check_g(letters)\n    return GWord(letters)\n",
        "    letters = tuple(letters)\n    return GWord(letters)\n",
        ("cli-stream",),
    ),
    (
        f"{BENCH.name}/oracles.py",
        "    return table[: upto + 1]\n",
        "    table[5] += 1\n    return table[: upto + 1]\n",
        ("identity-sweep", "verify-defaults"),
    ),
)


def run(root: Path, workload: str, trace: int):
    cmd = [sys.executable, str(root / BENCH.name / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout


def copy_checkout(into: Path, with_source: bool = True) -> None:
    """Copy the benchmark, BENCHMARK.json and the package source, at the tiny size."""
    shutil.copytree(BENCH, into / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", into)
    if with_source:
        shutil.copytree(ROOT / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    script = into / BENCH.name / "workloads.py"
    text, count = SIZE_LINE.subn(TINY, script.read_text())
    if count != 1:
        raise SystemExit("smoke: cannot shrink the workloads, no single SIZE line in workloads.py")
    script.write_text(text)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []

    with tempfile.TemporaryDirectory() as tiny:
        copy_checkout(Path(tiny))
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                label = f"{workload} --trace {trace}"
                code, result, out = run(Path(tiny), workload, trace)
                if code != 0 or result is None:
                    problems.append(f"{label}: exit {code}, result {result!r}")
                    continue
                if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                    problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
                wanted = {metric["name"]: metric["unit"] for metric in spec[kind]}
                printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
                if printed != wanted:
                    problems.append(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(printed) ^ set(wanted))}")
                for name, metric in result["metrics"].items():
                    if not isinstance(metric["value"], (int, float)) or isinstance(metric["value"], bool):
                        problems.append(f"{label}: {name} is not a number")
                rate = ERROR_RATE.search(out)
                if rate is None or float(rate.group(1)) != 0.0:
                    problems.append(f"{label}: error_rate line missing or not 0")

    for path, old, new, workloads in FAULTS:
        with tempfile.TemporaryDirectory() as copy:
            copy_checkout(Path(copy))
            target = Path(copy) / path
            text = target.read_text()
            if text.count(old) != 1:
                problems.append(f"{path}: cannot plant the fault, {old.strip()!r} not found once")
                continue
            target.write_text(text.replace(old, new))
            for workload in workloads:
                label = f"{workload} with {new.strip()!r} planted in {path}"
                code, result, out = run(Path(copy), workload, 0)
                rate = ERROR_RATE.search(out)
                if code == 0 or result is None or result["failed"] == 0 or result["correct"] is not False:
                    problems.append(f"{label}: exit {code}, result {result!r}; the planted fault went unnoticed")
                if rate is None or float(rate.group(1)) <= 0.0:
                    problems.append(f"{label}: error_rate not above 0")

    with tempfile.TemporaryDirectory() as bare:
        copy_checkout(Path(bare), with_source=False)
        code, result, _ = run(Path(bare), spec["workloads"][0]["name"], 0)
        if code == 0 or result is not None:
            problems.append(f"without src/: exit {code}, result {result!r}")

    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
