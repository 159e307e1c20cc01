"""Helpers for running the CLI: a pinned CPU count, and fresh interpreters on this checkout."""

import os
import subprocess
import sys
from pathlib import Path


def pin_cpus(monkeypatch, count):
    """Make ``count`` CPUs available to ``verify``, so that it starts min(count, 2) workers on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


# The same, for code run in a fresh interpreter: two CPUs, so two workers.
PIN_TWO_CPUS = "import os; os.sched_getaffinity = lambda pid: {0, 1}\n"

SRC = Path(__file__).resolve().parents[1] / "src"


def python(*args, optimize=False, **kwargs):
    """Start a fresh interpreter (``python -O`` if ``optimize``) that imports this checkout's package."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, *(["-O"] if optimize else []), *args]
    return subprocess.Popen(cmd, env=dict(os.environ, PYTHONPATH=path), **kwargs)


def run_python(*args, optimize=False):
    proc = python(*args, optimize=optimize, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:  # a hang fails the test and leaves no process behind
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out, err
