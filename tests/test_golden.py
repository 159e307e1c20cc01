"""The CLI output pins of ``golden.txt``, each run through ``cli.main`` in-process.

An entry's standard output must hash to its recorded SHA-256, or equal the
output of the entry its digest names, with exit status 0 and nothing on
standard error.  An entry's input is the output of the entry it names.
"""

import functools
import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from touchard.cli import main

MANIFEST = Path(__file__).with_name("golden.txt")


def entries():
    """Each manifest entry as (name, stdin, digest, argv), in file order."""
    for line in MANIFEST.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, stdin, digest, *argv = line.split()
            yield name, stdin, digest, argv


ENTRIES = {name: (stdin, digest, argv) for name, stdin, digest, argv in entries()}


@functools.cache
def run(name):
    """(status, stdout, stderr) of the entry ``name``, fed its input entry's output."""
    stdin, _, argv = ENTRIES[name]
    saved = sys.stdin
    sys.stdin = io.StringIO("" if stdin == "-" else run(stdin)[1])
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            status = main(argv)
    finally:
        sys.stdin = saved
    return status, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", ENTRIES)
def test_golden_output(name):
    status, out, err = run(name)
    assert (status, err) == (0, "")
    digest = ENTRIES[name][1]
    if digest.startswith("="):
        assert out == run(digest[1:])[1]
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == digest
