"""The CLI output pins of ``golden.txt``, each run through ``cli.main`` in-process.

An entry's standard output must hash to its recorded SHA-256, or equal the
output of the entry its digest names, with exit status 0 and nothing on
standard error.  Its input is the output of the entry it names, or the value
of its ``py:`` expression as ``print`` writes it, and its CPU count, if any,
is pinned with ``pin_cpus``.
"""

import functools
import hashlib
import io
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import pytest

from cli_support import pin_cpus
import touchard
from touchard import GWord, cli

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden.txt"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


class Entry(NamedTuple):
    name: str
    stdin: str
    cpus: str
    digest: str
    argv: list[str]


def entries():
    """Each manifest entry, in file order."""
    for line in MANIFEST.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, stdin, cpus, digest, *argv = line.split()
            yield Entry(name, stdin, cpus, digest, argv)


ENTRIES = {entry.name: entry for entry in entries()}


def execute(name):
    """(status, stdout, stderr) of the entry ``name``, fed its input, on its CPUs."""
    entry = ENTRIES[name]
    if entry.stdin == "-":
        text = ""
    elif entry.stdin.startswith("py:"):
        text = f"{eval(entry.stdin[3:])}\n"
    else:
        text = run(entry.stdin)[1]
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, redirect_stdout(out), redirect_stderr(err):
        patch.setattr(sys, "stdin", io.StringIO(text))
        if entry.cpus != "-":
            pin_cpus(patch, int(entry.cpus))
        status = cli.main(entry.argv)
    return status, out.getvalue(), err.getvalue()


run = functools.cache(execute)

# The entries whose output a later entry reads; only these are kept.
READ = {entry.stdin for entry in ENTRIES.values()} | {entry.digest[1:] for entry in ENTRIES.values()}


def matches(name, out):
    """Whether ``out`` is what the entry ``name`` pins."""
    digest = ENTRIES[name].digest
    if digest.startswith("="):
        return out == run(digest[1:])[1]
    return hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", ENTRIES)
def test_golden_output(name):
    status, out, err = (run if name in READ else execute)(name)
    assert (status, err) == (0, "")
    assert matches(name, out)


def test_manifest_is_well_formed():
    listed = list(entries())
    names = [entry.name for entry in listed]
    digests = [entry.digest for entry in listed if not entry.digest.startswith("=")]
    assert len(set(names)) == len(names)
    assert len(set(digests)) == len(digests)
    for number, entry in enumerate(listed):
        earlier = names[:number]
        assert entry.cpus in ("-", "1", "2"), entry
        assert entry.stdin == "-" or entry.stdin.startswith("py:") or entry.stdin in earlier, entry
        if entry.digest.startswith("="):
            assert entry.digest[1:] in earlier, entry
        else:
            assert re.fullmatch("[0-9a-f]{64}", entry.digest), entry
        assert entry.argv, entry


def test_the_workflow_holds_no_digest():
    # Each pin is written once, in golden.txt, which CI reads.
    assert re.findall("[0-9a-fA-F]{64}", WORKFLOW.read_text()) == []


def test_a_one_byte_change_to_a_map_fails_its_pin(monkeypatch):
    # cmd_map reads its functions from the package when it runs, so it reads the patched formatter.
    first = run("g10")[1].split("\n", 1)[0]
    split = touchard.touchard_split(GWord(first))
    real = touchard.format_touchard_decomposition
    monkeypatch.setattr(touchard, "format_touchard_decomposition",
                        lambda d: real(d) + ("0" if d == split else ""))
    status, out, err = execute("tsplit10")
    assert (status, err, len(out)) == (0, "", len(run("tsplit10")[1]) + 1)
    assert not matches("tsplit10", out)


def test_a_one_byte_change_to_the_two_worker_verify_fails_its_pin():
    out = run("verify2")[1]
    assert matches("verify2", out)
    assert not matches("verify2", out + "\n")
