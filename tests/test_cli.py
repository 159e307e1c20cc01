"""Command-line behavior: outputs, exit codes, and stream composition."""

import io
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from touchard import (
    GWord,
    catalan,
    catalan_to_g,
    enumerate_g,
    sample_dyck,
)
from touchard.cli import VerifyConfig, build_parser, cmd_verify, main, run_checks

U_G_2 = "UD\nGG\nGR\nRG\nRR\n"


def run(argv, capsys, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_enumerate_g_length_2(capsys):
    status, out, err = run(["enumerate", "g", "--length", "2"], capsys)
    assert (status, out, err) == (0, U_G_2, "")


def test_enumerate_dyck_length_0_is_one_empty_line(capsys):
    status, out, _ = run(["enumerate", "dyck", "--length", "0"], capsys)
    assert (status, out) == (0, "\n")


def test_enumerate_count_only(capsys):
    status, out, _ = run(["enumerate", "motzkin", "--length", "3", "--count-only"], capsys)
    assert (status, out) == (0, "4\n")


def test_count_values(capsys):
    assert run(["count", "catalan", "4"], capsys)[:2] == (0, "14\n")
    assert run(["count", "motzkin", "7"], capsys)[:2] == (0, "127\n")
    assert run(["count", "touchard-rhs", "0"], capsys)[:2] == (
        0,
        "n=0 lhs=1 rhs=1 holds=true terms=1\n",
    )
    assert run(["count", "motzkin-rhs", "3"], capsys)[:2] == (
        0,
        "n=3 lhs=14 rhs=14 holds=true terms=1,3,6,4\n",
    )


def test_map_single_words(capsys):
    assert run(["map", "c2g", "--word", "UUDD"], capsys)[:2] == (0, "R\n")
    assert run(["map", "g2c", "--word", "R"], capsys)[:2] == (0, "UUDD\n")
    assert run(["map", "encode", "--word", "UD"], capsys)[:2] == (0, "G\n")
    assert run(["map", "decode", "--word", "G"], capsys)[:2] == (0, "UD\n")
    assert run(["map", "drop", "--word", "URD"], capsys)[:2] == (0, "RR\n")
    assert run(["map", "raise", "--word", "RR"], capsys)[:2] == (0, "URD\n")


def test_map_decomposition_lines(capsys):
    assert run(["map", "tsplit", "--word", "URD"], capsys)[:2] == (
        0,
        "positions=[1,3];core=UD;colors=1\n",
    )
    assert run(["map", "tmerge", "--word", "positions=[1,3];core=UD;colors=1"], capsys)[:2] == (
        0,
        "URD\n",
    )
    assert run(["map", "msplit", "--word", "URD"], capsys)[:2] == (0, "red=[2];core=UD\n")
    assert run(["map", "mmerge", "--word", "red=[2];core=UD"], capsys)[:2] == (0, "URD\n")


def test_map_stream_composes_to_identity(capsys, monkeypatch):
    words = "".join(f"{w}\n" for w in enumerate_g(3))
    status, encoded, err = run(["map", "g2c"], capsys, stdin=words, monkeypatch=monkeypatch)
    assert (status, err) == (0, "")
    status, decoded, err = run(["map", "c2g"], capsys, stdin=encoded, monkeypatch=monkeypatch)
    assert (status, err) == (0, "")
    assert decoded == words


def test_map_reports_bad_lines(capsys, monkeypatch):
    status, out, err = run(
        ["map", "encode"], capsys, stdin="UD\nUX\nUUDD\n", monkeypatch=monkeypatch
    )
    assert status == 1
    assert out == "G\nUD\n"  # good lines still map
    assert err.startswith("line 2:")


def test_map_rejects_unbalanced_word(capsys):
    status, out, err = run(["map", "encode", "--word", "UUD"], capsys)
    assert (status, out) == (1, "")
    assert "line 1" in err


def test_map_rejects_a_huge_position_at_once(capsys, monkeypatch):
    # main lifts the int-to-str digit limit; a million-digit field must still not be converted whole.
    line = "positions=[1," + "9" * 1_000_000 + "];core=UD;colors=0\n"
    start = time.perf_counter()
    status, out, err = run(["map", "tmerge"], capsys, stdin=line, monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 1
    assert (status, out, err) == (1, "", "line 1: positions must lie in 1..3\n")
    line = "red=[" + "0" * 1_000_000 + "2];core=UD\n"  # leading zeros still parse
    status, out, err = run(["map", "mmerge"], capsys, stdin=line, monkeypatch=monkeypatch)
    assert (status, out, err) == (0, "URD\n", "")


def test_render_ascii(capsys):
    assert run(["render", "--word", "UD"], capsys)[:2] == (0, "/\\\n")
    assert run(["render", "--format", "ascii", "--word", "URD"], capsys)[:2] == (
        0,
        " = \n/ \\\n",
    )


def test_render_svg(capsys):
    status, out, _ = run(
        ["render", "--format", "svg", "--word", "URD", "--unit", "10"], capsys
    )
    assert status == 0
    assert out.count('class="step"') == 3
    assert out.count("#C00000") == 1


def test_render_reads_stdin(capsys, monkeypatch):
    status, out, _ = run(["render"], capsys, stdin="UUDD\n", monkeypatch=monkeypatch)
    assert (status, out) == (0, " /\\ \n/  \\\n")


def test_render_motzkin_word(capsys):
    assert run(["render", "--word", "UHD"], capsys)[:2] == (0, " - \n/ \\\n")


def test_render_invalid_word_fails(capsys):
    status, out, err = run(["render", "--word", "DU"], capsys)
    assert (status, out) == (1, "")
    assert err.startswith("error:")
    status, _, err = run(["render", "--word", "GH"], capsys)
    assert status == 1


def test_sample_dyck(capsys):
    assert run(["sample", "dyck", "--length", "1", "--seed", "7"], capsys)[:2] == (0, "UD\n")
    assert run(["sample", "dyck", "--length", "0"], capsys)[:2] == (0, "\n")
    first = run(["sample", "dyck", "--length", "8", "--seed", "123"], capsys)[1]
    again = run(["sample", "dyck", "--length", "8", "--seed", "123"], capsys)[1]
    assert first == again


def test_sample_g_matches_library_and_covers_g4(capsys):
    # The CLI emits catalan_to_g of the sampled Dyck word...
    for seed in (0, 1, 99):
        _, out, _ = run(["sample", "g", "--length", "4", "--seed", str(seed)], capsys)
        assert out.strip() == str(catalan_to_g(sample_dyck(5, seed)))
    # ...and the sweep over seeds reaches every element of G_4.
    seen = {str(catalan_to_g(sample_dyck(5, seed))) for seed in range(20000)}
    assert seen == {str(w) for w in enumerate_g(4)}


def test_sample_seed_range_enforced(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "dyck", "--length", "1", "--seed", str(2**64)])
    assert exc.value.code == 2
    capsys.readouterr()


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["enumerate", "g", "--length", "-1"],
        ["verify", "--max-identity-n", "-2"],
        ["count", "catalan"],
        ["render", "--format", "png", "--word", "UD"],
        ["map", "sideways"],
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_verify_small_bounds(capsys):
    status, out, err = run(
        ["verify", "--max-identity-n", "3", "--max-census-n", "2", "--max-roundtrip-len", "2"],
        capsys,
    )
    assert (status, err) == (0, "")
    lines = out.splitlines()
    assert "identity=touchard n=3 lhs=14 rhs=14 holds=true terms=8,6" in lines
    assert "identity=motzkin n=3 lhs=14 rhs=14 holds=true terms=1,3,6,4" in lines
    assert sum(1 for line in lines if line.startswith("identity=")) == 8
    assert "roundtrip=pair n=2 words=10 ok=true" in lines
    assert "census=touchard n=2 counts=4,1 terms=4,1 ok=true" in lines


def test_verify_roundtrip_len_0(capsys):
    status, out, _ = run(
        ["verify", "--max-identity-n", "0", "--max-census-n", "0", "--max-roundtrip-len", "0"],
        capsys,
    )
    assert status == 0
    roundtrips = [line for line in out.splitlines() if line.startswith("roundtrip=")]
    assert len(roundtrips) == 4
    assert all(" n=0 " in line for line in roundtrips)


def test_verify_ndjson_mirrors_text(capsys):
    _, text_out, _ = run(
        ["verify", "--max-identity-n", "2", "--max-census-n", "1", "--max-roundtrip-len", "1"],
        capsys,
    )
    status, json_out, _ = run(
        ["verify", "--max-identity-n", "2", "--max-census-n", "1", "--max-roundtrip-len", "1",
         "--format", "ndjson"],
        capsys,
    )
    assert status == 0
    records = [json.loads(line) for line in json_out.splitlines()]
    assert len(records) == len(text_out.splitlines())
    assert all(record["ok"] is True for record in records)
    touchard_3 = [r for r in records if r["check"] == "identity" and r["n"] == 2
                  and r["identity"] == "touchard"]
    assert touchard_3 == [
        {"check": "identity", "identity": "touchard", "n": 2, "lhs": 5, "rhs": 5,
         "holds": True, "terms": [4, 1], "ok": True}
    ]


def test_verify_parser_defaults_are_the_config_defaults():
    args = build_parser().parse_args(["verify"])
    parsed = (args.max_identity_n, args.max_census_n, args.max_roundtrip_len, args.format)
    default = VerifyConfig()
    assert parsed == (default.max_identity_n, default.max_census_n, default.max_roundtrip_len, default.output_format)


def test_verify_default_identity_checks_pass():
    # The default round trips and censuses run in the acceptance suite (criteria 3 and 4).
    checks = list(run_checks(VerifyConfig(max_census_n=0, max_roundtrip_len=0)))
    identities = [check for check in checks if check.record["check"] == "identity"]
    assert len(identities) == 402
    assert max(check.record["n"] for check in identities) == 200
    assert all(check.ok for check in checks)


def test_verify_detects_injected_fault(capsys, monkeypatch):
    # A wrong-but-valid drop_restriction (zero colors swapped) must flip
    # the exit status without crashing the sweep.
    from touchard import Letter, drop_restriction as real_drop

    swap = {
        Letter.GREEN_ZERO: Letter.RED_ZERO,
        Letter.RED_ZERO: Letter.GREEN_ZERO,
    }

    def faulty_drop(word):
        dropped = real_drop(word)
        return GWord(tuple(swap.get(letter, letter) for letter in dropped.letters))

    monkeypatch.setattr("touchard.cli.drop_restriction", faulty_drop)
    argv = ["verify", "--max-identity-n", "0", "--max-census-n", "0", "--max-roundtrip-len", "3"]
    status, out, err = run(argv, capsys)
    assert status == 1
    # drop("UD") is "G" instead of "R", and raise("G") is "GG", not "UD"
    assert err == "verify: first failing check: roundtrip=restriction n=1 words=4 ok=false counterexample=UD\n"
    assert "roundtrip=restriction n=1 words=4 ok=false" in out.splitlines()

    status, out, json_err = run(argv + ["--format", "ndjson"], capsys)
    assert (status, json_err) == (1, err)
    records = [json.loads(line) for line in out.splitlines()]
    failed = [r for r in records if not r["ok"]]
    assert [r["counterexample"] for r in failed] == ["UD", "UGD", "UUDD"]
    assert all("counterexample" not in r for r in records if r["ok"])


def test_cmd_verify_accepts_config_object():
    out, err = io.StringIO(), io.StringIO()
    status = cmd_verify(VerifyConfig(2, 1, 1, "text"), out, err)
    assert status == 0
    assert err.getvalue() == ""
    lines = out.getvalue().splitlines()
    # 3 n-values x 2 identities, 2 sizes x 4 round trips, 2 n-values x 2 censuses
    assert len(lines) == 6 + 8 + 4
    assert "ok=false" not in out.getvalue()


SRC = Path(__file__).resolve().parents[1] / "src"


def python(*args, optimize=False, **kwargs):
    """Start a fresh interpreter (``python -O`` if ``optimize``) that imports this checkout's package."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, *(["-O"] if optimize else []), *args]
    return subprocess.Popen(cmd, env=dict(os.environ, PYTHONPATH=path), **kwargs)


def run_python(*args, optimize=False):
    proc = python(*args, optimize=optimize, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = proc.communicate(timeout=120)
    return proc.returncode, out, err


def test_closed_output_pipe_exits_1_without_traceback():
    # touchard enumerate g --length 12 | head -1
    proc = python("-m", "touchard.cli", "enumerate", "g", "--length", "12",
                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert (first, err) == (b"UUUUUUDDDDDD\n", b"")


def test_unexpected_exception_is_one_error_line():
    code = textwrap.dedent("""
        import sys
        import touchard.cli as cli

        def broken(*args):
            raise RuntimeError("planted\\nfault")

        cli.cmd_count = broken
        sys.exit(cli.main(["count", "catalan", "3"]))
    """)
    status, out, err = run_python("-c", code)
    assert (status, out, err) == (1, "", "error: unexpected RuntimeError: planted fault\n")


def test_count_prints_past_the_int_to_str_digit_limit():
    # C_100000 has 60,199 digits, past CPython's default limit of 4,300;
    # main lifts the limit while it runs and puts it back afterwards.
    code = textwrap.dedent("""
        import sys
        from touchard.cli import main

        digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = digit_limit()
        status = main(["count", "catalan", "100000"])
        sys.exit(status if digit_limit() == before else 3)
    """)
    status, out, err = run_python("-c", code)
    assert (status, err) == (0, "")
    digits = out.strip()
    assert len(digits) == 60199 and digits.isdigit()
    assert int(digits[-12:]) == catalan(100000) % 10**12


def test_public_constructors_check_under_optimize():
    code = textwrap.dedent("""
        from touchard import DyckWord, Letter, NegativePrefix
        try:
            DyckWord((Letter.DOWN, Letter.UP))
        except NegativePrefix as exc:
            print(exc)
    """)
    assert run_python("-c", code, optimize=True) == (0, "prefix sum falls below zero at position 1\n", "")


def test_verify_checks_map_outputs_under_optimize():
    # A planted drop/raise pair whose round trips all succeed while drop
    # returns words that dip below ground: drop mirrors its true output
    # (U <-> D), raise undoes the mirroring, and drop leaves alone the
    # words raise produced, so the second round trip holds as well.
    code = textwrap.dedent("""
        import sys
        import touchard.cli as cli
        from touchard.bijections import drop_restriction, raise_restriction
        from touchard.words import GWord

        MIRROR = str.maketrans("UD", "DU")
        raised = set()

        def drop(word):
            dropped = drop_restriction(word)
            if word.text in raised:
                return dropped
            return GWord._trusted(dropped.text.translate(MIRROR))

        def lift(word):
            if word.text.lstrip("GR").startswith("D"):  # a mirror image from drop
                word = GWord._trusted(word.text.translate(MIRROR))
            lifted = raise_restriction(word)
            raised.add(lifted.text)
            return lifted

        cli.drop_restriction, cli.raise_restriction = drop, lift
        sys.exit(cli.main(["verify", "--max-identity-n", "0", "--max-census-n", "0",
                           "--max-roundtrip-len", "4"]))
    """)
    status, out, err = run_python("-c", code, optimize=True)
    assert status == 1
    assert "roundtrip=restriction n=4 words=84 ok=false" in out.splitlines()
    assert "roundtrip=pair n=4 words=84 ok=true" in out.splitlines()
    assert err.startswith("verify: first failing check: roundtrip=restriction")
