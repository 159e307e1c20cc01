"""Command-line behavior: outputs, exit codes, and stream composition."""

import io
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from touchard import (
    DyckWord,
    GWord,
    RestrictedGWord,
    catalan,
    catalan_to_g,
    drop_restriction,
    enumerate_dyck,
    enumerate_g,
    enumerate_g_restricted,
    motzkin_split,
    pair_decode,
    pair_encode,
    raise_restriction,
    sample_dyck,
    touchard_merge,
)
from touchard.cli import MAX_JOBS, VerifyConfig, build_parser, cmd_verify, main, resolve_jobs, run_checks

U_G_2 = "UD\nGG\nGR\nRG\nRR\n"


def pin_cpus(monkeypatch, count):
    """Make ``count`` CPUs available to ``verify``, so that it starts min(count, 2) workers on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


# The same, for code run in a fresh interpreter: two CPUs, so two workers.
PIN_TWO_CPUS = "import os; os.sched_getaffinity = lambda pid: {0, 1}\n"


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
        ["verify", "--max-roundtrip-len", "2.5"],
        ["verify", "--format", "json"],
        ["count", "catalan"],
        ["render", "--format", "png", "--word", "UD"],
        ["map", "sideways"],
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_verify_small_bounds(capsys, monkeypatch):
    pin_cpus(monkeypatch, 2)
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


def test_verify_roundtrip_len_0(capsys, monkeypatch):
    pin_cpus(monkeypatch, 2)
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
    from touchard import drop_restriction as real_drop

    swap = str.maketrans("GR", "RG")

    def faulty_drop(word):
        return GWord(real_drop(word).text.translate(swap))

    monkeypatch.setattr("touchard.cli.drop_restriction", faulty_drop)
    pin_cpus(monkeypatch, 2)
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


def test_cmd_verify_accepts_config_object(monkeypatch):
    pin_cpus(monkeypatch, 2)
    out, err = io.StringIO(), io.StringIO()
    status = cmd_verify(VerifyConfig(2, 1, 1, "text"), out, err)
    assert status == 0
    assert err.getvalue() == ""
    lines = out.getvalue().splitlines()
    # 3 n-values x 2 identities, 2 sizes x 4 round trips, 2 n-values x 2 censuses
    assert len(lines) == 6 + 8 + 4
    assert "ok=false" not in out.getvalue()


def test_verify_output_does_not_depend_on_the_worker_count(capsys, monkeypatch):
    argv = ["verify", "--max-roundtrip-len", "7", "--max-census-n", "7"]
    for fmt in ("text", "ndjson"):
        pin_cpus(monkeypatch, 1)
        one = run(argv + ["--format", fmt], capsys)
        pin_cpus(monkeypatch, 2)
        two = run(argv + ["--format", fmt], capsys)
        assert one == two
        assert one[0] == 0 and len(one[1].splitlines()) == 402 + 4 * 8 + 2 * 8


G_3 = [str(word) for word in enumerate_g(3)]


def assert_only_failure(capsys, monkeypatch, failing_line, counterexample):
    """On 1 and on 2 CPUs, ``verify`` to length 4 fails ``failing_line`` alone and names ``counterexample``."""
    argv = ["verify", "--max-identity-n", "0", "--max-census-n", "0", "--max-roundtrip-len", "4"]
    for cpus in (1, 2):
        pin_cpus(monkeypatch, cpus)
        status, out, err = run(argv, capsys)
        named = f"counterexample={counterexample}"
        assert (status, err) == (1, f"verify: first failing check: {failing_line} {named}\n")
        assert [line for line in out.splitlines() if "ok=false" in line] == [failing_line]


@pytest.mark.parametrize("failing", [{8}, {3, 8}])
def test_verify_names_the_first_failing_word_whatever_its_shard(capsys, monkeypatch, failing):
    # touchard_merge breaks only the round trips of G_3's words at the failing
    # indices; at 2 jobs, shard 0 holds indices 0-6 and shard 1 indices 7-13.
    # The word at the lowest of them is named: GRR (shard 1) or UDR (shard 0).
    from touchard import touchard_merge as real_merge

    def faulty_merge(decomposition):
        merged = real_merge(decomposition)
        broken = str(merged) in {G_3[i] for i in failing}
        return GWord(G_3[0] if broken else str(merged))

    monkeypatch.setattr("touchard.cli.touchard_merge", faulty_merge)
    assert (G_3[3], G_3[8]) == ("UDR", "GRR")
    failing_line = "roundtrip=touchard_split n=3 words=14 ok=false"
    assert_only_failure(capsys, monkeypatch, failing_line, G_3[min(failing)])


def test_verify_names_the_empty_word(capsys, monkeypatch):
    # The empty word, G_0's only one, is a counterexample like any other; at
    # 2 jobs shard 0 walks no word of G_0 and shard 1 walks it.
    from touchard import touchard_merge as real_merge

    def faulty_merge(decomposition):
        merged = real_merge(decomposition)
        return GWord("G") if merged.text == "" else merged

    monkeypatch.setattr("touchard.cli.touchard_merge", faulty_merge)
    assert_only_failure(capsys, monkeypatch, "roundtrip=touchard_split n=0 words=1 ok=false", "")


def test_verify_names_a_first_family_word_not_a_target_one(capsys, monkeypatch):
    # drop_restriction sends only GGUD (restricted_4 word 12: shard 1 of 2) to
    # GGG, so GGUD's round trip fails.  GGR (G_3 word 6: shard 0), whose image
    # is GGUD, would fail too if it were walked; the check walks restricted_4
    # alone, whichever shard holds the failure, and names GGUD.
    from touchard import drop_restriction as real_drop

    monkeypatch.setattr("touchard.cli.drop_restriction",
                        lambda word: GWord("GGG") if word.text == "GGUD" else real_drop(word))
    assert_only_failure(capsys, monkeypatch, "roundtrip=restriction n=3 words=28 ok=false", "GGUD")


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_roundtrip_shards_walk_every_word_once_in_order(monkeypatch, jobs):
    # Each check walks its first family alone, through its forward map: the
    # shards' slices, read in shard order, are that family in enumeration
    # order, and the words the shards report walking sum to its size.
    from touchard import cli

    real_first_failure = cli._first_failure
    seen = {}

    def recording_first_failure(words, forward, backward, valid):
        def record(word):
            seen.setdefault(forward.__name__, []).append(word.text)
            return forward(word)
        return real_first_failure(words, record, backward, valid)

    monkeypatch.setattr(cli, "_first_failure", recording_first_failure)
    for n in range(7):
        seen.clear()
        shards = [cli._roundtrip_shard(n, shard, jobs) for shard in range(jobs)]
        dyck = [str(word) for word in enumerate_dyck(n + 1)]
        restricted = [str(word) for word in enumerate_g_restricted(n + 1)]
        grown = [str(word) for word in enumerate_g(n)]
        assert seen == {"pair_encode": dyck, "drop_restriction": restricted,
                        "touchard_split": grown, "motzkin_split": grown}
        assert not {"pair_decode", "raise_restriction"} & seen.keys()  # no backward map is walked forward
        sizes = {"pair": len(dyck), "restriction": len(restricted),
                 "touchard_split": len(grown), "motzkin_split": len(grown)}
        for checks in zip(*shards):  # one check, as each shard reported it
            assert sum(walked for *_, walked, _ in checks) == sizes[checks[0][0]]
            assert all(failure is None for *_, failure in checks)


def _raising_on(real, text, on_result=False):
    """``real``, raising ValueError where its argument (or, with ``on_result``, its result) is the word ``text``."""
    def fault(argument):
        result = real(argument)
        if (result if on_result else argument).text == text:
            raise ValueError("planted fault")
        return result
    return fault


ZERO_COLORS_SWAPPED = str.maketrans("GR", "RG")

# A planted fault in one map, by the name verify calls it under.
ONE_SIDED_FAULTS = {
    "forward-raises-pair_encode": ("pair_encode", _raising_on(pair_encode, "UUDUDD")),
    "forward-raises-motzkin_split": ("motzkin_split", _raising_on(motzkin_split, "UGD")),
    "backward-raises-raise_restriction": ("raise_restriction", _raising_on(raise_restriction, "GR")),
    "backward-raises-touchard_merge": ("touchard_merge", _raising_on(touchard_merge, "URD", on_result=True)),
    # the right text as a GWord, not a restricted word
    "wrong-class-pair_encode": ("pair_encode", lambda word: (
        GWord(pair_encode(word).text) if word.text == "UUDD" else pair_encode(word))),
    # drop_restriction("GGG") is the G word GG; here it is the restricted word GG
    "wrong-class-drop_restriction": ("drop_restriction", lambda word: (
        RestrictedGWord("GG") if word.text == "GGG" else drop_restriction(word))),
    # test_verify_detects_injected_fault's fault: a wrong but valid image
    "wrong-valid-image-drop_restriction": ("drop_restriction", lambda word: (
        GWord(drop_restriction(word).text.translate(ZERO_COLORS_SWAPPED)))),
    # wrong on one word of the second family alone: GGG, pair_encode's image of UDUDUD
    "backward-wrong-on-a-target-word-pair_decode": ("pair_decode", lambda word: (
        DyckWord("UUUDDD") if word.text == "GGG" else pair_decode(word))),
}


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("fault", ONE_SIDED_FAULTS)
def test_one_sided_walk_gives_the_two_sided_results(monkeypatch, fault, cpus):
    # Walking each check from its first family alone gives, fault for fault,
    # the lines, verdicts and counterexamples of walking both families.
    import tuple_reference as ref
    from touchard import cli

    target, faulty = ONE_SIDED_FAULTS[fault]
    monkeypatch.setattr(cli, target, faulty)
    pin_cpus(monkeypatch, cpus)
    config = VerifyConfig(max_identity_n=0, max_census_n=0, max_roundtrip_len=5)
    checks = [(c.line, c.ok, c.counterexample) for c in run_checks(config) if c.record["check"] == "roundtrip"]
    maps = {name: getattr(cli, name) for name in ref.ROUNDTRIP_MAPS}
    assert checks == [check for n in range(6) for check in ref.two_sided_roundtrips(n, maps)]
    assert not all(ok for _, ok, _ in checks)


def _enumerating(monkeypatch, edit):
    """Make ``verify``'s enumerator pass each list of texts through ``edit(texts, length, alphabet, ground_red_ok)``."""
    from touchard import cli

    real_paths = cli._paths

    def paths(length, alphabet, ground_red_ok=True):
        texts = list(real_paths(length, alphabet, ground_red_ok))
        edit(texts, length, alphabet, ground_red_ok)
        return iter(texts)

    monkeypatch.setattr(cli, "_paths", paths)


def test_verify_fails_a_first_family_with_a_repeated_word(capsys, monkeypatch):
    # Dyck_4 is listed with its word 2 (shard 0 of 2) again in place of its
    # word 10 (shard 1).  Every round trip still succeeds and the family
    # still has the target size, so only its distinct count fails it, and
    # its repeated word is named.
    dyck_4 = [str(word) for word in enumerate_dyck(4)]

    def repeat(texts, length, alphabet, ground_red_ok):
        if (length, alphabet) == (8, "UD"):
            texts[10] = texts[2]

    _enumerating(monkeypatch, repeat)
    assert_only_failure(capsys, monkeypatch, "roundtrip=pair n=3 words=28 ok=false", dyck_4[2])


@pytest.mark.parametrize("cpus", [1, 2])
def test_verify_fails_a_target_family_one_word_short(monkeypatch, cpus):
    # restricted_4 is listed without its last word, GGGG.  pair's first
    # family, Dyck_4, is one word larger than its target, and UDUDUDUD, which
    # pair_encode sends to GGGG, fails its round trip; restriction's first
    # family is one word smaller than G_3, though each of its words survives.
    def shorten(texts, length, alphabet, ground_red_ok):
        if (length, ground_red_ok) == (4, False):
            texts.remove("GGGG")

    _enumerating(monkeypatch, shorten)
    pin_cpus(monkeypatch, cpus)
    config = VerifyConfig(max_identity_n=0, max_census_n=0, max_roundtrip_len=4)
    failed = [(c.line, c.counterexample) for c in run_checks(config) if not c.ok]
    assert failed == [
        ("roundtrip=pair n=3 words=27 ok=false", "UDUDUDUD"),
        ("roundtrip=restriction n=3 words=27 ok=false", None),
    ]


def test_verify_rejects_images_of_the_wrong_class_or_length_at_2_jobs(monkeypatch):
    from touchard import RestrictedGWord, pair_decode, pair_encode

    pin_cpus(monkeypatch, 2)
    config = VerifyConfig(max_identity_n=0, max_census_n=0, max_roundtrip_len=3)

    def failed(checks):
        return [(c.record["n"], c.counterexample) for c in checks if not c.ok]

    first_dyck = [(n, "U" * (n + 1) + "D" * (n + 1)) for n in range(4)]
    with monkeypatch.context() as patch:
        # the right text as a GWord, which decode undoes: only its class is wrong
        patch.setattr("touchard.cli.pair_encode", lambda word: GWord(str(pair_encode(word))))
        patch.setattr("touchard.cli.pair_decode", lambda word: pair_decode(RestrictedGWord(str(word))))
        assert failed(run_checks(config)) == first_dyck
    with monkeypatch.context() as patch:
        # a trailing green zero that decode drops again: a restricted word, one letter too long
        padded = set()

        def encode(word):
            image = RestrictedGWord(str(pair_encode(word)) + "G")
            padded.add(str(image))
            return image

        def decode(word):
            text = str(word)
            return pair_decode(RestrictedGWord(text[:-1] if text in padded else text))

        patch.setattr("touchard.cli.pair_encode", encode)
        patch.setattr("touchard.cli.pair_decode", decode)
        assert failed(run_checks(config)) == first_dyck


def test_verify_stops_its_workers_as_soon_as_its_output_fails(monkeypatch):
    import multiprocessing

    class ClosedAfterOneLine(io.StringIO):
        def write(self, text):
            if self.tell():
                raise BrokenPipeError
            return super().write(text)

    pin_cpus(monkeypatch, 2)
    with pytest.raises(BrokenPipeError):
        cmd_verify(VerifyConfig(max_identity_n=0), ClosedAfterOneLine(), io.StringIO())
    assert multiprocessing.active_children() == []


def test_jobs_are_the_available_cpus_up_to_two(monkeypatch):
    assert MAX_JOBS == 2
    jobs = []
    for cpus in (1, 2, 3, 64):
        pin_cpus(monkeypatch, cpus)
        jobs.append(resolve_jobs())
    assert jobs == [1, 2, 2, 2]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    jobs = []
    for cpus in (None, 1, 5):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        jobs.append(resolve_jobs())
    assert jobs == [1, 1, 2]
    pin_cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "fork", raising=False)
    assert resolve_jobs() == 1


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
        from touchard import DyckWord, NegativePrefix
        try:
            DyckWord("DU")
        except NegativePrefix as exc:
            print(exc)
    """)
    assert run_python("-c", code, optimize=True) == (0, "prefix sum falls below zero at position 1\n", "")


def test_words_are_built_from_text_only():
    # Anything but a str, Letter members and symbol lists included, raises BadAlphabet, under -O too.
    builders = ("DyckWord", "GWord", "RestrictedGWord", "MotzkinWord", "validate_dyck", "validate_g",
                "validate_g_restricted", "validate_motzkin", "parse_letters")
    code = textwrap.dedent(f"""
        import touchard
        from touchard import BadAlphabet, Letter
        for name in {builders!r}:
            for given in (None, 5, (Letter.UP, Letter.DOWN), ["U", "D"]):
                try:
                    getattr(touchard, name)(given)
                except BadAlphabet as exc:
                    print(name, exc)
    """)
    expected = "".join(f"{name} expected a word's text, not a {kind}\n"
                       for name in builders for kind in ("NoneType", "int", "tuple", "list"))
    for optimize in (False, True):
        assert run_python("-c", code, optimize=optimize) == (0, expected, "")


def test_sizes_seeds_and_bounds_must_be_ints():
    # A float, a bool or a str where a size, seed or bound goes raises ValueError, under -O too.
    calls = {
        "sample_dyck(2.5, 0)": "semilength must be a non-negative int, not 2.5",
        "sample_dyck(True, 0)": "semilength must be a non-negative int, not True",
        "sample_dyck(3, 1.5)": "seed must be an int, not 1.5",
        "SplitMix64(1.5)": "seed must be an int, not 1.5",
        "SplitMix64(0).below(7.5)": "bound must be an int, not 7.5",
        "SplitMix64(0).below(True)": "bound must be an int, not True",
        "list(SplitMix64(0).below_each([2, 7.5]))": "bound must be an int, not 7.5",
        "list(enumerate_dyck(2.5))": "semilength must be a non-negative int, not 2.5",
        "list(enumerate_g(2.5))": "length must be a non-negative int, not 2.5",
        "list(enumerate_g_restricted('3'))": "length must be a non-negative int, not '3'",
        "list(enumerate_motzkin(False))": "length must be a non-negative int, not False",
    }
    code = textwrap.dedent(f"""
        from touchard import SplitMix64, enumerate_dyck, enumerate_g, enumerate_g_restricted
        from touchard import enumerate_motzkin, sample_dyck
        for call in {list(calls)!r}:
            try:
                eval(call)
            except ValueError as exc:
                print(call, exc)
    """)
    expected = "".join(f"{call} {message}\n" for call, message in calls.items())
    for optimize in (False, True):
        assert run_python("-c", code, optimize=optimize) == (0, expected, "")


def test_verify_config_rejects_bad_bounds_and_formats():
    # Each would otherwise print text for an unknown format, fail deep in the
    # sweep, or check nothing and pass; under -O too.
    calls = {
        "VerifyConfig(output_format='json')": "output_format must be 'text' or 'ndjson', not 'json'",
        "VerifyConfig(max_roundtrip_len=2.5)": "max_roundtrip_len must be a non-negative int, not 2.5",
        "VerifyConfig(-2, -1, -1)": "max_identity_n must be a non-negative int, not -2",
        "VerifyConfig(3, -1)": "max_census_n must be a non-negative int, not -1",
        "VerifyConfig(max_identity_n=True)": "max_identity_n must be a non-negative int, not True",
    }
    code = textwrap.dedent(f"""
        from touchard.cli import VerifyConfig
        for call in {list(calls)!r}:
            try:
                eval(call)
            except ValueError as exc:
                print(call, exc)
    """)
    expected = "".join(f"{call} {message}\n" for call, message in calls.items())
    for optimize in (False, True):
        assert run_python("-c", code, optimize=optimize) == (0, expected, "")


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
    status, out, err = run_python("-c", PIN_TWO_CPUS + code, optimize=True)
    assert status == 1
    assert "roundtrip=restriction n=4 words=84 ok=false" in out.splitlines()
    assert "roundtrip=pair n=4 words=84 ok=true" in out.splitlines()
    assert err.startswith("verify: first failing check: roundtrip=restriction")


def test_verify_closed_output_pipe_stops_every_worker():
    # touchard verify | head -1 on two CPUs, in a session of its own so that
    # any worker left behind would still be found in its process group
    code = PIN_TWO_CPUS + "import sys, touchard.cli; sys.exit(touchard.cli.main(['verify']))"
    proc = python("-c", code, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        status = proc.wait(timeout=120)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    err = proc.stderr.read()
    proc.stderr.close()
    assert (status, first, err) == (1, b"identity=touchard n=0 lhs=1 rhs=1 holds=true terms=1\n", b"")


def test_verify_on_one_cpu_starts_no_process():
    code = textwrap.dedent("""
        import os, sys
        import touchard.cli as cli

        def no_fork():
            raise RuntimeError("started a process")

        os.sched_getaffinity = lambda pid: {0}
        os.fork = no_fork
        status = cli.main(["verify", "--max-identity-n", "0", "--max-census-n", "4",
                           "--max-roundtrip-len", "4"])
        sys.exit(status if "multiprocessing" not in sys.modules else 3)
    """)
    status, out, err = run_python("-c", code)
    assert (status, err) == (0, "")
    assert len(out.splitlines()) == 2 + 4 * 5 + 2 * 5


def test_unexpected_exception_in_a_worker_is_the_same_error_line():
    code = textwrap.dedent("""
        import os, sys
        import touchard.cli as cli

        def broken(word):
            if len(word) == 3:
                raise RuntimeError("planted\\nfault")
            return word

        os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))
        cli.drop_restriction = broken
        sys.exit(cli.main(["verify", "--max-identity-n", "1", "--max-census-n", "0",
                           "--max-roundtrip-len", "4"]))
    """)
    one, two = (run_python("-c", code, cpus) for cpus in ("1", "2"))
    assert one == two
    status, out, err = two
    assert (status, err) == (1, "error: unexpected RuntimeError: planted fault\n")
    assert out.splitlines()[-1] == "roundtrip=motzkin_split n=1 words=2 ok=true"


def test_verify_fails_when_a_worker_dies():
    # The worker that takes census 5 (odd tasks: the second of two) kills
    # itself there, as an out-of-memory kill would; the first one finishes.
    code = PIN_TWO_CPUS + textwrap.dedent("""
        import multiprocessing, signal, sys
        import touchard.cli as cli
        from touchard import touchard_split

        def dying(word):
            if len(word) == 5:
                os.kill(os.getpid(), signal.SIGKILL)
            return touchard_split(word)

        cli.touchard_split = dying
        status = cli.main(["verify", "--max-identity-n", "0", "--max-census-n", "5",
                           "--max-roundtrip-len", "3"])
        sys.exit(status if not multiprocessing.active_children() else 3)
    """)
    status, out, err = run_python("-c", code)
    assert (status, err) == (1, "error: unexpected ChildProcessError: a verify worker stopped with exit status -9\n")
    lines = out.splitlines()
    assert len(lines) == 2 + 4 * 4 + 2 * 5
    assert lines[-1].startswith("census=motzkin n=4 ")
