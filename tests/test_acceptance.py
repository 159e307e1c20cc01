"""Acceptance suite: one test per criterion, each at its stated bound.

Every test prints a ``criterion N ...: PASS`` or ``...: FAIL`` line
(visible with ``pytest -s`` or in captured output for failures).
"""

import functools
import itertools
import os
import time
import xml.etree.ElementTree as ET
from collections import Counter
from math import comb

import pytest

from touchard import (
    GWord,
    MotzkinDecomposition,
    RestrictedGWord,
    TouchardDecomposition,
    catalan,
    catalan_to_g,
    enumerate_dyck,
    enumerate_g,
    enumerate_g_restricted,
    g_to_catalan,
    motzkin_count,
    motzkin_merge,
    motzkin_rhs,
    motzkin_split,
    render_svg,
    sample_dyck,
    to_drawing,
    touchard_merge,
    touchard_rhs,
    touchard_split,
)
from touchard.verify import VerifyConfig, run_checks

STEP = {"U": 1, "D": -1, "G": 0, "R": 0}  # each letter's step in height, independent of the package

# chi-square quantile at 0.999 for 131 degrees of freedom
# (scipy.stats.chi2.ppf(0.999, 131), frozen so the suite stays stdlib-only)
CHI2_999_DOF131 = 186.76212863710677


def criterion(number, label):
    def wrap(test):
        @functools.wraps(test)
        def run(*args, **kwargs):
            try:
                result = test(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({label}): FAIL")
                raise
            print(f"criterion {number} ({label}): PASS")
            return result

        return run

    return wrap


@criterion(1, "both identities hold exactly for n <= 500 within 10s")
def test_identities_to_500():
    start = time.perf_counter()
    for n in range(501):
        touchard = touchard_rhs(n)
        motzkin = motzkin_rhs(n)
        assert touchard.holds and touchard.lhs == touchard.rhs == sum(touchard.per_k_terms)
        assert motzkin.holds and motzkin.lhs == motzkin.rhs == sum(motzkin.per_k_terms)
    assert time.perf_counter() - start < 10.0


@criterion(2, "|G_n| = C_{n+1} by exhaustive enumeration for n <= 11 within 60s")
def test_g_cardinalities_to_11():
    start = time.perf_counter()
    assert catalan(12) == 208012  # size of the largest set checked
    for n in range(12):
        assert sum(1 for _ in enumerate_g(n)) == catalan(n + 1)
    assert time.perf_counter() - start < 60.0


def catalogue(kind, max_census_n=0, max_roundtrip_len=0, cpus=2):
    """The ``run_checks`` records of one kind ("roundtrip" or "census"), with ``cpus`` CPUs (and workers)."""
    cfg = VerifyConfig(max_identity_n=0, max_census_n=max_census_n, max_roundtrip_len=max_roundtrip_len)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        return [check for check in run_checks(cfg) if check.record["check"] == kind]


# The families each bijection check walks, for the n of its record.
SIDES = {
    "pair": lambda n: (enumerate_dyck(n + 1), enumerate_g_restricted(n + 1)),
    "restriction": lambda n: (enumerate_g_restricted(n + 1), enumerate_g(n)),
    "touchard_split": lambda n: (enumerate_g(n),),
    "motzkin_split": lambda n: (enumerate_g(n),),
}


@criterion(3, "pair encoding, restriction lift and both splits are exhaustive bijections for n <= 10")
def test_bijectivity_to_10():
    checks = catalogue("roundtrip", max_roundtrip_len=10)
    assert [(c.record["bijection"], c.record["n"]) for c in checks] == [
        (name, n) for n in range(11) for name in SIDES
    ]
    for check in checks:
        name, n = check.record["bijection"], check.record["n"]
        # every word of every side was walked: |C_{n+1}| = |restricted_{n+1}| = |G_n|
        assert check.record["words"] == len(SIDES[name](n)) * catalan(n + 1)
        assert check.ok and check.record["ok"] and check.counterexample is None
        assert "counterexample" not in check.record


@criterion(4, "stratified censuses equal the identity terms for n <= 9")
def test_censuses_to_9():
    census = {(c.record["identity"], c.record["n"]): c for c in catalogue("census", max_census_n=9)}
    assert len(census) == 20
    for n in range(10):
        by_nonzero = Counter()
        by_reds = Counter()
        for word in enumerate_g(n):
            by_nonzero[word.text.count("U") + word.text.count("D")] += 1
            by_reds[word.text.count("R")] += 1
        assert set(by_nonzero) <= {2 * k for k in range(n // 2 + 1)}
        for k in range(n // 2 + 1):
            assert by_nonzero[2 * k] == comb(n, 2 * k) * 2 ** (n - 2 * k) * catalan(k)
        for k in range(n + 1):
            assert by_reds[n - k] == comb(n, k) * motzkin_count(k)
        # the catalogue's censuses agree with this letter count
        touchard, motzkin = census["touchard", n], census["motzkin", n]
        assert touchard.ok and touchard.record["counts"] == [by_nonzero[2 * k] for k in range(n // 2 + 1)]
        assert motzkin.ok and motzkin.record["counts"] == [by_reds[n - k] for k in range(n + 1)]


@criterion(5, "worked small cases match the hand tables")
def test_worked_small_cases():
    g1 = list(enumerate_g(1))
    assert [str(u) for u in g1] == ["G", "R"]
    c2 = list(enumerate_dyck(2))
    assert {str(w) for w in c2} == {"UUDD", "UDUD"}
    assert {g_to_catalan(u) for u in g1} == set(c2)
    assert str(catalan_to_g(c2[0])) == "R"  # UUDD
    assert str(catalan_to_g(c2[1])) == "G"  # UDUD

    g2 = list(enumerate_g(2))
    assert len(g2) == 5
    assert {g_to_catalan(u) for u in g2} == set(enumerate_dyck(3))
    assert all(catalan_to_g(g_to_catalan(u)) == u for u in g2)

    assert touchard_rhs(3).per_k_terms == (8, 6)


@criterion(6, "no rendered restricted word has a red segment starting at ground level")
def test_svg_restriction_to_length_8():
    for length in range(1, 9):
        for word in enumerate_g_restricted(length):
            svg = render_svg(to_drawing(word), 10)
            root = ET.fromstring(svg)
            lines = [el for el in root.iter() if el.tag.endswith("line")]
            axis_y = int(next(el for el in lines if el.get("class") == "axis").get("y1"))
            for el in lines:
                if el.get("class") == "step" and el.get("stroke") == "#C00000":
                    assert int(el.get("y1")) != axis_y


@criterion(7, "26400 samples of C_6 cover every word with chi-square below the 0.999 quantile")
def test_sampling_uniformity():
    counts = Counter(str(sample_dyck(6, seed)) for seed in range(132 * 200))
    assert len(counts) == 132
    expected = 200.0
    statistic = sum((observed - expected) ** 2 / expected for observed in counts.values())
    assert statistic < CHI2_999_DOF131


# --- criterion 8: the catalogue must catch planted faults -------------------

_SWAPPED_PAIRS = {
    "UU": "U",
    "UD": "R",  # colors deliberately exchanged
    "DU": "G",
    "DD": "D",
}


def _encode_with_swapped_colors(word):
    text = word.text
    return RestrictedGWord("".join(_SWAPPED_PAIRS[text[i : i + 2]] for i in range(0, len(text), 2)))


def _raise_targeting_last_violation(word):
    text = word.text
    last = None
    height = 0
    for i, ch in enumerate(text):
        if ch == "R" and height == 0:
            last = i
        height += STEP[ch]
    if last is None:
        return RestrictedGWord(text + "G")
    return RestrictedGWord(text[:last] + "U" + text[last + 1 :] + "D")


def _touchard_merge_flipping_a_color(decomposition):
    colors = decomposition.colors
    if colors:
        colors = (not colors[0],) + colors[1:]
    return touchard_merge(
        TouchardDecomposition(decomposition.positions, decomposition.core, colors)
    )


def _motzkin_merge_shifting_a_red(decomposition):
    reds = decomposition.red_positions
    if reds:  # the first red slot moves one place right, cyclically
        reds = (reds[0] % decomposition.n + 1,) + reds[1:]
    return motzkin_merge(MotzkinDecomposition(reds, decomposition.core))


PLANTED_FAULTS = (
    ("pair", "pair_encode", _encode_with_swapped_colors),
    ("restriction", "raise_restriction", _raise_targeting_last_violation),
    ("touchard_split", "touchard_merge", _touchard_merge_flipping_a_color),
    ("motzkin_split", "motzkin_merge", _motzkin_merge_shifting_a_red),
)


@criterion(8, "a planted fault in any map verify checks fails its record with a counterexample")
def test_mutations_are_detected(monkeypatch):
    assert all(check.ok for check in catalogue("roundtrip", max_roundtrip_len=4))
    for name, target, fault in PLANTED_FAULTS:
        with monkeypatch.context() as patch:
            patch.setattr(f"touchard.verify.{target}", fault)
            checks = [c for c in catalogue("roundtrip", max_roundtrip_len=4) if c.record["bijection"] == name]
        failed = [c for c in checks if not c.ok]
        assert failed, name
        for check in failed:
            assert check.record["ok"] is False
            walked = {str(word) for side in SIDES[name](check.record["n"]) for word in side}
            assert check.counterexample in walked
            assert check.record["counterexample"] == check.counterexample


def test_planted_faults_give_the_same_records_at_any_job_count(monkeypatch):
    for _, target, fault in PLANTED_FAULTS:
        with monkeypatch.context() as patch:
            patch.setattr(f"touchard.verify.{target}", fault)
            one, two = (catalogue("roundtrip", max_roundtrip_len=4, cpus=cpus) for cpus in (1, 2))
        assert any(not check.ok for check in one), target
        assert one == two, target


# --- the census trusts that round trips force core sizes --------------------


def _touchard_split_dropping_a_pair(word):
    """The split of ``word`` with its last up-step and the down-step after it read as green zeros."""
    text = word.text
    up = text.rfind("U")
    if up >= 0:
        down = text.index("D", up)
        text = text[:up] + "G" + text[up + 1 : down] + "G" + text[down + 1 :]
    return touchard_split(GWord(text))


def _motzkin_split_dropping_a_red(word):
    """The split of ``word`` with its first red zero read as a green one."""
    return motzkin_split(GWord(word.text.replace("R", "G", 1)))


CORE_SIZE_FAULTS = {
    # each split, a fault that gives it a core of the wrong size, and the letter whose words it changes
    "touchard_split": (_touchard_split_dropping_a_pair, "U"),
    "motzkin_split": (_motzkin_split_dropping_a_red, "R"),
}


@pytest.mark.parametrize("name", CORE_SIZE_FAULTS)
def test_round_trips_force_core_sizes(monkeypatch, name):
    # verify's census counts letters, not split cores: it relies on the round
    # trips to fail a split whose core is not as long as the word's up/down
    # letters (Touchard) or its letters other than red zeros (Motzkin).  Each
    # fault returns a valid decomposition, so only its round trip can fail it.
    fault, letter = CORE_SIZE_FAULTS[name]
    real_split = touchard_split if name == "touchard_split" else motzkin_split
    for cpus in (1, 2):
        with monkeypatch.context() as patch:
            patch.setattr(f"touchard.verify.{name}", fault)
            checks = catalogue("roundtrip", max_roundtrip_len=4, cpus=cpus)
        assert all(check.ok for check in checks if check.record["bijection"] != name)
        for check in (check for check in checks if check.record["bijection"] == name):
            first = next((u for u in enumerate_g(check.record["n"]) if letter in u.text), None)
            assert check.ok is check.record["ok"] is (first is None)
            assert check.counterexample == (None if first is None else first.text)
            if first is not None:
                assert check.record["counterexample"] == first.text
                assert len(fault(first).core) != len(real_split(first).core)
