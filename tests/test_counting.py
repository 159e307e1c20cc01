"""Catalan and Motzkin numbers, the two identity evaluators, and the G-word census."""

import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from math import comb

import pytest

from touchard import (
    IdentityReport,
    catalan,
    enumerate_g,
    enumerate_motzkin,
    motzkin_count,
    motzkin_rhs,
    touchard_rhs,
)
from touchard.counting import g_census


def segner(limit):
    """Catalan numbers by the pairwise convolution C_n = sum C_i C_{n-1-i}."""
    values = [1]
    for n in range(1, limit + 1):
        values.append(sum(values[i] * values[n - 1 - i] for i in range(n)))
    return values


def motzkin_by_first_return(limit):
    """Motzkin numbers by the first-return convolution
    M_{m+1} = M_m + sum_{i<m} M_i M_{m-1-i}: a nonempty word either
    starts flat or opens an arch closed at its first return to ground."""
    values = [1]
    for m in range(limit):
        values.append(values[m] + sum(values[i] * values[m - 1 - i] for i in range(m)))
    return values


def test_catalan_values():
    assert catalan(0) == 1
    assert catalan(4) == 14
    assert catalan(30) == 3814986502092304


def test_catalan_against_convolution_oracle():
    assert [catalan(n) for n in range(31)] == segner(30)


def test_catalan_rejects_negative():
    with pytest.raises(ValueError):
        catalan(-1)


def test_motzkin_values():
    assert motzkin_count(0) == 1
    assert motzkin_count(3) == 4
    assert motzkin_count(7) == 127


def test_motzkin_matches_enumeration():
    for k in range(15):
        assert motzkin_count(k) == sum(1 for _ in enumerate_motzkin(k))


def test_motzkin_against_first_return_oracle():
    assert [motzkin_count(k) for k in range(301)] == motzkin_by_first_return(300)


def test_motzkin_at_large_k_against_the_last_summand():
    # binom(k, k) M_k, the last summand of motzkin_rhs(k), comes from the
    # summand recurrence rather than the Motzkin one.
    for k in (1000, 2500):
        assert motzkin_count(k) == motzkin_rhs(k).per_k_terms[-1], k


def test_motzkin_count_holds_two_values():
    # M_20000 has 9,537 digits, about 4 KB; a table of M_0..M_20000 would
    # hold about 43 MB.
    tracemalloc.start()
    try:
        motzkin_count(20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_motzkin_rejects_negative():
    with pytest.raises(ValueError):
        motzkin_count(-1)


def test_motzkin_table_is_thread_safe():
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(motzkin_count, [300] * 16))
    assert len(set(results)) == 1


def test_touchard_rhs_examples():
    report = touchard_rhs(3)
    assert report.per_k_terms == (8, 6)
    assert report.rhs == 14
    assert report.lhs == 14
    assert report.holds
    degenerate = touchard_rhs(0)
    assert degenerate.per_k_terms == (1,)
    assert degenerate.lhs == catalan(1) == 1
    assert degenerate.holds


def test_motzkin_rhs_examples():
    report = motzkin_rhs(3)
    assert report.per_k_terms == (1, 3, 6, 4)
    assert report.rhs == 14
    assert report.holds


def test_identities_hold():
    for n in range(101):
        for report in (touchard_rhs(n), motzkin_rhs(n)):
            assert report.holds
            assert report.lhs == catalan(n + 1)
            assert report.rhs == sum(report.per_k_terms)


def reference_touchard_terms(n):
    """The summands by their closed form, each from scratch."""
    return tuple(comb(n, 2 * k) * 2 ** (n - 2 * k) * catalan(k) for k in range(n // 2 + 1))


def reference_motzkin_terms(n, motzkin):
    """The summands by their closed form, given M_0 .. M_n in ``motzkin``."""
    return tuple(comb(n, k) * motzkin[k] for k in range(n + 1))


def test_recurrence_terms_equal_closed_forms():
    # The ratio recurrences against the closed forms they replace, summand by
    # summand: exhaustively to n = 500, then at a few large n.
    motzkin = [1, 1]  # M_0 .. M_2000 in one pass of (m + 2) M_m = (2m + 1) M_{m-1} + 3(m - 1) M_{m-2}
    for m in range(2, 2001):
        motzkin.append(((2 * m + 1) * motzkin[-1] + 3 * (m - 1) * motzkin[-2]) // (m + 2))
    for n in [*range(501), 1000, 2000]:
        assert touchard_rhs(n).per_k_terms == reference_touchard_terms(n), n
        assert motzkin_rhs(n).per_k_terms == reference_motzkin_terms(n, motzkin), n


def test_report_stores_its_terms_as_a_tuple():
    report = IdentityReport(1, 2, [2])
    assert report.per_k_terms == (2,)
    assert repr(report) == "IdentityReport(n=1, lhs=2, rhs=2, per_k_terms=(2,), holds=True)"
    assert hash(report) == hash(IdentityReport(1, 2, (2,)))
    assert IdentityReport(3, 14, iter([8, 6])).holds
    assert type(touchard_rhs(5).per_k_terms) is type(motzkin_rhs(5).per_k_terms) is tuple


def test_report_line_format():
    assert touchard_rhs(3).format_line() == "n=3 lhs=14 rhs=14 holds=true terms=8,6"
    assert touchard_rhs(0).format_line() == "n=0 lhs=1 rhs=1 holds=true terms=1"
    broken = IdentityReport(1, 2, (3,))
    assert broken.format_line() == "n=1 lhs=2 rhs=3 holds=false terms=3"


def test_terms_match_exhaustive_census():
    # Tie each summand to the class of words it counts.
    for n in range(7):
        by_updown = [0] * (n // 2 + 1)
        by_reds = [0] * (n + 1)
        for word in enumerate_g(n):
            nonzero = word.text.count("U") + word.text.count("D")
            reds = word.text.count("R")
            by_updown[nonzero // 2] += 1
            by_reds[reds] += 1
        assert tuple(by_updown) == touchard_rhs(n).per_k_terms
        # motzkin term k counts words with n-k red zeros
        assert tuple(by_reds[n - k] for k in range(n + 1)) == motzkin_rhs(n).per_k_terms


def test_g_census_counts_g_words_by_each_letter():
    # The table's rows against the enumerated words, for every letter and for the Motzkin split's kept letters.
    for letters in (*"UGRD", "UGD"):
        rows = list(g_census(7, letters))
        assert len(rows) == 8
        for n, row in enumerate(rows):
            counts = Counter(sum(map(word.text.count, letters)) for word in enumerate_g(n))
            assert row == [counts[c] for c in range(max(counts) + 1)]


def test_g_census_rows_are_the_identity_terms_to_200():
    ups, reds, kept = (list(g_census(200, letters)) for letters in ("U", "R", "UGD"))
    for n in range(201):
        assert tuple(ups[n]) == touchard_rhs(n).per_k_terms
        assert tuple(reversed(reds[n])) == motzkin_rhs(n).per_k_terms
        assert tuple(kept[n]) == motzkin_rhs(n).per_k_terms
    # a shorter pass gives the same rows
    assert list(g_census(9, "U")) == ups[:10]


def test_g_census_rejects_a_negative_bound():
    with pytest.raises(ValueError, match="max_n must be a non-negative int, not -1"):
        next(g_census(-1, "U"))


def test_rhs_reject_negative():
    with pytest.raises(ValueError):
        touchard_rhs(-1)
    with pytest.raises(ValueError):
        motzkin_rhs(-1)
