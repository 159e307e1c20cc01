"""Exact big-integer evaluation of the two Catalan convolution identities.

Both right-hand sides count bicolored Motzkin words of length n, once
by the support of the up/down letters and once by the support of the
red zeros:

    C_{n+1} = sum_{k=0}^{n/2} binom(n, 2k) * 2^(n-2k) * C_k
    C_{n+1} = sum_{k=0}^{n}   binom(n, k) * M_k

The summands come from ratio recurrences, each from the one or two
before it by a product of small integers and one exact division:

    t_0 = 2^n,  t_{k+1} = t_k (n-2k)(n-2k-1) / (4(k+1)(k+2))
    s_0 = 1, s_{-1} = 0,  k(k+2) s_k = (2k+1)(n-k+1) s_{k-1} + 3(n-k+1)(n-k+2) s_{k-2}

Each division is exact because its quotient is the next summand, an
integer.  ``g_census`` counts the same summands a second way, as the
words of G_n with each number of up-steps or of red zeros, from a table
of prefix counts.  Everything here is exact integer arithmetic; no
tolerances apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import zip_longest
from math import comb
from typing import Iterator

from .words import _size


def catalan(n: int) -> int:
    """n-th Catalan number, binom(2n, n) // (n + 1); the division is exact."""
    _size(n, "n")  # before the cache, where True would find catalan(1)
    return _catalan(n)


@lru_cache(maxsize=None)
def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def motzkin_count(k: int) -> int:
    """Number of Motzkin words of length k, M_k (OEIS A001006).

    Runs (m+2) M_m = (2m+1) M_{m-1} + 3(m-1) M_{m-2} up from M_0 = M_1 = 1,
    holding only the last two values.  The floor division is exact because
    its quotient M_m is an integer.
    """
    _size(k, "k")
    before, number = 1, 1
    for m in range(2, k + 1):
        before, number = number, ((2 * m + 1) * number + 3 * (m - 1) * before) // (m + 2)
    return number


@dataclass(frozen=True)
class IdentityReport:
    """One evaluation of an identity at index n.

    ``lhs`` is C_{n+1} and ``per_k_terms`` the summands of the right-hand
    side, stored as a tuple whatever iterable holds them; ``rhs`` (their
    total) and ``holds`` (lhs == rhs) are computed.
    """

    n: int
    lhs: int
    rhs: int = field(init=False)
    per_k_terms: tuple[int, ...]
    holds: bool = field(init=False)

    def __post_init__(self) -> None:
        terms = tuple(self.per_k_terms)
        rhs = sum(terms)
        # One write past the frozen __setattr__.
        self.__dict__.update(per_k_terms=terms, rhs=rhs, holds=self.lhs == rhs)

    def format_line(self) -> str:
        """Machine-readable line, e.g. ``n=3 lhs=14 rhs=14 holds=true terms=8,6``."""
        terms = ",".join(str(t) for t in self.per_k_terms)
        flag = "true" if self.holds else "false"
        return f"n={self.n} lhs={self.lhs} rhs={self.rhs} holds={flag} terms={terms}"


def touchard_rhs(n: int) -> IdentityReport:
    """Evaluate C_{n+1} against sum_k binom(n, 2k) 2^(n-2k) C_k.

    The summand t_k = binom(n, 2k) 2^(n-2k) C_k starts at t_0 = 2^n, and
    t_{k+1} = t_k (n-2k)(n-2k-1) / (4(k+1)(k+2)): the ratio of the
    binomials is (n-2k)(n-2k-1) / ((2k+1)(2k+2)), that of the Catalan
    numbers 2(2k+1) / (k+2), and the power loses a factor 4.  The floor
    division is exact because its quotient t_{k+1} is an integer.
    """
    _size(n, "n")
    term = 1 << n
    terms = [term]
    for k in range(n // 2):
        term = term * ((n - 2 * k) * (n - 2 * k - 1)) // (4 * (k + 1) * (k + 2))
        terms.append(term)
    return IdentityReport(n, catalan(n + 1), terms)


def motzkin_rhs(n: int) -> IdentityReport:
    """Evaluate C_{n+1} against sum_k binom(n, k) M_k.

    The summand s_k = binom(n, k) M_k starts at s_0 = 1 with s_{-1} = 0, and
    k(k+2) s_k = (2k+1)(n-k+1) s_{k-1} + 3(n-k+1)(n-k+2) s_{k-2}: multiply
    the Motzkin recurrence (k+2) M_k = (2k+1) M_{k-1} + 3(k-1) M_{k-2} by
    k binom(n, k) and write binom(n, k) k = binom(n, k-1)(n-k+1) and
    binom(n, k) k(k-1) = binom(n, k-2)(n-k+1)(n-k+2).  The floor division
    is exact because its quotient s_k is an integer.
    """
    _size(n, "n")
    before, term = 0, 1
    terms = [term]
    for k in range(1, n + 1):
        before, term = term, (
            (2 * k + 1) * (n - k + 1) * term + 3 * (n - k + 1) * (n - k + 2) * before
        ) // (k * (k + 2))
        terms.append(term)
    return IdentityReport(n, catalan(n + 1), terms)


_G_LETTERS = (("U", 1), ("G", 0), ("R", 0), ("D", -1))  # each G-word letter and its step in height


def g_census(max_n: int, counted: str) -> Iterator[list[int]]:
    """For n = 0, 1, ..., max_n: how many words of G_n hold c letters ``counted``, for c = 0, 1, ...

    Counts G-word prefixes one letter at a time: rows[h][c] prefixes end at
    height h with c letters ``counted``, and each letter moves a prefix by
    its step, never below 0.  The height-0 row after n letters counts G_n,
    so one pass yields every n; heights that cannot return to 0 within
    max_n letters are dropped.  A row ends at its last nonzero count: for
    ``"U"`` the touchard_rhs terms (k up-steps, term k), for ``"R"`` the
    motzkin_rhs terms reversed (r red zeros, term n - r).
    """
    _size(max_n, "max_n")
    rows = [[1]]  # the empty prefix
    yield rows[0]
    for length in range(1, max_n + 1):
        incoming = [[] for _ in range(min(length, max_n - length) + 1)]  # per height, the rows moved there
        for h, row in enumerate(rows):
            for letter, step in _G_LETTERS:
                if 0 <= h + step < len(incoming):
                    incoming[h + step].append([0, *row] if letter == counted else row)
        rows = [[sum(column) for column in zip_longest(*moved, fillvalue=0)] for moved in incoming]
        yield rows[0]
