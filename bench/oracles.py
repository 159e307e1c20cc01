"""Reference values and checks the benchmark computes without the package.

Nothing here imports ``touchard``: Catalan numbers come from
``math.comb``, Motzkin numbers from the three-term recurrence
(n+2) M_n = (2n+1) M_{n-1} + 3(n-1) M_{n-2}, and words are checked as
plain strings.  Every check is an explicit comparison (never
``assert``), so the checks also run under ``python -O``.
"""

from __future__ import annotations

import re
from math import comb

# The summands of the large identity reports are compared modulo this
# Mersenne prime, which costs a linear pass per summand instead of a
# second big multiplication.  Their exact sum is compared too.
PRIME = (1 << 61) - 1


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def motzkin_numbers(upto: int) -> list[int]:
    """M_0 .. M_upto."""
    table = [1, 1]
    for n in range(2, upto + 1):
        table.append(((2 * n + 1) * table[n - 1] + 3 * (n - 1) * table[n - 2]) // (n + 2))
    return table[: upto + 1]


def touchard_terms(n: int) -> list[int]:
    return [comb(n, 2 * k) * 2 ** (n - 2 * k) * catalan(k) for k in range(n // 2 + 1)]


def motzkin_terms(n: int, motzkin: list[int]) -> list[int]:
    return [comb(n, k) * motzkin[k] for k in range(n + 1)]


def _report_line(n: int, terms: list[int]) -> str:
    total = sum(terms)
    return f"n={n} lhs={catalan(n + 1)} rhs={total} holds=true terms={','.join(map(str, terms))}"


def verify_lines(max_identity_n: int, max_census_n: int, max_roundtrip_len: int, motzkin: list[int]) -> list[str]:
    """The exact text ``touchard verify`` must print for these bounds.

    Identity lines for n = 0..max_identity_n, four round-trip lines per
    length (their word counts follow from C_{n+1}), then two census lines
    per n whose class counts are the identity summands.
    """
    lines = []
    for n in range(max_identity_n + 1):
        lines.append("identity=touchard " + _report_line(n, touchard_terms(n)))
        lines.append("identity=motzkin " + _report_line(n, motzkin_terms(n, motzkin)))
    for n in range(max_roundtrip_len + 1):
        c = catalan(n + 1)
        for name, words in (("pair", 2 * c), ("restriction", 2 * c), ("touchard_split", c), ("motzkin_split", c)):
            lines.append(f"roundtrip={name} n={n} words={words} ok=true")
    for n in range(max_census_n + 1):
        for which, terms in (("touchard", touchard_terms(n)), ("motzkin", motzkin_terms(n, motzkin))):
            text = ",".join(map(str, terms))
            lines.append(f"census={which} n={n} counts={text} terms={text} ok=true")
    return lines


class IdentityOracle:
    """Checks identity reports for every n up to ``max_n``."""

    def __init__(self, max_n: int) -> None:
        self.motzkin = motzkin_numbers(max_n)
        self.catalan = [catalan(n) for n in range(max_n + 2)]
        p = PRIME
        fact = [1] * (max_n + 1)
        for i in range(1, max_n + 1):
            fact[i] = fact[i - 1] * i % p
        self._fact = fact
        self._inv = [pow(f, p - 2, p) for f in fact]
        self._pow2 = [pow(2, i, p) for i in range(max_n + 1)]
        self._motzkin_mod = [m % p for m in self.motzkin]
        self._catalan_mod = [c % p for c in self.catalan]

    def check(self, which: str, n: int, lhs: int, rhs: int, terms: tuple[int, ...], holds: bool, line: str) -> str | None:
        """Return None if the report and its line are right, else what is wrong."""
        expected_lhs = self.catalan[n + 1]
        if lhs != expected_lhs or rhs != expected_lhs or holds is not True:
            return f"{which} n={n}: lhs/rhs/holds differ from C_{n + 1}"
        count = n // 2 + 1 if which == "touchard" else n + 1
        if len(terms) != count or sum(terms) != expected_lhs:
            return f"{which} n={n}: summands do not add up to C_{n + 1}"
        if which == "motzkin" and terms[n] != self.motzkin[n]:
            return f"motzkin n={n}: last summand is not M_{n}"
        p, fact, inv = PRIME, self._fact, self._inv
        for k, term in enumerate(terms):
            if which == "touchard":
                j = 2 * k
                want = fact[n] * inv[j] * inv[n - j] % p * self._pow2[n - j] * self._catalan_mod[k] % p
            else:
                want = fact[n] * inv[k] * inv[n - k] % p * self._motzkin_mod[k] % p
            if term % p != want:
                return f"{which} n={n}: summand k={k} is wrong"
        text = f"n={n} lhs={expected_lhs} rhs={expected_lhs} holds=true terms={','.join(map(str, terms))}"
        if line != text:
            return f"{which} n={n}: format_line() text differs"
        return None


_G_STEP = {"U": 1, "G": 0, "R": 0, "D": -1}
_DYCK_STEP = {"U": 1, "D": -1}


def is_path(word: str, steps: dict[str, int]) -> bool:
    """True if every letter is in ``steps``, no prefix sum is negative, and the sum is 0."""
    height = 0
    for ch in word:
        step = steps.get(ch)
        if step is None:
            return False
        height += step
        if height < 0:
            return False
    return height == 0


def is_g(word: str) -> bool:
    return is_path(word, _G_STEP)


def is_dyck(word: str) -> bool:
    return is_path(word, _DYCK_STEP)


# The enumeration order U < G < R < D, mapped onto an order str comparison sees.
_G_ORDER = str.maketrans("UGRD", "abcd")


def g_sort_key(word: str) -> str:
    return word.translate(_G_ORDER)


MAP_ERROR = re.compile(r"line (\d+): ")


_PAIR_LETTER = {"UU": "U", "UD": "G", "DU": "R", "DD": "D"}
_LETTER_PAIR = {letter: pair for pair, letter in _PAIR_LETTER.items()}


def catalan_to_g(dyck: str) -> str:
    """The paper's map on strings: encode letter pairs, then drop the restriction."""
    word = "".join(_PAIR_LETTER[dyck[i : i + 2]] for i in range(0, len(dyck), 2))
    if word.endswith("G"):
        return word[:-1]
    height = 0
    cut = 0  # start of the last arch
    for i, ch in enumerate(word[:-1]):
        height += _G_STEP[ch]
        if height == 0:
            cut = i + 1
    return word[:cut] + "R" + word[cut + 1 : -1]


def g_to_catalan(word: str) -> str:
    """Inverse of ``catalan_to_g``: raise the first ground-level red zero, then decode."""
    height = 0
    for i, ch in enumerate(word):
        if ch == "R" and height == 0:
            word = word[:i] + "U" + word[i + 1 :] + "D"
            break
        height += _G_STEP[ch]
    else:
        word += "G"
    return "".join(_LETTER_PAIR[ch] for ch in word)


def touchard_line(word: str) -> str:
    positions = ",".join(str(i) for i, ch in enumerate(word, start=1) if ch in "UD")
    core = "".join(ch for ch in word if ch in "UD")
    colors = "".join("1" if ch == "R" else "0" for ch in word if ch in "GR")
    return f"positions=[{positions}];core={core};colors={colors}"


def motzkin_line(word: str) -> str:
    reds = ",".join(str(i) for i, ch in enumerate(word, start=1) if ch == "R")
    core = word.replace("R", "").replace("G", "H")
    return f"red=[{reds}];core={core}"


def ascii_rows(word: str) -> int:
    """Rows of the ASCII drawing: up-steps and flats sit on their start level, down-steps one lower."""
    height = top = 0
    for ch in word:
        step = _G_STEP[ch]
        top = max(top, height + min(step, 0))
        height += step
    return top + 1
