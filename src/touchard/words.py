"""Validated lattice-path words: Dyck, bicolored Motzkin, and Motzkin.

Four word families over letters valued in {+1, 0, -1}:

* ``DyckWord``: up/down letters summing to zero with non-negative prefix
  sums.  Words of semilength n are counted by the Catalan number C_n.
* ``GWord``: a bicolored Motzkin word.  The zero-valued letter comes in
  two colors, green and red; the same balance conditions apply.  There
  are C_{n+1} words of length n.
* ``RestrictedGWord``: a GWord in which every red zero sits strictly
  above ground level (the prefix sum before each red zero is positive).
  These words have at least one letter.
* ``MotzkinWord``: up/flat/down letters, counted by Motzkin numbers.

A word is an immutable value holding its text, one character per letter
('U' up, 'D' down, 'G' green zero, 'R' red zero, 'H' flat).  The same
encoding is the CLI's: one word per line, the empty line being the
empty word.

Validation happens once, at the public boundary, whatever Python's
``-O`` setting: the ``validate_*`` functions and the public constructors
(``DyckWord("UD")``, ``GWord("URD")``, ...) take text only, check it and
raise the typed errors below; input that is not a ``str`` raises
BadAlphabet.  The check is one pass in one frame (``Word._check``): one
``str.translate`` finds the letters outside the family, unknown
characters among them raise first, and the walk over the heights stops
at the first such letter, so a dip before it is named and one after it
is not.  The enumerators, the sampler and the maps of
``bijections`` build their outputs through the private ``_trusted``
constructor, which checks nothing; code that builds words that way owns
their validity, and ``touchard verify`` checks the maps' outputs
explicitly.

``Word.letters`` and ``parse_letters`` are text views, kept only for the
benchmark's tracer (``bench/tracer.py``), which wraps ``parse_letters`` and
counts a map's input with ``Word.letters``; nothing in the package reads them.

Enumeration is lexicographic under the letter order of each class's
alphabet: U < D for Dyck words, U < G < R < D for G-words and
restricted words, U < H < D for Motzkin words.  The order is fixed so
golden outputs are stable.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain
from operator import mod
from typing import ClassVar, Iterable, Iterator

STEP = {"U": +1, "G": 0, "R": 0, "D": -1, "H": 0}
_UNKNOWN = str.maketrans(dict.fromkeys(STEP))  # deletes every known symbol


class WordError(ValueError):
    """A letter sequence violates the invariants of a word family."""


class BadAlphabet(WordError):
    """A letter (or input character) outside the family's alphabet."""


class NotBalanced(WordError):
    """The letters do not sum to zero."""


class NegativePrefix(WordError):
    """Some prefix sum dips below zero."""


class RedZeroAtGroundLevel(WordError):
    """A red zero whose preceding prefix sum is zero, in a restricted word."""


def _first_ground_red(text: str) -> int:
    """The index of the first red zero at ground level in a G-word's text, or -1."""
    height = 0
    start = 0
    red = text.find("R")
    while red >= 0:
        height += text.count("U", start, red) - text.count("D", start, red)
        if height == 0:
            break
        start = red
        red = text.find("R", red + 1)
    return red


@dataclass(frozen=True, init=False, repr=False)
class Word:
    """Shared behavior of the validated word types.

    ``Word(text)`` takes the word's text and checks the family's
    invariants; ``text`` is the word's text.  Equality (same class, same
    text), hashing and immutability come from the frozen dataclass.
    """

    __slots__ = ("text",)  # declared, not dataclass(slots=True): see TouchardDecomposition
    text: str
    _alphabet: ClassVar[str]  # the family's letters, in enumeration order
    _family: ClassVar[str]  # the family's name in error messages
    _foreign: ClassVar[dict[int, None]]  # a str.translate table deleting the family's letters

    def __init__(self, text: str) -> None:
        self._check(text)
        _set_text(self, text)

    def __init_subclass__(cls) -> None:
        cls._foreign = str.maketrans(dict.fromkeys(cls._alphabet))

    @classmethod
    def _trusted(cls, text: str):
        """A word of this family from text the caller guarantees is valid."""
        word = _new(cls)
        _set_text(word, text)
        return word

    @classmethod
    def _check(cls, text: str) -> None:
        """Raise the first fault of ``text`` as a word of this family.

        In order: not a ``str``; an unknown character anywhere; then the
        earlier by position of a dip below zero and a letter of another
        family; then imbalance.  The letters outside the family come from
        one ``translate``, so the walk over the heights, up to the first
        such letter, tests no letter's alphabet.
        """
        if not isinstance(text, str):
            raise BadAlphabet(f"expected a word's text, not a {type(text).__name__}")
        foreign = text.translate(cls._foreign)
        if foreign:
            unknown = foreign.translate(_UNKNOWN)
            if unknown:
                raise BadAlphabet(f"unknown letter {unknown[0]!r}")
            text = text[: text.index(foreign[0])]  # the letters before the first foreign one
        height = 0
        for ch in text:
            height += STEP[ch]
            if height < 0:
                position = list(accumulate(map(STEP.__getitem__, text))).index(-1) + 1
                raise NegativePrefix(f"prefix sum falls below zero at position {position}")
        if foreign:
            raise BadAlphabet(f"{cls._family} word may not contain {foreign[0]!r} (position {len(text) + 1})")
        if height != 0:
            raise NotBalanced(f"letters sum to {height}, not zero")

    @property
    def letters(self) -> str:
        """The word's text: a read-only view for the benchmark's tracer."""
        return self.text

    def __len__(self) -> int:
        return len(self.text)

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.text!r})"

    def __reduce__(self):
        return type(self), (self.text,)


_new = object.__new__
_set_text = Word.text.__set__  # the slot's own setter, past the frozen __setattr__


class DyckWord(Word):
    """A balanced up/down word whose prefix sums stay non-negative."""

    __slots__ = ()
    _alphabet = "UD"
    _family = "Dyck"

    @property
    def semilength(self) -> int:
        return len(self.text) // 2


class GWord(Word):
    """A bicolored Motzkin word (zero letters colored green or red)."""

    __slots__ = ()
    _alphabet = "UGRD"
    _family = "bicolored Motzkin"


class RestrictedGWord(GWord):
    """A GWord whose red zeros all sit strictly above ground level."""

    __slots__ = ()

    @classmethod
    def _check(cls, text: str) -> None:
        super()._check(text)
        if not text:
            raise WordError("a restricted word has at least one letter")
        red = _first_ground_red(text)
        if red >= 0:
            raise RedZeroAtGroundLevel(f"red zero at position {red + 1} sits at ground level")


class MotzkinWord(Word):
    """An up/flat/down word, balanced with non-negative prefix sums."""

    __slots__ = ()
    _alphabet = "UHD"
    _family = "Motzkin"


def validate_dyck(text: str) -> DyckWord:
    """Check the Dyck invariants of a word's text and wrap it.

    Raises BadAlphabet (also for input that is not a ``str``),
    NegativePrefix, or NotBalanced.
    """
    return DyckWord(text)


def validate_g(text: str) -> GWord:
    """Validate the text of a bicolored Motzkin word."""
    return GWord(text)


def validate_g_restricted(text: str) -> RestrictedGWord:
    """Validate the text of a restricted word; also raises RedZeroAtGroundLevel."""
    return RestrictedGWord(text)


def validate_motzkin(text: str) -> MotzkinWord:
    """Validate the text of a Motzkin word."""
    return MotzkinWord(text)


def parse_letters(text: str) -> str:
    """``text`` if it is a ``str`` of U/D/G/R/H symbols; BadAlphabet on anything else."""
    if not isinstance(text, str):
        raise BadAlphabet(f"expected a word's text, not a {type(text).__name__}")
    unknown = text.translate(_UNKNOWN)
    if unknown:
        raise BadAlphabet(f"unknown letter {unknown[0]!r}")
    return text


_TAIL_WORDS = 4096  # the most completions _paths tabulates


def _completions(length: int, alphabet: str, ground_red_ok: bool) -> tuple[int, list[list[str]]]:
    """(tail, table): table[h] holds every completion of ``tail`` letters from height h, in alphabet order.

    The tail grows one letter at a time, up to ``length``, while the table
    would hold at most ``_TAIL_WORDS`` words; only its last level is kept.
    """
    tail, table = 0, [[""]]
    while tail < length:
        # From height h, each letter leads to the completions one letter shorter from its own height.
        grown = [
            [(ch, table[h + STEP[ch]]) for ch in alphabet
             if 0 <= h + STEP[ch] <= tail and (ground_red_ok or h or ch != "R")]
            for h in range(tail + 2)
        ]
        if sum(len(rests) for firsts in grown for _, rests in firsts) > _TAIL_WORDS:
            break
        table = [[ch + rest for ch, rests in firsts for rest in rests] for firsts in grown]
        tail += 1
    return tail, table


def _paths(length: int, alphabet: str, ground_red_ok: bool = True) -> Iterator[str]:
    """Balanced non-negative words of ``length`` letters, in ``alphabet``'s lexicographic order.

    A height h with r letters left can be completed iff 0 <= h <= r (r-h
    is always even for Dyck words), and restricted words
    (``ground_red_ok`` false) also refuse a red zero at height 0.  The
    last letters come from a table built per call (``_completions``):
    every word with a given head, the first ``length - tail`` letters, is
    that head followed by each completion of the head's height in turn.
    Each head is the successor of the last: its last letter that can grow
    is changed to the next letter that keeps the word completable, and the
    head goes on straight down the smallest completion from there.  Memory
    is O(length) plus at most ``_TAIL_WORDS`` table words.
    """
    tail, table = _completions(length, alphabet, ground_red_ok)
    head = length - tail
    later = {ch: alphabet[i + 1 :] for i, ch in enumerate(alphabet)}
    zero = alphabet[1]  # the smallest level letter; a Dyck completion never needs one

    def smallest(start: int, height: int) -> tuple[str, int]:
        """The head's letters from index ``start`` on, of the smallest word at ``height`` there, and their end height."""
        ups, odd = divmod(length - start - height, 2)
        letters = ("U" * ups + zero * odd + "D" * (height + ups))[: head - start]
        return letters, height + letters.count("U") - letters.count("D")

    text, height = smallest(0, 0)
    while True:
        yield from map(text.__add__, table[height])
        i = len(text.rstrip("D"))  # a last down-step never grows
        height += head - i  # the height after text[:i]
        grown = []
        while not grown:
            if not i:
                return
            i -= 1
            height -= STEP[text[i]]  # now the height before text[i]
            grown = [ch for ch in later[text[i]]
                     if 0 <= height + STEP[ch] < length - i and (ground_red_ok or height or ch != "R")]
        rest, height = smallest(i + 1, height + STEP[grown[0]])
        text = text[:i] + grown[0] + rest


def _size(n: int, what: str) -> None:
    if type(n) is not int or n < 0:
        raise ValueError(f"{what} must be a non-negative int, not {n!r}")


def _texts(cls: type[Word], size: int) -> Iterator[str]:
    """The texts of ``cls``'s words of ``size`` letters (for DyckWord, the semilength), in enumeration order.

    Checks ``size`` at once; the Dyck doubling and the restricted words' rules live here alone.
    """
    _size(size, "semilength" if cls is DyckWord else "length")
    if cls is DyckWord:
        return _paths(2 * size, cls._alphabet)
    if cls is RestrictedGWord:
        return _paths(size, cls._alphabet, ground_red_ok=False) if size else iter(())
    return _paths(size, cls._alphabet)


def enumerate_dyck(n: int) -> Iterator[DyckWord]:
    """All Dyck words of semilength n, lexicographically (U before D).

    Yields catalan(n) words.
    """
    yield from map(DyckWord._trusted, _texts(DyckWord, n))


def enumerate_g(n: int) -> Iterator[GWord]:
    """All bicolored Motzkin words of length n, lexicographically.

    Yields catalan(n + 1) words.
    """
    yield from map(GWord._trusted, _texts(GWord, n))


def enumerate_g_restricted(length: int) -> Iterator[RestrictedGWord]:
    """All restricted words with ``length`` letters, lexicographically.

    Yields catalan(length) words; the stream is empty for length 0
    because restricted words are never empty.
    """
    yield from map(RestrictedGWord._trusted, _texts(RestrictedGWord, length))


def enumerate_motzkin(k: int) -> Iterator[MotzkinWord]:
    """All Motzkin words of length k, lexicographically (U < H < D)."""
    yield from map(MotzkinWord._trusted, _texts(MotzkinWord, k))


_SPAN64 = 1 << 64  # the number of 64-bit outputs
_MASK64 = _SPAN64 - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's state increment
_CHUNK = 2048  # outputs per lane computation in SplitMix64.below_each
_LOW_HALVES = slice(None, None, 2 if sys.byteorder == "little" else -2)  # of lanes as array("Q")


def _mix(z: int, mask: int) -> int:
    """SplitMix64's output function on each 64-bit lane of z, 128 bits apart; ``mask`` is 2**64 - 1 in each."""
    # A lane's product fits in its 128 bits; the mask before it drops the shift's carry from the lane above.
    z = (((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9) & mask
    z = (((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


@cache
def _lane_constants() -> tuple[int, int, int]:
    """k·_GAMMA mod 2**64, 1 and 2**64 - 1 in lanes k - 1 = 0.._CHUNK - 1."""
    steps = b"".join((k * _GAMMA & _MASK64).to_bytes(16, "little") for k in range(1, _CHUNK + 1))
    ones = int.from_bytes((b"\x01" + bytes(15)) * _CHUNK, "little")
    return int.from_bytes(steps, "little"), ones, ones * _MASK64


class SplitMix64:
    """SplitMix64: a small fixed 64-bit generator.

    The output sequence depends only on the 64-bit seed, so sampled
    words are reproducible across platforms and Python versions.  From
    state s the i-th output is mix(s + i·_GAMMA): ``below_each`` computes a
    chunk of them as lanes of one integer, and keeps ``below``'s draws.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        if type(seed) is not int:
            raise ValueError(f"seed must be an int, not {seed!r}")
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = state = (self._state + _GAMMA) & _MASK64
        return _mix(state, _MASK64)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), rejection-sampled (no modulo bias)."""
        if type(bound) is not int:
            raise ValueError(f"bound must be an int, not {bound!r}")
        if not 0 < bound <= _SPAN64:
            raise ValueError("bound must lie in 1..2**64")
        limit = _SPAN64 - _SPAN64 % bound
        while True:
            draw = self.next_uint64()
            if draw < limit:
                return draw % bound

    def below_each(self, bounds: Iterable[int]) -> Iterator[int]:
        """``below(b)`` for each b of ``bounds`` in turn, leaving the state where those calls would.

        A ``range`` is drawn up to ``_CHUNK`` outputs at a time, as lanes of one
        integer; any other iterable is ``map(self.below, bounds)``.  A slice of a
        range has exact-int bounds, and its ends are its smallest and largest.  If
        they lie in 1..2**64 and adding the largest less one to every lane's output d
        carries into no lane's bit 64, then every d + b <= 2**64, which ``below``
        accepts, and the slice is handed out as one list of d % b.  Otherwise it is
        ``map(self.below, chunk)``, drawn lazily, so the values before a bad bound
        still come out before its error.
        """
        if type(bounds) is not range:
            return map(self.below, bounds)
        return chain.from_iterable(self._chunks(bounds))

    def _chunks(self, bounds: range) -> Iterator[Iterable[int]]:
        """``below_each``'s values for a range, one iterable per slice of up to ``_CHUNK`` bounds."""
        from array import array  # not at import: touchard.cli's start-up never needs it
        steps, ones, masks = _lane_constants()
        for i in range(0, len(bounds), _CHUNK):
            chunk = bounds[i : i + _CHUNK]
            low, high = sorted((chunk[0], chunk[-1]))
            if 0 < low and high <= _SPAN64:
                mask = masks & ((1 << 128 * len(chunk)) - 1)  # 2**64 - 1 in each of the chunk's lanes
                one = ones & mask
                z = _mix(((steps & mask) + self._state * one) & mask, mask) & mask
                if not (z + (high - 1) * one) >> 64 & mask:  # no lane carries: every d + high <= 2**64
                    self._state = (self._state + len(chunk) * _GAMMA) & _MASK64
                    yield list(map(mod, array("Q", z.to_bytes(16 * len(chunk), sys.byteorder))[_LOW_HALVES], chunk))
                    continue
            yield map(self.below, chunk)


def _shuffled_dyck(n: int, indices: Iterable[int]) -> str:
    """The Dyck text of semilength n that one Fisher-Yates shuffle gives by the cycle lemma.

    ``indices`` are the shuffle's swap indices, j <= i for i = 2n down to 1.
    The shuffle permutes n+1 up-steps and n down-steps.  Of the 2n+1
    rotations of that word exactly one keeps every proper prefix sum
    strictly positive (it starts just after the last minimum of the prefix
    sums).  Dropping its leading up-step leaves a Dyck word, and each Dyck
    word arises from exactly (2n+1)!/C_n of the (2n+1)! index sequences.
    """
    steps = ["U"] * (n + 1) + ["D"] * n
    for i, j in zip(range(2 * n, 0, -1), indices):
        steps[i], steps[j] = steps[j], steps[i]
    sums = list(accumulate(map(STEP.__getitem__, steps), initial=0))
    low = min(sums)
    cut = len(sums) - 1 - sums[::-1].index(low)  # just after the last minimum
    rotated = "".join(steps[cut:] + steps[:cut])
    return rotated[1:]


def sample_dyck(n: int, seed: int) -> DyckWord:
    """Uniform random Dyck word of semilength n; same seed, same word.

    The word is ``_shuffled_dyck`` of a uniform Fisher-Yates shuffle, whose
    index j for step i is one ``below(i + 1)``, drawn in chunks.  Each Dyck
    word arises from the same number of index sequences, so the output is
    exactly uniform over C_n.
    """
    _size(n, "semilength")
    return DyckWord._trusted(_shuffled_dyck(n, SplitMix64(seed).below_each(range(2 * n + 1, 1, -1))))
