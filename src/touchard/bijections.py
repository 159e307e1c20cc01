"""Invertible maps between Dyck words and bicolored Motzkin words.

Composing the two core maps shows that G-words of length n are counted
by C_{n+1}:

* ``pair_encode`` reads a Dyck word two letters at a time and emits one
  bicolored letter per pair (UU -> U, UD -> G, DU -> R, DD -> D).  Its
  image is exactly the restricted words: a red zero comes from a pair
  that starts with a down-step, which forces the path strictly above
  ground just before it.
* ``drop_restriction`` removes the restriction by deleting a final
  green zero, or, when the word ends with a down-step, by replacing the
  opener of the last arch with a red zero at ground level and deleting
  the closing down-step.  ``raise_restriction`` inverts it; the red
  zero inserted this way is the first ground-level red zero, which is
  why the inverse targets the first violation.

``touchard_split``/``touchard_merge`` and ``motzkin_split``/
``motzkin_merge`` decompose a G-word by the positions of its up/down
letters (leaving a Dyck core plus a color choice per zero slot) or by
the positions of its red zeros (leaving a Motzkin core).  Counting the
decompositions class by class yields

    C_{n+1} = sum_k binom(n, 2k) 2^(n-2k) C_k   and
    C_{n+1} = sum_k binom(n, k) M_k.

All maps are pure and work on the words' text.  Each checks the class of
its input: a word of another family raises WordError, and a merge given
anything but its own decomposition type raises InvalidDecomposition.
They build their outputs through the trusted constructor of ``words``
without re-checking them: each docstring gives the reason the output is
valid, and ``touchard verify`` checks it on every word up to its bound.
Decompositions check their structure, core class included, whenever
they are built.  Position indices in decompositions and in their line
formats are 1-based.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import add, ge
from typing import Iterable

from .words import (
    STEP,
    DyckWord,
    GWord,
    MotzkinWord,
    RestrictedGWord,
    WordError,
    validate_dyck,
    validate_motzkin,
)


class InvalidDecomposition(ValueError):
    """A decomposition's fields are structurally inconsistent."""


def _wrong_input(expected: type, given: object, error: type[ValueError] = WordError) -> ValueError:
    """The error for a map given ``given`` where it takes an ``expected`` value."""
    return error(f"expected a {expected.__name__}, not a {type(given).__name__}")


_PAIR_TO_LETTER = {"UU": "U", "UD": "G", "DU": "R", "DD": "D"}
_LETTER_TO_PAIR = str.maketrans({letter: pair for pair, letter in _PAIR_TO_LETTER.items()})


def pair_encode(word: DyckWord) -> RestrictedGWord:
    """Compress a Dyck word of semilength m into a restricted word of length m.

    Letter i of the output encodes the pair (letters 2i-1, 2i) of the
    input.  The output prefix sums are half the input's even-position
    prefix sums, so the result is again balanced and non-negative, and
    every red zero lands strictly above ground level.
    """
    if not isinstance(word, DyckWord):
        raise _wrong_input(DyckWord, word)
    text = word.text
    if not text:
        raise ValueError("pair encoding needs at least one letter pair")
    pairs = map(add, text[::2], text[1::2])
    return RestrictedGWord._trusted("".join(map(_PAIR_TO_LETTER.__getitem__, pairs)))


def pair_decode(word: RestrictedGWord) -> DyckWord:
    """Expand each bicolored letter back into its two-letter Dyck block."""
    if not isinstance(word, RestrictedGWord):
        raise _wrong_input(RestrictedGWord, word)
    return DyckWord._trusted(word.text.translate(_LETTER_TO_PAIR))


def drop_restriction(word: RestrictedGWord) -> GWord:
    """Shorten a restricted word by one letter, forgetting the restriction.

    If the word ends with a green zero, chop it.  Otherwise the last
    letter is a down-step (an up-step would unbalance the word and a
    final red zero would sit at ground level): replace the up-step that
    opens the last arch with a red zero and delete the final down-step.
    That red zero lands at ground level, ahead of any other ground-level
    red zero in the result.
    """
    if not isinstance(word, RestrictedGWord):
        raise _wrong_input(RestrictedGWord, word)
    text = word.text
    if text[-1] == "G":
        return GWord._trusted(text[:-1])
    # Walk back from the final down-step: ``depth``, the height before
    # letter ``cut``, first returns to zero at the up-step opening the last arch.
    depth = 0
    cut = len(text) - 1
    while True:
        depth -= STEP[text[cut]]
        if depth == 0:
            break
        cut -= 1
    return GWord._trusted(text[:cut] + "R" + text[cut + 1 : -1])


def raise_restriction(word: GWord) -> RestrictedGWord:
    """Lengthen a G-word by one letter so the red-zero restriction holds.

    If no red zero sits at ground level, append a green zero.  Otherwise
    replace the first ground-level red zero with an up-step and append a
    down-step, rebuilding the arch that ``drop_restriction`` removed.
    """
    if not isinstance(word, GWord):
        raise _wrong_input(GWord, word)
    text = word.text
    height = 0
    start = 0
    red = text.find("R")
    while red >= 0:
        height += text.count("U", start, red) - text.count("D", start, red)
        if height == 0:
            return RestrictedGWord._trusted(text[:red] + "U" + text[red + 1 :] + "D")
        start = red
        red = text.find("R", red + 1)
    return RestrictedGWord._trusted(text + "G")


def catalan_to_g(word: DyckWord) -> GWord:
    """drop_restriction after pair_encode: C_{n+1} onto G-words of length n."""
    return drop_restriction(pair_encode(word))


def g_to_catalan(word: GWord) -> DyckWord:
    """pair_decode after raise_restriction: inverse of ``catalan_to_g``."""
    return pair_decode(raise_restriction(word))


# The one type a position may have (``bool`` is an int subclass, not a position)
# and the one a color may have, tested with ``issuperset(map(type, ...))`` so the
# checks stay in C.
_INT_ONLY = frozenset((int,))
_BOOL_ONLY = frozenset((bool,))


def _check_slots(positions: tuple[int, ...], n: int, name: str) -> None:
    """Raise InvalidDecomposition unless ``positions`` are ints increasing strictly within 1..n.

    A position of another type (``bool`` included) is reported first, then an
    out-of-range position, then a misordered one.
    """
    if not positions:
        return
    if not _INT_ONLY.issuperset(map(type, positions)):
        raise InvalidDecomposition(f"{name} must be ints")
    if positions[0] >= 1 and positions[-1] <= n and not any(map(ge, positions, positions[1:])):
        return
    if min(positions) < 1 or max(positions) > n:
        raise InvalidDecomposition(f"{name} must lie in 1..{n}")
    raise InvalidDecomposition(f"{name} must be strictly increasing")


@dataclass(frozen=True, init=False)
class TouchardDecomposition:
    """A G-word split by the support of its up/down letters.

    ``positions`` lists the 1-based slots of the 2k up/down letters,
    ``core`` is the Dyck word they spell, and ``colors`` the color of
    each remaining zero slot in position order (a bool, True = red).
    ``n``, the number of slots they fill, is len(positions) + len(colors).
    There are binom(n, 2k) * C_k * 2^(n-2k) decompositions with |positions| = 2k.
    """

    n: int
    positions: tuple[int, ...]
    core: DyckWord
    colors: tuple[bool, ...]

    def __init__(self, positions: Iterable[int], core: DyckWord, colors: Iterable[bool]) -> None:
        positions = tuple(positions)
        colors = tuple(colors)
        if not isinstance(core, DyckWord):
            raise InvalidDecomposition(f"the core must be a DyckWord, not a {type(core).__name__}")
        if not _BOOL_ONLY.issuperset(map(type, colors)):
            raise InvalidDecomposition("colors must be bools")
        if len(positions) != len(core):
            raise InvalidDecomposition("positions must hold one slot per core letter")
        n = len(positions) + len(colors)
        _check_slots(positions, n, "positions")
        # One write past the frozen __setattr__, instead of one call per field.
        self.__dict__.update(n=n, positions=positions, core=core, colors=colors)


@dataclass(frozen=True, init=False)
class MotzkinDecomposition:
    """A G-word split by the support of its red zeros.

    ``red_positions`` lists the 1-based slots of the n-k red zeros and
    ``core`` is the Motzkin word left by the other letters (green zeros
    become flats).  ``n``, the number of slots they fill, is
    len(red_positions) + len(core).  There are binom(n, k) * M_k
    decompositions whose core has length k.
    """

    n: int
    red_positions: tuple[int, ...]
    core: MotzkinWord

    def __init__(self, red_positions: Iterable[int], core: MotzkinWord) -> None:
        red_positions = tuple(red_positions)
        if not isinstance(core, MotzkinWord):
            raise InvalidDecomposition(f"the core must be a MotzkinWord, not a {type(core).__name__}")
        n = len(red_positions) + len(core)
        _check_slots(red_positions, n, "red positions")
        self.__dict__.update(n=n, red_positions=red_positions, core=core)


def touchard_split(word: GWord) -> TouchardDecomposition:
    """Extract the up/down support, the Dyck core, and the zero colors.

    The core is a Dyck word: dropping zeros keeps the sequence of prefix
    sums at the remaining letters.
    """
    if not isinstance(word, GWord):
        raise _wrong_input(GWord, word)
    text = word.text
    return TouchardDecomposition(
        tuple([i for i, ch in enumerate(text, start=1) if ch in "UD"]),
        DyckWord._trusted(text.translate(_ZEROS_DELETED)),
        tuple(map("R".__eq__, text.translate(_STEPS_DELETED))),
    )


def touchard_merge(decomposition: TouchardDecomposition) -> GWord:
    """Reassemble the G-word; inverse of ``touchard_split``.

    Always yields a valid word: zeros do not move prefix sums, so the
    assembled sums are the core's sums stretched out.
    """
    if not isinstance(decomposition, TouchardDecomposition):
        raise _wrong_input(TouchardDecomposition, decomposition, InvalidDecomposition)
    steps = iter(decomposition.core.text)
    zeros = iter([_ZERO_OF_COLOR[red] for red in decomposition.colors])
    slots = set(decomposition.positions)
    return GWord._trusted(
        "".join([next(steps) if i in slots else next(zeros) for i in range(1, decomposition.n + 1)])
    )


_ZEROS_DELETED = str.maketrans("", "", "GR")
_STEPS_DELETED = str.maketrans("", "", "UD")
_ZERO_OF_COLOR = {False: "G", True: "R"}
_G_TO_MOTZKIN = str.maketrans({"R": None, "G": "H"})
_MOTZKIN_TO_G = str.maketrans("H", "G")


def motzkin_split(word: GWord) -> MotzkinDecomposition:
    """Record the red-zero slots and read the rest as a Motzkin word.

    Deleting red zeros keeps the prefix sums at the other letters, so
    the core is a Motzkin word.
    """
    if not isinstance(word, GWord):
        raise _wrong_input(GWord, word)
    text = word.text
    return MotzkinDecomposition(
        tuple([i for i, ch in enumerate(text, start=1) if ch == "R"]),
        MotzkinWord._trusted(text.translate(_G_TO_MOTZKIN)),
    )


def motzkin_merge(decomposition: MotzkinDecomposition) -> GWord:
    """Reinsert the red zeros into the Motzkin core; inverse of ``motzkin_split``.

    Red zeros leave prefix sums unchanged, so the merge of any valid
    decomposition is a valid G-word.
    """
    if not isinstance(decomposition, MotzkinDecomposition):
        raise _wrong_input(MotzkinDecomposition, decomposition, InvalidDecomposition)
    core = iter(decomposition.core.text.translate(_MOTZKIN_TO_G))
    reds = set(decomposition.red_positions)
    return GWord._trusted(
        "".join(["R" if i in reds else next(core) for i in range(1, decomposition.n + 1)])
    )


_TOUCHARD_LINE = re.compile(r"positions=\[((?:[0-9]+(?:,[0-9]+)*)?)\];core=(\w*);colors=([01]*)")
_MOTZKIN_LINE = re.compile(r"red=\[((?:[0-9]+(?:,[0-9]+)*)?)\];core=(\w*)")


def _parse_positions(text: str, other_slots: int) -> tuple[int, ...]:
    """The positions field of a line whose word has ``other_slots`` more slots.

    No position exceeds n, the number of slots.  A field that keeps more than len(str(n)) digits
    after its leading zeros reads as n + 1, failing the same range check without a conversion
    whose time grows with the square of its length.
    """
    fields = [p.lstrip("0") or "0" for p in text.split(",")] if text else []
    n = len(fields) + other_slots
    width = len(str(n))
    return tuple([int(p) if len(p) <= width else n + 1 for p in fields])


def format_touchard_decomposition(decomposition: TouchardDecomposition) -> str:
    """One-line form ``positions=[i,j,...];core=<word>;colors=<bits>``."""
    positions = ",".join(str(p) for p in decomposition.positions)
    colors = "".join("1" if c else "0" for c in decomposition.colors)
    return f"positions=[{positions}];core={decomposition.core};colors={colors}"


def parse_touchard_decomposition(line: str) -> TouchardDecomposition:
    match = _TOUCHARD_LINE.fullmatch(line)
    if match is None:
        raise InvalidDecomposition(f"cannot parse decomposition line {line!r}")
    colors = tuple(bit == "1" for bit in match.group(3))
    positions = _parse_positions(match.group(1), len(colors))
    core = validate_dyck(match.group(2))
    return TouchardDecomposition(positions, core, colors)


def format_motzkin_decomposition(decomposition: MotzkinDecomposition) -> str:
    """One-line form ``red=[i,...];core=<word>``."""
    reds = ",".join(str(p) for p in decomposition.red_positions)
    return f"red=[{reds}];core={decomposition.core}"


def parse_motzkin_decomposition(line: str) -> MotzkinDecomposition:
    match = _MOTZKIN_LINE.fullmatch(line)
    if match is None:
        raise InvalidDecomposition(f"cannot parse decomposition line {line!r}")
    red_positions = _parse_positions(match.group(1), len(match.group(2)))
    core = validate_motzkin(match.group(2))
    return MotzkinDecomposition(red_positions, core)
