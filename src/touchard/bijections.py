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
They build their outputs through the trusted constructors of ``words``
and of the decompositions without re-checking them: each docstring gives
the reason the output is valid, and ``touchard verify`` checks it on
every word up to its bound, a split's structure included.  The public
decomposition constructors and the ``parse_*_decomposition`` functions
check the structure, exact core class included, whatever Python's ``-O``
setting; ``_touchard_fault`` and ``_motzkin_fault`` are those checks, and
``verify`` runs the same ones on each split it walks.  A parsed line's fields
already have their types (ints, bools, the core from ``validate_*``), so the
parsers run only the shape half, ``_touchard_shape_fault`` and
``_motzkin_shape_fault``.  Position indices
in decompositions and in their line formats are 1-based.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress
from operator import ge
from typing import Iterable

from .words import (
    STEP,
    DyckWord,
    GWord,
    MotzkinWord,
    RestrictedGWord,
    WordError,
    _first_ground_red,
    validate_dyck,
    validate_motzkin,
)


class InvalidDecomposition(ValueError):
    """A decomposition's fields are structurally inconsistent."""


def _wrong_input(expected: type, given: object, error: type[ValueError] = WordError) -> ValueError:
    """The error for a map or line function given ``given`` where it takes an ``expected`` value."""
    return error(f"expected a {expected.__name__}, not a {type(given).__name__}")


_PAIR_TO_LETTER = {"UU": "U", "UD": "G", "DU": "R", "DD": "D"}
_LETTER_TO_PAIR = str.maketrans({letter: pair for pair, letter in _PAIR_TO_LETTER.items()})
_FIRST_LANE = bytes.maketrans(b"UD", b"\0\2")  # a pair's first letter, worth 0 or 2
_SECOND_LANE = bytes.maketrans(b"UD", b"\0\1")  # its second letter, worth 0 or 1
_LANE_TO_LETTER = bytes.maketrans(b"\0\1\2\3", b"UGRD")


def pair_encode(word: DyckWord) -> RestrictedGWord:
    """Compress a Dyck word of semilength m into a restricted word of length m.

    The output's letter i encodes the pair (letters 2i-1, 2i) of the
    input.  The output prefix sums are half the input's even-position
    prefix sums, so the result is again balanced and non-negative, and
    every red zero lands strictly above ground level.

    The pairs are read as byte lanes of one integer: the first letters,
    as bytes worth 0 (U) or 2 (D), and the second letters, worth 0 or 1,
    are each read as a big-endian integer and added.  Each lane of the
    sum holds 0..3, so no carry crosses a lane, and lane i names pair i
    as 0 UU, 1 UD, 2 DU, 3 DD.  Writing the sum back with the explicit
    length keeps the leading zero lanes.
    """
    if not isinstance(word, DyckWord):
        raise _wrong_input(DyckWord, word)
    letters = word.text.encode()
    if not letters:
        raise ValueError("pair encoding needs at least one letter pair")
    lanes = int.from_bytes(letters[::2].translate(_FIRST_LANE), "big")
    lanes += int.from_bytes(letters[1::2].translate(_SECOND_LANE), "big")
    return RestrictedGWord._trusted(lanes.to_bytes(len(letters) // 2, "big").translate(_LANE_TO_LETTER).decode())


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
    red = _first_ground_red(text)
    if red >= 0:
        return RestrictedGWord._trusted(text[:red] + "U" + text[red + 1 :] + "D")
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


def _slots_fault(positions: tuple, n: int, name: str) -> str | None:
    """Why int ``positions`` do not increase strictly within 1..n, or None if they do.

    An out-of-range position is reported before a misordered one.
    """
    if not positions or positions[0] >= 1 and positions[-1] <= n and not any(map(ge, positions, positions[1:])):
        return None
    if min(positions) < 1 or max(positions) > n:
        return f"{name} must lie in 1..{n}"
    return f"{name} must be strictly increasing"


def _touchard_shape_fault(positions: tuple, core: DyckWord, colors: tuple) -> str | None:
    """Why well-typed fields do not fit as a ``TouchardDecomposition``: one slot per core letter, then the slots."""
    if len(positions) != len(core.text):
        return "positions must hold one slot per core letter"
    return _slots_fault(positions, len(positions) + len(colors), "positions")


def _motzkin_shape_fault(red_positions: tuple, core: MotzkinWord) -> str | None:
    """Why well-typed fields do not fit as a ``MotzkinDecomposition``: the slots, n = len(red_positions) + len(core)."""
    return _slots_fault(red_positions, len(red_positions) + len(core.text), "red positions")


def _touchard_fault(positions: tuple, core: DyckWord, colors: tuple) -> str | None:
    """Why these fields do not form a ``TouchardDecomposition``, or None if they do.

    The core must be exactly a DyckWord; positions and colors tuples; colors bools;
    positions ints; and then the fields must pass ``_touchard_shape_fault``.
    The first fault found, in that order, is the one named.
    """
    if core.__class__ is not DyckWord:
        return f"the core must be a DyckWord, not a {type(core).__name__}"
    if positions.__class__ is not tuple or colors.__class__ is not tuple:
        return "positions and colors must be tuples"
    if not _BOOL_ONLY.issuperset(map(type, colors)):
        return "colors must be bools"
    if not _INT_ONLY.issuperset(map(type, positions)):
        return "positions must be ints"
    return _touchard_shape_fault(positions, core, colors)


def _motzkin_fault(red_positions: tuple, core: MotzkinWord) -> str | None:
    """Why these fields do not form a ``MotzkinDecomposition``, or None if they do.

    The core must be exactly a MotzkinWord; red positions a tuple of ints; and
    then the fields must pass ``_motzkin_shape_fault``.  The first fault found,
    in that order, is the one named.
    """
    if core.__class__ is not MotzkinWord:
        return f"the core must be a MotzkinWord, not a {type(core).__name__}"
    if red_positions.__class__ is not tuple:
        return "red positions must be a tuple"
    if not _INT_ONLY.issuperset(map(type, red_positions)):
        return "red positions must be ints"
    return _motzkin_shape_fault(red_positions, core)


_new = object.__new__


def _field(values: Iterable, name: str, kind: str) -> tuple:
    """A decomposition field as a tuple, or InvalidDecomposition if ``values`` is not iterable."""
    try:
        values = iter(values)
    except TypeError:
        raise InvalidDecomposition(f"{name} must be an iterable of {kind}, not a {type(values).__name__}") from None
    return tuple(values)


@dataclass(frozen=True, init=False)
class TouchardDecomposition:
    """A G-word split by the support of its up/down letters.

    ``positions`` lists the 1-based slots of the 2k up/down letters,
    ``core`` is the Dyck word they spell, and ``colors`` the color of
    each remaining zero slot in position order (a bool, True = red).
    ``n``, the number of slots they fill, is derived: len(positions) + len(colors).
    There are binom(n, 2k) * C_k * 2^(n-2k) decompositions with |positions| = 2k.
    """

    # Declared rather than dataclass(slots=True), whose frozen __setattr__ raises
    # TypeError, not FrozenInstanceError, for a name that is not a field (Python 3.11).
    __slots__ = ("positions", "core", "colors")
    positions: tuple[int, ...]
    core: DyckWord
    colors: tuple[bool, ...]

    def __new__(cls, positions: Iterable[int], core: DyckWord, colors: Iterable[bool]):
        positions = _field(positions, "positions", "ints")
        colors = _field(colors, "colors", "bools")
        fault = _touchard_fault(positions, core, colors)
        if fault is not None:
            raise InvalidDecomposition(fault)
        return cls._trusted(positions, core, colors)

    @property
    def n(self) -> int:
        return len(self.positions) + len(self.colors)

    @classmethod
    def _trusted(cls, positions: tuple[int, ...], core: DyckWord, colors: tuple[bool, ...]):
        """A decomposition from fields the caller guarantees ``_touchard_fault`` passes."""
        decomposition = _new(cls)
        _set_positions(decomposition, positions)
        _set_core(decomposition, core)
        _set_colors(decomposition, colors)
        return decomposition

    def __reduce__(self):  # pickled and copied through the validating constructor, as words are
        return type(self), (self.positions, self.core, self.colors)


# The slots' own setters, past the frozen __setattr__.
_set_positions = TouchardDecomposition.positions.__set__
_set_core = TouchardDecomposition.core.__set__
_set_colors = TouchardDecomposition.colors.__set__


@dataclass(frozen=True, init=False)
class MotzkinDecomposition:
    """A G-word split by the support of its red zeros.

    ``red_positions`` lists the 1-based slots of the n-k red zeros and
    ``core`` is the Motzkin word left by the other letters (green zeros
    become flats).  ``n``, the number of slots they fill, is derived:
    len(red_positions) + len(core).  There are binom(n, k) * M_k
    decompositions whose core has length k.
    """

    __slots__ = ("red_positions", "core")
    red_positions: tuple[int, ...]
    core: MotzkinWord

    def __new__(cls, red_positions: Iterable[int], core: MotzkinWord):
        red_positions = _field(red_positions, "red positions", "ints")
        fault = _motzkin_fault(red_positions, core)
        if fault is not None:
            raise InvalidDecomposition(fault)
        return cls._trusted(red_positions, core)

    @property
    def n(self) -> int:
        return len(self.red_positions) + len(self.core.text)

    @classmethod
    def _trusted(cls, red_positions: tuple[int, ...], core: MotzkinWord):
        """A decomposition from fields the caller guarantees ``_motzkin_fault`` passes."""
        decomposition = _new(cls)
        _set_red_positions(decomposition, red_positions)
        _set_motzkin_core(decomposition, core)
        return decomposition

    def __reduce__(self):
        return type(self), (self.red_positions, self.core)


_set_red_positions = MotzkinDecomposition.red_positions.__set__
_set_motzkin_core = MotzkinDecomposition.core.__set__


# Tables over a G-word's encoded text.  The flags are 1 at an up/down letter
# (Touchard) or a red zero (Motzkin) and 0 at any other letter: the selectors
# of ``compress`` over the word's slots.
_STEP_FLAGS = bytes.maketrans(b"UDGR", b"\x01\x01\x00\x00")
_RED_FLAGS = bytes.maketrans(b"UDGR", b"\x00\x00\x00\x01")
_ZERO_COLORS = bytes.maketrans(b"GR", b"\x00\x01")  # with U and D deleted: one color per zero
_ZEROS_OF_COLORS = bytes.maketrans(b"\x00\x01", b"GR")
_COLOR_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # the colors field of a line
_GREEN_TO_FLAT = bytes.maketrans(b"G", b"H")  # with R deleted: the Motzkin core
_MOTZKIN_TO_G = str.maketrans("H", "G")


def touchard_split(word: GWord) -> TouchardDecomposition:
    """Extract the up/down support, the Dyck core, and the zero colors.

    The core is a Dyck word: dropping zeros keeps the sequence of prefix
    sums at the remaining letters.  The positions are increasing slots of
    the word, one per core letter, and the colors bools, one per other slot.
    """
    if not isinstance(word, GWord):
        raise _wrong_input(GWord, word)
    letters = word.text.encode()
    n = len(letters)
    return TouchardDecomposition._trusted(
        tuple(compress(range(1, n + 1), letters.translate(_STEP_FLAGS))),
        DyckWord._trusted(letters.translate(None, b"GR").decode()),
        tuple(map(bool, letters.translate(_ZERO_COLORS, b"UD"))),
    )


def touchard_merge(decomposition: TouchardDecomposition) -> GWord:
    """Reassemble the G-word; inverse of ``touchard_split``.

    Always yields a valid word: zeros do not move prefix sums, so the
    assembled sums are the core's sums stretched out.
    """
    if not isinstance(decomposition, TouchardDecomposition):
        raise _wrong_input(TouchardDecomposition, decomposition, InvalidDecomposition)
    zeros = bytes(decomposition.colors).translate(_ZEROS_OF_COLORS).decode()
    parts = []
    start = 0
    for i, (position, step) in enumerate(zip(decomposition.positions, decomposition.core.text)):
        stop = position - 1 - i  # the zeros before this slot
        parts += zeros[start:stop], step
        start = stop
    parts.append(zeros[start:])
    return GWord._trusted("".join(parts))


def motzkin_split(word: GWord) -> MotzkinDecomposition:
    """Record the red-zero slots and read the rest as a Motzkin word.

    Deleting red zeros keeps the prefix sums at the other letters, so
    the core is a Motzkin word.  The red positions are increasing slots of
    the word, one per letter the core lacks.
    """
    if not isinstance(word, GWord):
        raise _wrong_input(GWord, word)
    letters = word.text.encode()
    n = len(letters)
    return MotzkinDecomposition._trusted(
        tuple(compress(range(1, n + 1), letters.translate(_RED_FLAGS))),
        MotzkinWord._trusted(letters.translate(_GREEN_TO_FLAT, b"R").decode()),
    )


def motzkin_merge(decomposition: MotzkinDecomposition) -> GWord:
    """Reinsert the red zeros into the Motzkin core; inverse of ``motzkin_split``.

    Red zeros leave prefix sums unchanged, so the merge of any valid
    decomposition is a valid G-word.
    """
    if not isinstance(decomposition, MotzkinDecomposition):
        raise _wrong_input(MotzkinDecomposition, decomposition, InvalidDecomposition)
    core = decomposition.core.text.translate(_MOTZKIN_TO_G)
    pieces = []
    start = 0
    for i, red in enumerate(decomposition.red_positions):
        stop = red - 1 - i  # the core letters before this red zero
        pieces.append(core[start:stop])
        start = stop
    pieces.append(core[start:])
    return GWord._trusted("R".join(pieces))


_TOUCHARD_LINE = re.compile(r"positions=\[((?:[0-9]+(?:,[0-9]+)*)?)\];core=(\w*);colors=([01]*)")
_MOTZKIN_LINE = re.compile(r"red=\[((?:[0-9]+(?:,[0-9]+)*)?)\];core=(\w*)")


# CPython's default int-digit limit (``sys.get_int_max_str_digits()``, 3.10.7 and later).
_INT_DIGITS = 4300


def _parse_positions(text: str, other_slots: int) -> tuple[int, ...]:
    """The positions field of a line whose word has ``other_slots`` more slots.

    A field text of at most 4,300 characters, CPython's default int-digit limit,
    is converted as it is: no field in it is longer than the limit, and none
    costs much to convert.  In a longer text, or one with a field past a limit
    the caller lowered, no position exceeds n, the number of slots, so a field
    that keeps more than len(str(n)) digits after its leading zeros reads as
    n + 1, failing the same range check without a conversion whose time grows
    with the square of its length.
    """
    if len(text) <= _INT_DIGITS:
        try:
            return tuple(map(int, text.split(","))) if text else ()
        except ValueError:  # the only one a field of ASCII digits raises: past the int-digit limit
            pass
    fields = text.split(",")
    n = len(fields) + other_slots
    width = len(str(n))
    if max(map(len, fields)) <= width:
        return tuple(map(int, fields))
    fields = [p.lstrip("0") or "0" for p in fields]
    return tuple([int(p) if len(p) <= width else n + 1 for p in fields])


def format_touchard_decomposition(decomposition: TouchardDecomposition) -> str:
    """One-line form ``positions=[i,j,...];core=<word>;colors=<bits>``."""
    if not isinstance(decomposition, TouchardDecomposition):
        raise _wrong_input(TouchardDecomposition, decomposition, InvalidDecomposition)
    positions = ",".join(map(str, decomposition.positions))
    colors = bytes(decomposition.colors).translate(_COLOR_DIGITS).decode()
    return f"positions=[{positions}];core={decomposition.core.text};colors={colors}"


def parse_touchard_decomposition(line: str) -> TouchardDecomposition:
    """The decomposition that ``format_touchard_decomposition`` writes as ``line``.

    Any other line raises ``InvalidDecomposition``, or the core's ``WordError``.
    """
    if not isinstance(line, str):
        raise _wrong_input(str, line, InvalidDecomposition)
    match = _TOUCHARD_LINE.fullmatch(line)
    if match is None:
        raise InvalidDecomposition(f"cannot parse decomposition line {line!r}")
    positions, core, colors = match.groups()
    core = validate_dyck(core)
    colors = tuple(map("1".__eq__, colors))
    positions = _parse_positions(positions, len(colors))
    fault = _touchard_shape_fault(positions, core, colors)
    if fault is not None:
        raise InvalidDecomposition(fault)
    return TouchardDecomposition._trusted(positions, core, colors)


def format_motzkin_decomposition(decomposition: MotzkinDecomposition) -> str:
    """One-line form ``red=[i,...];core=<word>``."""
    if not isinstance(decomposition, MotzkinDecomposition):
        raise _wrong_input(MotzkinDecomposition, decomposition, InvalidDecomposition)
    reds = ",".join(map(str, decomposition.red_positions))
    return f"red=[{reds}];core={decomposition.core.text}"


def parse_motzkin_decomposition(line: str) -> MotzkinDecomposition:
    """The decomposition that ``format_motzkin_decomposition`` writes as ``line``.

    Any other line raises ``InvalidDecomposition``, or the core's ``WordError``.
    """
    if not isinstance(line, str):
        raise _wrong_input(str, line, InvalidDecomposition)
    match = _MOTZKIN_LINE.fullmatch(line)
    if match is None:
        raise InvalidDecomposition(f"cannot parse decomposition line {line!r}")
    red_positions, core = match.groups()
    core = validate_motzkin(core)
    red_positions = _parse_positions(red_positions, len(core.text))
    fault = _motzkin_shape_fault(red_positions, core)
    if fault is not None:
        raise InvalidDecomposition(fault)
    return MotzkinDecomposition._trusted(red_positions, core)
