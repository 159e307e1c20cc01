"""The text-based fast paths against the Letter-tuple reference they replace.

Exhaustive at small sizes: every word up to length 8 (semilength 9 for
Dyck words) through the enumerators, the validators and all ten ``map``
directions, with the same outputs and the same errors.
"""

import itertools

import pytest

import tuple_reference as ref
from touchard import (
    DyckWord,
    GWord,
    MotzkinWord,
    RestrictedGWord,
    enumerate_dyck,
    enumerate_g,
    enumerate_g_restricted,
    enumerate_motzkin,
    validate_dyck,
    validate_g,
    validate_g_restricted,
    validate_motzkin,
)
from touchard.cli import _MAP_FUNCTIONS, MAP_DIRECTIONS

ENUMERATORS = {
    "dyck": enumerate_dyck,
    "g": enumerate_g,
    "grestricted": enumerate_g_restricted,
    "motzkin": enumerate_motzkin,
}
VALIDATORS = {
    "dyck": validate_dyck,
    "g": validate_g,
    "grestricted": validate_g_restricted,
    "motzkin": validate_motzkin,
}
CLASSES = {"dyck": DyckWord, "g": GWord, "grestricted": RestrictedGWord, "motzkin": MotzkinWord}
FAMILY_ALPHABETS = {
    "dyck": ref.DYCK_ALPHABET,
    "g": ref.G_ALPHABET,
    "grestricted": ref.G_ALPHABET,
    "motzkin": ref.MOTZKIN_ALPHABET,
}


def outcome(fn, *args):
    """The value of ``fn(*args)`` as text, or the type and message of its error."""
    try:
        return ("ok", str(fn(*args)))
    except ValueError as exc:
        return (type(exc), str(exc))


def sizes(family):
    return range(10) if family == "dyck" else range(9)


@pytest.mark.parametrize("family", ENUMERATORS)
def test_enumerators_match_reference_order(family):
    for size in sizes(family):
        words = list(ENUMERATORS[family](size))
        assert all(type(word) is CLASSES[family] for word in words)
        assert [word.text for word in words] == [
            ref.text(letters) for letters in ref.enumerate_family(family, size)
        ]


def sequences(family):
    """Every sequence over all five letters up to length 5, and over the
    family's own alphabet up to length 8."""
    for length in range(6):
        yield from itertools.product(tuple(ref.Letter), repeat=length)
    for length in range(6, 9):
        yield from itertools.product(FAMILY_ALPHABETS[family], repeat=length)


@pytest.mark.parametrize("family", VALIDATORS)
def test_validators_match_reference(family):
    validate, check, cls = VALIDATORS[family], ref.CHECKS[family], CLASSES[family]

    def reference(letters):
        check(letters)
        return ref.text(letters)

    for letters in sequences(family):
        expected = outcome(reference, letters)
        text = ref.text(letters)
        assert outcome(validate, text) == expected, letters
        assert outcome(cls, text) == expected, letters


def test_text_validation_matches_reference_on_unknown_characters():
    for line in ("X", "UX", "DX", "UDx", "U D", "é", "UUDD\n", "HGX"):
        for family, validate in VALIDATORS.items():

            def reference(text):
                letters = ref.parse_letters(text)
                ref.CHECKS[family](letters)
                return text

            assert outcome(validate, line) == outcome(reference, line)


def map_inputs():
    """Valid words of every family up to length 8 (semilength 9), their
    decomposition lines, malformed words, and malformed lines."""
    lines = []
    for family in ENUMERATORS:
        for size in sizes(family):
            lines.extend(ref.text(letters) for letters in ref.enumerate_family(family, size))
    for n in range(9):
        for letters in ref.enumerate_family("g", n):
            lines.append(ref.format_touchard_line(*ref.touchard_split(letters)))
            lines.append(ref.format_motzkin_line(*ref.motzkin_split(letters)))
    for length in range(5):
        lines.extend("".join(chars) for chars in itertools.product("UDGRHX", repeat=length))
    lines += [
        "positions=[1];core=UD", "positions=[a];core=;colors=", "positions=[];core=DU;colors=",
        "positions=[1,3];core=UD;colors=", "positions=[3,1];core=UD;colors=0",
        "positions=[1,4];core=UD;colors=0", "positions=[0,2];core=UD;colors=",
        "positions=[2,1];core=UD;colors=", "positions=[3,0];core=UD;colors=", "positions=[5,1];core=UD;colors=000",
        "positions=[1,3];core=UX;colors=1", "positions=[1,2];core=UUDD;colors=",
        "red=1;core=", "red=[1];core=G", "red=[1,1];core=", "red=[0];core=", "red=[3];core=UD",
        "red=[2,1];core=H", "red=[];core=DU", "red=[];core=HHX", "red=[2];core=UHD", "red=[1];core=UUD",
    ]
    return lines


@pytest.mark.parametrize("direction", MAP_DIRECTIONS)
def test_map_directions_match_reference(direction):
    apply = _MAP_FUNCTIONS[direction]
    for line in map_inputs():
        assert outcome(apply, line) == outcome(ref.map_line, direction, line), line
