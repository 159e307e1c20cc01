"""The text-based fast paths against the Letter-tuple reference they replace.

Exhaustive at small sizes: every word up to length 8 (semilength 9 for
Dyck words) through the enumerators, the validators and all ten ``map``
directions, with the same outputs and the same errors.  The enumerator's
table of completions is also compared with its successor-only form, up to
length 10 to 13 (semilength 11).
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
from touchard.words import _completions, _paths

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


# The largest sizes put 4 to 8 head letters before the tail of _paths's
# table (G 6 letters, restricted 7, Motzkin 8, Dyck 14); the smallest have
# no head, or a head of one letter.
PATH_FAMILIES = {
    "dyck": (enumerate_dyck, DyckWord._alphabet, True, range(12)),
    "g": (enumerate_g, GWord._alphabet, True, range(11)),
    "grestricted": (enumerate_g_restricted, RestrictedGWord._alphabet, False, range(1, 12)),
    "motzkin": (enumerate_motzkin, MotzkinWord._alphabet, True, range(14)),
}


@pytest.mark.parametrize("family", PATH_FAMILIES)
def test_completion_table_matches_successor_reference(family):
    enumerate_family, alphabet, ground_red_ok, sizes_ = PATH_FAMILIES[family]
    for size in sizes_:
        length = 2 * size if family == "dyck" else size
        expected = list(ref.successor_paths(length, alphabet, ground_red_ok))
        assert list(_paths(length, alphabet, ground_red_ok)) == expected, size
        assert [word.text for word in enumerate_family(size)] == expected, size
    assert [word.text for word in itertools.islice(enumerate_family(1500), 3)] == list(
        itertools.islice(ref.successor_paths(3000 if family == "dyck" else 1500, alphabet, ground_red_ok), 3)
    )


def test_completion_table_size():
    tails = {
        (alphabet, ground_red_ok): _completions(100, alphabet, ground_red_ok)
        for _, alphabet, ground_red_ok, _ in PATH_FAMILIES.values()
    }
    assert {key: (tail, sum(map(len, table))) for key, (tail, table) in tails.items()} == {
        ("UD", True): (14, 3432),
        ("UGRD", True): (6, 1716),
        ("UGRD", False): (7, 3432),
        ("UHD", True): (8, 2123),
    }
    assert _completions(3, "UGRD", True)[0] == 3  # never longer than the word
