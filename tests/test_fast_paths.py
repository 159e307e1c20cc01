"""The text-based fast paths against the Letter-tuple reference they replace.

Exhaustive at small sizes: every word up to length 8 (semilength 9 for
Dyck words) through the enumerators, the validators and all ten ``map``
directions, with the same outputs and the same errors; and longer words,
of 9 to 2,000 letters, with up to three faults planted at random slots,
through the validators; ``pair_encode`` also on Dyck words of up to
10,000 letters.  The enumerator's
table of completions is also compared with its successor-only form, up to
length 10 to 13 (semilength 11), and at 20,000 letters, where it must
also stay within a small memory peak.  The splits, which build their results
unchecked, are compared with the validating constructors on every G-word
up to length 10, and the merges with the reference's on every valid
decomposition up to 7 slots.
"""

import itertools
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import tuple_reference as ref
from test_bijections import all_motzkin_decompositions, all_touchard_decompositions
from touchard import (
    DyckWord,
    GWord,
    MotzkinDecomposition,
    MotzkinWord,
    RestrictedGWord,
    TouchardDecomposition,
    catalan_to_g,
    enumerate_dyck,
    enumerate_g,
    enumerate_g_restricted,
    enumerate_motzkin,
    motzkin_merge,
    motzkin_split,
    pair_encode,
    sample_dyck,
    touchard_merge,
    touchard_split,
    validate_dyck,
    validate_g,
    validate_g_restricted,
    validate_motzkin,
)
from touchard.cli import MAP_DIRECTIONS, _line_function
from touchard.words import STEP, _completions, _paths

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


def long_word(family, size, seed):
    """A seeded valid word of ``family`` with about ``size`` letters (Dyck words have an even length)."""
    if family == "dyck":
        return sample_dyck((size + 1) // 2, seed).text
    if family == "grestricted":
        return pair_encode(sample_dyck(size, seed)).text
    text = catalan_to_g(sample_dyck(size + 1, seed)).text
    return text if family == "g" else text.translate(str.maketrans("GR", "HH"))


OTHER_FAMILIES_LETTERS = {"dyck": "GRH", "g": "H", "grestricted": "H", "motzkin": "GR"}
UNKNOWN_CHARACTERS = "Xu é\n0"
FAULTS = ("foreign", "unknown", "dip", "extra", "ground red")
WHERE = 2**32  # a fault's slot is where / WHERE of the way along the candidates


def plant(text, family, fault, where):
    """``text`` with one fault: a letter replaced by another family's letter or an
    unknown character, or a D (a dip), a family letter, or an R inserted; the D and
    the R go in at ground level."""
    if fault in ("dip", "ground red"):
        heights = itertools.accumulate((STEP.get(ch, 0) for ch in text), initial=0)  # an unknown character counts as flat
        grounds = [i for i, height in enumerate(heights) if height == 0]
        i = grounds[where * len(grounds) // WHERE]
        return text[:i] + ("D" if fault == "dip" else "R") + text[i:]
    i = where * len(text) // WHERE
    if fault == "extra":
        letters = FAMILY_ALPHABETS[family]
        return text[:i] + letters[where % len(letters)].symbol + text[i:]
    letters = OTHER_FAMILIES_LETTERS[family] if fault == "foreign" else UNKNOWN_CHARACTERS
    return text[:i] + letters[where % len(letters)] + text[i + 1 :]


@pytest.mark.parametrize("family", VALIDATORS)
@given(
    size=st.integers(9, 2000),
    seed=st.integers(0, 2**64 - 1),
    faults=st.lists(st.tuples(st.sampled_from(FAULTS), st.integers(0, WHERE - 1)), min_size=1, max_size=3),
)
@example(size=2000, seed=7, faults=[("dip", 0), ("foreign", WHERE - 1)])  # a foreign letter far after a dip
@example(size=2000, seed=7, faults=[("dip", WHERE - 1), ("foreign", 0)])  # a dip after a foreign letter
def test_long_words_with_planted_faults_match_reference(family, size, seed, faults):
    text = long_word(family, size, seed)
    for fault, where in faults:
        text = plant(text, family, fault, where)

    def reference(text):
        ref.CHECKS[family](ref.parse_letters(text))
        return text

    expected = outcome(reference, text)
    assert outcome(VALIDATORS[family], text) == expected
    assert outcome(CLASSES[family], text) == expected


def map_inputs():
    """Valid words of every family up to length 8 (semilength 9), their
    decomposition lines, malformed words, and malformed lines, some with
    several faults."""
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
        # Two or three faults: the one the reference names first must be the one reported.
        "positions=[2,1];core=DU;colors=", "positions=[2,1];core=UX;colors=", "positions=[5];core=UD;colors=",
        "positions=[3,1,9];core=UD;colors=0", "positions=[9,1];core=UD;colors=0", "positions=[0,0];core=UUD;colors=1",
        "red=[2,1];core=UUD", "red=[0,0];core=X", "red=[9,1];core=H", "red=[3,3];core=DU",
    ]
    return lines


@pytest.mark.parametrize("direction", MAP_DIRECTIONS)
def test_map_directions_match_reference(direction):
    apply = _line_function(direction)
    for line in map_inputs():
        assert outcome(apply, line) == outcome(ref.map_line, direction, line), line


def test_pair_encode_matches_reference_on_long_words():
    # pair_encode adds the pairs' letters as byte lanes of one integer: U^m D^m
    # puts long runs of zero lanes at its top, which writing it back must keep,
    # and the lane counts straddle a byte's 256 values.
    texts = [text for m in (1, 2, 255, 256, 257, 5000) for text in ("U" * m + "D" * m, "UD" * m)]
    texts += [sample_dyck(n, n).text for n in range(1, 3001, 15)]  # 200 words
    for text in texts:
        encoded = pair_encode(DyckWord(text))
        expected = ref.text(ref.pair_encode(ref.parse_letters(text)))
        assert (type(encoded), encoded.text) == (RestrictedGWord, expected), text[:40]


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


@pytest.mark.parametrize("family", PATH_FAMILIES)
def test_enumerator_streams_long_words_in_small_memory(family):
    # README promises O(length) memory: the first words at 20,000 letters
    # (Dyck semilength 10,000) must not keep a prefix string, or a stack
    # entry, per letter; the head's successor walk peaks at 0.2-0.4 MB.
    _, alphabet, ground_red_ok, _ = PATH_FAMILIES[family]
    tracemalloc.start()
    try:
        first = list(itertools.islice(_paths(20000, alphabet, ground_red_ok), 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == list(itertools.islice(ref.successor_paths(20000, alphabet, ground_red_ok), 3))
    assert peak < 1_000_000, peak


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


def test_splits_equal_the_validating_constructors_to_10():
    # The constructors check their fields (exact int positions, bool colors,
    # tuples, the core class) and derive n; equality then pins every field,
    # a tuple against a list included.
    for n in range(11):
        for word in enumerate_g(n):
            split = touchard_split(word)
            assert split == TouchardDecomposition(split.positions, split.core, split.colors), word
            assert split.n == n, word
            split = motzkin_split(word)
            assert split == MotzkinDecomposition(split.red_positions, split.core), word
            assert split.n == n, word


def test_merges_match_reference_on_every_decomposition_to_7():
    for n in range(8):
        for decomposition in all_touchard_decompositions(n):
            merged = touchard_merge(decomposition)
            core = ref.parse_letters(decomposition.core.text)
            expected = ref.touchard_merge(decomposition.n, decomposition.positions, core, decomposition.colors)
            assert (type(merged), merged.text) == (GWord, ref.text(expected)), decomposition
        for decomposition in all_motzkin_decompositions(n):
            merged = motzkin_merge(decomposition)
            core = ref.parse_letters(decomposition.core.text)
            expected = ref.motzkin_merge(decomposition.n, decomposition.red_positions, core)
            assert (type(merged), merged.text) == (GWord, ref.text(expected)), decomposition
