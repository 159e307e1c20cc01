"""Pair encoding, restriction lifting, and the two slot decompositions."""

import contextlib
import itertools
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from touchard import (
    DyckWord,
    GWord,
    InvalidDecomposition,
    MotzkinDecomposition,
    MotzkinWord,
    RestrictedGWord,
    TouchardDecomposition,
    WordError,
    catalan_to_g,
    drop_restriction,
    enumerate_dyck,
    enumerate_g,
    enumerate_g_restricted,
    enumerate_motzkin,
    format_motzkin_decomposition,
    format_touchard_decomposition,
    g_to_catalan,
    motzkin_merge,
    motzkin_split,
    pair_decode,
    pair_encode,
    parse_motzkin_decomposition,
    parse_touchard_decomposition,
    raise_restriction,
    sample_dyck,
    touchard_merge,
    touchard_split,
    validate_dyck,
    validate_g,
    validate_g_restricted,
    validate_motzkin,
)
from touchard.bijections import _motzkin_fault, _touchard_fault

dyck, gword, restricted = validate_dyck, validate_g, validate_g_restricted
STEP = {"U": 1, "D": -1, "G": 0, "R": 0}  # each letter's step in height, independent of the package


def prefix_sums(word):
    """Running heights of a word; entry i covers its first i + 1 letters."""
    return list(itertools.accumulate(STEP[ch] for ch in word.text))


def test_pair_encode_table():
    assert str(pair_encode(dyck("UD"))) == "G"
    assert str(pair_encode(dyck("UUDD"))) == "UD"
    assert str(pair_encode(dyck("UUDUDD"))) == "URD"


def test_pair_encode_rejects_empty():
    with pytest.raises(ValueError, match="^pair encoding needs at least one letter pair$"):
        pair_encode(dyck(""))


def test_pair_decode_table():
    assert str(pair_decode(restricted("G"))) == "UD"
    assert str(pair_decode(restricted("URD"))) == "UUDUDD"
    assert str(pair_decode(restricted("UGD"))) == "UUUDDD"


def test_drop_restriction_examples():
    assert str(drop_restriction(restricted("G"))) == ""
    assert str(drop_restriction(restricted("UD"))) == "R"
    assert str(drop_restriction(restricted("URD"))) == "RR"


def test_raise_restriction_examples():
    assert str(raise_restriction(gword("GG"))) == "GGG"
    assert str(raise_restriction(gword("R"))) == "UD"
    assert str(raise_restriction(gword("RR"))) == "URD"


def test_composed_maps_examples():
    assert str(catalan_to_g(dyck("UD"))) == ""
    assert str(catalan_to_g(dyck("UUDD"))) == "R"
    assert str(catalan_to_g(dyck("UDUD"))) == "G"
    assert str(g_to_catalan(gword("R"))) == "UUDD"
    assert str(g_to_catalan(gword(""))) == "UD"


def test_c4_maps_onto_g3():
    image = {catalan_to_g(w) for w in enumerate_dyck(4)}
    assert image == set(enumerate_g(3))
    assert all(catalan_to_g(g_to_catalan(u)) == u for u in enumerate_g(3))


def test_round_trips_exhaustive():
    for n in range(8):
        for w in enumerate_dyck(n + 1):
            assert pair_decode(pair_encode(w)) == w
        for v in enumerate_g_restricted(n + 1):
            assert pair_encode(pair_decode(v)) == v
            assert raise_restriction(drop_restriction(v)) == v
        for u in enumerate_g(n):
            assert drop_restriction(raise_restriction(u)) == u
            assert g_to_catalan(catalan_to_g(pair_decode(raise_restriction(u)))) == pair_decode(
                raise_restriction(u)
            )


def test_image_characterization():
    for n in range(8):
        encoded = {pair_encode(w) for w in enumerate_dyck(n + 1)}
        assert encoded == set(enumerate_g_restricted(n + 1))
        dropped = {drop_restriction(v) for v in enumerate_g_restricted(n + 1)}
        assert dropped == set(enumerate_g(n))


def test_half_sum_law():
    # The encoded word's prefix sums are half the even-position sums of
    # the Dyck word it came from.
    for w in enumerate_dyck(6):
        full = prefix_sums(w)
        half = prefix_sums(pair_encode(w))
        assert all(2 * half[i] == full[2 * i + 1] for i in range(len(half)))


def has_ground_level_red(word):
    height = 0
    for ch in word.text:
        if ch == "R" and height == 0:
            return True
        height += STEP[ch]
    return False


def test_case_disjointness():
    # Chop-case outputs never hold a ground-level red zero; arch-case
    # outputs always do, and raise_restriction dispatches on exactly that.
    for length in range(1, 9):
        for v in enumerate_g_restricted(length):
            dropped = drop_restriction(v)
            if v.text[-1] == "G":
                assert not has_ground_level_red(dropped)
            else:
                assert v.text[-1] == "D"
                assert has_ground_level_red(dropped)


def test_touchard_split_examples():
    d = touchard_split(gword("GG"))
    assert (d.n, d.positions, str(d.core), d.colors) == (2, (), "", (False, False))
    d = touchard_split(gword("URD"))
    assert (d.n, d.positions, str(d.core), d.colors) == (3, (1, 3), "UD", (True,))


def test_motzkin_split_examples():
    d = motzkin_split(gword("RR"))
    assert (d.n, d.red_positions, str(d.core)) == (2, (1, 2), "")
    d = motzkin_split(gword("URD"))
    assert (d.n, d.red_positions, str(d.core)) == (3, (2,), "UD")


def test_decompositions_are_slotted_and_survive_pickle_and_copy():
    import copy
    import pickle

    word = gword("URGDR")
    for decomposition in (
        touchard_split(word),
        motzkin_split(word),
        TouchardDecomposition((1, 3), dyck("UD"), (True,)),
        MotzkinDecomposition((2,), MotzkinWord("UD")),
    ):
        assert not hasattr(decomposition, "__dict__")
        clones = [pickle.loads(pickle.dumps(decomposition, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in (*clones, copy.copy(decomposition), copy.deepcopy(decomposition)):
            assert type(clone) is type(decomposition)
            assert clone == decomposition and hash(clone) == hash(decomposition), clone
            assert repr(clone) == repr(decomposition)
        for name in ("core", "n", "extra"):
            with pytest.raises(AttributeError):
                setattr(decomposition, name, None)


def test_copies_of_a_faulty_decomposition_are_rejected():
    # Built past the check, a faulty decomposition is checked again when it is
    # copied or unpickled: both go through the checking constructor.
    import copy
    import pickle

    unpickled = [lambda d, p=p: pickle.loads(pickle.dumps(d, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for decomposition, message in (
        (TouchardDecomposition._trusted((2, 1), DyckWord("UD"), ()), "positions must be strictly increasing"),
        (TouchardDecomposition._trusted((1, 2), DyckWord("UD"), (1,)), "colors must be bools"),
        (MotzkinDecomposition._trusted((1, 1), MotzkinWord("")), "red positions must be strictly increasing"),
    ):
        for clone in (copy.copy, copy.deepcopy, *unpickled):
            with pytest.raises(InvalidDecomposition) as raised:
                clone(decomposition)
            assert str(raised.value) == message, (decomposition, clone)


def test_split_merge_round_trips():
    for n in range(8):
        for u in enumerate_g(n):
            td = touchard_split(u)
            assert touchard_merge(td) == u
            assert touchard_split(touchard_merge(td)) == td
            md = motzkin_split(u)
            assert motzkin_merge(md) == u
            assert motzkin_split(motzkin_merge(md)) == md


def all_touchard_decompositions(n):
    for k in range(n // 2 + 1):
        for positions in itertools.combinations(range(1, n + 1), 2 * k):
            for core in enumerate_dyck(k):
                for colors in itertools.product((False, True), repeat=n - 2 * k):
                    yield TouchardDecomposition(positions, core, colors)


def all_motzkin_decompositions(n):
    for k in range(n + 1):
        for reds in itertools.combinations(range(1, n + 1), n - k):
            for core in enumerate_motzkin(k):
                yield MotzkinDecomposition(reds, core)


def test_merge_is_a_bijection_from_decompositions():
    # Every structurally valid decomposition merges to a distinct valid
    # word, and together they cover G_n: the set-level form of both
    # counting identities.
    for n in range(7):
        words = set(enumerate_g(n))
        for build, merge, split in (
            (all_touchard_decompositions, touchard_merge, touchard_split),
            (all_motzkin_decompositions, motzkin_merge, motzkin_split),
        ):
            decompositions = list(build(n))
            merged = [merge(d) for d in decompositions]
            assert len(set(merged)) == len(decompositions)
            assert set(merged) == words
            assert all(split(u) == d for d, u in zip(decompositions, merged))


def test_census_at_n3():
    by_semilength = {0: 0, 1: 0}
    by_core_len = [0, 0, 0, 0]
    for u in enumerate_g(3):
        by_semilength[touchard_split(u).core.semilength] += 1
        by_core_len[len(motzkin_split(u).core)] += 1
    assert by_semilength == {0: 8, 1: 6}
    assert by_core_len == [1, 3, 6, 4]


def test_split_census_at_n10_matches_identity_terms():
    from math import comb

    from touchard import catalan, motzkin_count

    n = 10
    by_semilength = [0] * (n // 2 + 1)
    by_core_len = [0] * (n + 1)
    for u in enumerate_g(n):
        by_semilength[touchard_split(u).core.semilength] += 1
        by_core_len[len(motzkin_split(u).core)] += 1
    assert by_semilength == [
        comb(n, 2 * k) * 2 ** (n - 2 * k) * catalan(k) for k in range(n // 2 + 1)
    ]
    assert by_core_len == [comb(n, k) * motzkin_count(k) for k in range(n + 1)]


class SubDyck(DyckWord):
    __slots__ = ()


class SubMotzkin(MotzkinWord):
    __slots__ = ()


# Constructor arguments each decomposition class rejects, with the message it gives.
INVALID_DECOMPOSITIONS = [
    (TouchardDecomposition, ((1,), dyck("UD"), (True,)),  # one slot for two letters
     "positions must hold one slot per core letter"),
    (TouchardDecomposition, ((1, 3), dyck("UD"), ()),  # missing color: position 3 lies beyond the word
     "positions must lie in 1..2"),
    (TouchardDecomposition, ((3, 1), dyck("UD"), (False,)), "positions must be strictly increasing"),
    (TouchardDecomposition, ((1, 4), dyck("UD"), (False,)), "positions must lie in 1..3"),
    (TouchardDecomposition, ([1, 2], validate_g("UD"), []),  # a G-word core
     "the core must be a DyckWord, not a GWord"),
    (TouchardDecomposition, ((), None, ()), "the core must be a DyckWord, not a NoneType"),
    (TouchardDecomposition, ((1, 2), SubDyck("UD"), ()), "the core must be a DyckWord, not a SubDyck"),
    (TouchardDecomposition, (("1", "2"), dyck("UD"), ()), "positions must be ints"),  # strings
    (TouchardDecomposition, ((True, 2), dyck("UD"), ()), "positions must be ints"),  # a bool
    (TouchardDecomposition, ((1.0, 2), dyck("UD"), ()), "positions must be ints"),  # a float
    # a string, None and an int
    *((TouchardDecomposition, ((1, 2), dyck("UD"), colors), "colors must be bools")
      for colors in (["0"], [None, 2], (1,))),
    (MotzkinDecomposition, ((2, 2), MotzkinWord("")), "red positions must be strictly increasing"),  # duplicate
    (MotzkinDecomposition, ((0, 1), MotzkinWord("")), "red positions must lie in 1..2"),
    (MotzkinDecomposition, ((), validate_g_restricted("URD")),  # a restricted-word core
     "the core must be a MotzkinWord, not a RestrictedGWord"),
    (MotzkinDecomposition, ((), None), "the core must be a MotzkinWord, not a NoneType"),
    (MotzkinDecomposition, ((), SubMotzkin("UD")), "the core must be a MotzkinWord, not a SubMotzkin"),
    (MotzkinDecomposition, ((True,), validate_motzkin("")), "red positions must be ints"),  # a bool
]


def test_invalid_decompositions():
    for cls, args, message in INVALID_DECOMPOSITIONS:
        with pytest.raises(InvalidDecomposition) as raised:
            cls(*args)
        assert str(raised.value) == message, args


def test_structure_checks_give_the_constructors_verdicts():
    # _touchard_fault and _motzkin_fault, which verify runs on each split it
    # walks, name every fault the constructors raise on, with the same message;
    # and they also reject fields that the constructors would have converted.
    for cls, args, message in INVALID_DECOMPOSITIONS:
        if cls is TouchardDecomposition:
            assert _touchard_fault(tuple(args[0]), args[1], tuple(args[2])) == message, args
        else:
            assert _motzkin_fault(tuple(args[0]), args[1]) == message, args
    core = dyck("UD")
    assert _touchard_fault((1, 2), core, (False,)) is None
    assert _touchard_fault([1, 2], core, (False,)) == "positions and colors must be tuples"
    assert _touchard_fault((1, 2), core, [False]) == "positions and colors must be tuples"
    assert _motzkin_fault((2,), MotzkinWord("UD")) is None
    assert _motzkin_fault([2], MotzkinWord("UD")) == "red positions must be a tuple"


def test_maps_reject_words_of_other_families():
    # Each map takes the word class listed with it, subclasses included, and
    # raises WordError on a word of any other family.
    words = (validate_dyck("UD"), validate_g(""), validate_g("R"), validate_g_restricted("URD"),
             validate_motzkin("UHD"))
    for fn, takes in (
        (pair_encode, DyckWord),
        (catalan_to_g, DyckWord),
        (pair_decode, RestrictedGWord),
        (drop_restriction, RestrictedGWord),
        (raise_restriction, GWord),
        (g_to_catalan, GWord),
        (touchard_split, GWord),
        (motzkin_split, GWord),
    ):
        for word in words:
            if isinstance(word, takes):
                fn(word)
            else:
                with pytest.raises(WordError, match=f"expected a {takes.__name__}"):
                    fn(word)
    # The merges and the line formatters take only their own decomposition type.
    word = validate_g("URD")
    for merge, format_line, own, other in (
        (touchard_merge, format_touchard_decomposition, touchard_split(word), motzkin_split(word)),
        (motzkin_merge, format_motzkin_decomposition, motzkin_split(word), touchard_split(word)),
    ):
        assert merge(own) == word
        for fn in (merge, format_line):
            for wrong in (other, word, "x"):
                with pytest.raises(InvalidDecomposition, match="^expected a"):
                    fn(wrong)


def test_decomposition_line_formats():
    assert format_touchard_decomposition(touchard_split(gword("URD"))) == "positions=[1,3];core=UD;colors=1"
    assert format_touchard_decomposition(touchard_split(gword("GG"))) == "positions=[];core=;colors=00"
    assert format_motzkin_decomposition(motzkin_split(gword("URD"))) == "red=[2];core=UD"
    assert format_motzkin_decomposition(motzkin_split(gword("RR"))) == "red=[1,2];core="


def test_decomposition_line_round_trips():
    for u in enumerate_g(4):
        td = touchard_split(u)
        assert parse_touchard_decomposition(format_touchard_decomposition(td)) == td
        md = motzkin_split(u)
        assert parse_motzkin_decomposition(format_motzkin_decomposition(md)) == md


def test_decomposition_parse_errors():
    for line in ("", "positions=[1];core=UD", "positions=[a];core=;colors=", "red=1;core="):
        with pytest.raises(InvalidDecomposition):
            parse_touchard_decomposition(line)
    # Empty position fields, which the formats never write, do not parse.
    for line in ("positions=[1,,3];core=UD;colors=0", "positions=[,1,3,];core=UD;colors=0",
                 "positions=[,];core=;colors=00"):
        with pytest.raises(InvalidDecomposition, match="cannot parse decomposition line"):
            parse_touchard_decomposition(line)
    for line in ("red=[,];core=", "red=[1,];core=", "red=[,1];core="):
        with pytest.raises(InvalidDecomposition, match="cannot parse decomposition line"):
            parse_motzkin_decomposition(line)
    # Positions are ASCII digits only: Arabic-Indic and fullwidth digits do not parse.
    with pytest.raises(InvalidDecomposition, match="cannot parse decomposition line"):
        parse_touchard_decomposition("positions=[\u0661,\u0662];core=UD;colors=")
    with pytest.raises(InvalidDecomposition, match="cannot parse decomposition line"):
        parse_motzkin_decomposition("red=[\uff12];core=UD")
    with pytest.raises(ValueError):
        parse_motzkin_decomposition("red=[1];core=G")  # G is not a Motzkin letter
    with pytest.raises(ValueError):
        parse_touchard_decomposition("positions=[];core=DU;colors=")  # invalid core
    # A line is a str.
    with pytest.raises(InvalidDecomposition, match="^expected a str, not a int$"):
        parse_touchard_decomposition(5)
    with pytest.raises(InvalidDecomposition, match="^expected a str, not a NoneType$"):
        parse_motzkin_decomposition(None)


@given(fields=st.lists(st.text("0123456789", min_size=1, max_size=12), max_size=6), flats=st.integers(0, 12))
def test_position_fields_parse_as_their_values(fields, flats):
    # The parser reads a field longer than n's digits without converting it whole; the
    # decomposition (or its error) must be the one the fields' exact values give.
    core = MotzkinWord("H" * flats)
    line = f"red=[{','.join(fields)}];core={core}"
    try:
        expected = MotzkinDecomposition(map(int, fields), core)
    except InvalidDecomposition as exc:
        with pytest.raises(InvalidDecomposition) as raised:
            parse_motzkin_decomposition(line)
        assert str(raised.value) == str(exc)
    else:
        assert parse_motzkin_decomposition(line) == expected


@contextlib.contextmanager
def int_digit_limit(limit):
    """Run with CPython's int-digit limit set to ``limit`` (0 lifts it); an interpreter without one has none to set."""
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def padded(fields, length):
    """``fields`` with the first zero-padded so that their text, joined by commas, has ``length`` characters."""
    short = length - len(",".join(fields))
    return [fields[0].zfill(len(fields[0]) + short), *fields[1:]]


@pytest.mark.parametrize("limit", [4300, 0, 640], ids=["default-limit", "limit-lifted", "limit-lowered"])
@pytest.mark.parametrize("length", [4299, 4300, 4301])
def test_position_fields_parse_as_their_values_either_side_of_the_digit_limit(length, limit):
    # A field text of at most 4,300 characters is converted as it is; a longer one,
    # or one with a field past a lowered limit (640 is the least CPython allows),
    # is stripped of leading zeros and capped.  Either way, and whatever the
    # int-digit limit, the result must be the one the fields' exact values give.
    run = [str(i) for i in range(1, 1001)]  # 3,892 characters
    cases = [
        ["1".zfill(length)],  # one field, all leading zeros
        ["9" * length],  # one over-wide field
        padded(run, length),  # 1..1000, the first zero-padded
        padded(run[:500] + ["9" * 20] + run[501:], length),  # one over-wide field among them
        padded(["7"] + run[1:], length),  # zero-padded and misordered
    ]
    core = MotzkinWord("HHH")
    for fields in cases:
        line = f"red=[{','.join(fields)}];core={core}"
        assert len(line) == length + len("red=[];core=HHH")
        with int_digit_limit(0):
            try:
                expected = MotzkinDecomposition(map(int, fields), core)
            except InvalidDecomposition as exc:
                expected = str(exc)
        with int_digit_limit(limit):
            try:
                parsed = parse_motzkin_decomposition(line)
            except InvalidDecomposition as exc:
                parsed = str(exc)
        assert parsed == expected, fields[0][-20:]


# Semilengths far past the exhaustive range (10) of the other tests.
random_dyck = st.builds(sample_dyck, st.integers(1, 200), st.integers(0, 2**64 - 1))


@given(word=random_dyck)
def test_encode_round_trip_on_random_words(word):
    encoded = pair_encode(word)
    assert len(encoded) == word.semilength
    assert pair_decode(encoded) == word
    full = prefix_sums(word)
    half = prefix_sums(encoded)
    assert all(2 * half[i] == full[2 * i + 1] for i in range(len(half)))


@given(word=random_dyck)
def test_composed_round_trip_on_random_words(word):
    assert g_to_catalan(catalan_to_g(word)) == word


def revalidated(word, validate):
    """``word`` after the public validator has checked its text (under ``-O`` too)."""
    checked = validate(word.text)
    assert checked == word
    return checked


@given(word=random_dyck)
def test_every_map_pair_on_random_words(word):
    encoded = revalidated(pair_encode(word), validate_g_restricted)
    assert revalidated(pair_decode(encoded), validate_dyck) == word
    grown = revalidated(catalan_to_g(word), validate_g)
    assert revalidated(g_to_catalan(grown), validate_dyck) == word
    raised = revalidated(raise_restriction(grown), validate_g_restricted)
    assert revalidated(drop_restriction(raised), validate_g) == grown
    split = touchard_split(grown)
    revalidated(split.core, validate_dyck)
    assert revalidated(touchard_merge(split), validate_g) == grown
    split = motzkin_split(grown)
    revalidated(split.core, validate_motzkin)
    assert revalidated(motzkin_merge(split), validate_g) == grown
