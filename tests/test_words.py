"""Word types, validation, enumeration, text codec, and sampling."""

import itertools
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from touchard import (
    BadAlphabet,
    DyckWord,
    GWord,
    Letter,
    MotzkinWord,
    NegativePrefix,
    NotBalanced,
    RedZeroAtGroundLevel,
    RestrictedGWord,
    SplitMix64,
    WordError,
    catalan,
    enumerate_dyck,
    enumerate_g,
    enumerate_g_restricted,
    enumerate_motzkin,
    motzkin_count,
    parse_letters,
    prefix_sums,
    sample_dyck,
    validate_dyck,
    validate_g,
    validate_g_restricted,
    validate_motzkin,
)
from tuple_reference import DYCK_ALPHABET, G_ALPHABET, MOTZKIN_ALPHABET

U, D, G, R, H = Letter.UP, Letter.DOWN, Letter.GREEN_ZERO, Letter.RED_ZERO, Letter.FLAT


# Independent validity predicate used as the brute-force oracle: it works
# from the letter values alone and never calls the validators.
def plain_valid(seq):
    total = 0
    for letter in seq:
        total += letter.step
        if total < 0:
            return False
    return total == 0


def restricted_valid(seq):
    if not seq:
        return False
    total = 0
    for letter in seq:
        if letter is R and total == 0:
            return False
        total += letter.step
    return plain_valid(seq)


def test_letter_values():
    assert [letter.step for letter in (U, D, G, R, H)] == [1, -1, 0, 0, 0]
    assert [letter.symbol for letter in (U, D, G, R, H)] == ["U", "D", "G", "R", "H"]


def test_prefix_sums_examples():
    assert prefix_sums([]) == []
    assert prefix_sums([U, D]) == [1, 0]
    assert prefix_sums([U, R, D]) == [1, 1, 0]


def test_validate_dyck_accepts_arch():
    word = validate_dyck([U, D])
    assert isinstance(word, DyckWord)
    assert word.semilength == 1
    assert str(word) == "UD"


def test_validate_dyck_rejections():
    with pytest.raises(NegativePrefix):
        validate_dyck([D, U])
    with pytest.raises(NotBalanced):
        validate_dyck([U, U, D])
    with pytest.raises(BadAlphabet):
        validate_dyck([U, G, D])
    with pytest.raises(BadAlphabet):
        validate_dyck([U, H, D])
    # Items of an iterable must be Letter members: their symbols as strings are not.
    for letters in (list("UD"), [U, "D"], [U, None]):
        with pytest.raises(BadAlphabet, match="is not a Letter"):
            DyckWord(letters)


def test_validate_g_and_restricted():
    assert isinstance(validate_g([G, R]), GWord)
    with pytest.raises(RedZeroAtGroundLevel):
        validate_g_restricted([G, R])
    word = validate_g_restricted([U, R, D])
    assert isinstance(word, RestrictedGWord)
    assert isinstance(word, GWord)
    with pytest.raises(WordError):
        validate_g_restricted([])
    with pytest.raises(BadAlphabet):
        validate_g([U, H, D])


def test_validate_motzkin():
    assert isinstance(validate_motzkin([U, H, D]), MotzkinWord)
    with pytest.raises(BadAlphabet):
        validate_motzkin([G])
    with pytest.raises(NotBalanced):
        validate_motzkin([U])


def test_direct_construction_checks_in_debug():
    with pytest.raises(NegativePrefix):
        GWord((D, U))
    with pytest.raises(RedZeroAtGroundLevel):
        RestrictedGWord((R,))


def test_words_are_hashable_and_type_distinct():
    dyck = validate_dyck([U, D])
    g = validate_g([U, D])
    assert dyck != g
    assert len({dyck, g, validate_dyck([U, D])}) == 2
    with pytest.raises(AttributeError):
        dyck.letters = ()
    with pytest.raises(AttributeError):
        dyck.text = "UUDD"
    with pytest.raises(AttributeError):
        del dyck.text


def test_words_survive_pickle_and_copy():
    import copy
    import pickle

    for word in (validate_dyck([U, D]), validate_g_restricted([U, R, D]), validate_motzkin([H])):
        for clone in (pickle.loads(pickle.dumps(word)), copy.copy(word), copy.deepcopy(word)):
            assert type(clone) is type(word) and clone == word


def test_enumerate_dyck_small():
    assert [str(w) for w in enumerate_dyck(0)] == [""]
    assert [str(w) for w in enumerate_dyck(2)] == ["UUDD", "UDUD"]
    assert sum(1 for _ in enumerate_dyck(5)) == 42


def test_enumerate_dyck_counts_match_catalan():
    for n in range(13):
        assert sum(1 for _ in enumerate_dyck(n)) == catalan(n)


def test_enumerate_g_small():
    assert [str(w) for w in enumerate_g(1)] == ["G", "R"]
    assert [str(w) for w in enumerate_g(2)] == ["UD", "GG", "GR", "RG", "RR"]
    for n in range(8):
        assert sum(1 for _ in enumerate_g(n)) == catalan(n + 1)


def test_enumerate_g_restricted_counts():
    assert list(enumerate_g_restricted(0)) == []
    for length in range(1, 10):
        words = list(enumerate_g_restricted(length))
        assert len(words) == catalan(length)
        assert all(isinstance(w, RestrictedGWord) for w in words)
    for length in range(10, 13):
        assert sum(1 for _ in enumerate_g_restricted(length)) == catalan(length)


def test_enumerate_motzkin_matches_brute_force():
    for k in range(9):
        key = {letter: MOTZKIN_ALPHABET.index(letter) for letter in MOTZKIN_ALPHABET}
        expected = sorted(
            (seq for seq in itertools.product(MOTZKIN_ALPHABET, repeat=k) if plain_valid(seq)),
            key=lambda seq: [key[letter] for letter in seq],
        )
        assert [w.letters for w in enumerate_motzkin(k)] == expected
    assert sum(1 for _ in enumerate_motzkin(3)) == 4


def test_enumerate_motzkin_counts():
    for k in range(15):
        assert sum(1 for _ in enumerate_motzkin(k)) == motzkin_count(k)


def test_enumerators_agree_with_validators_up_to_length_8():
    # A sequence is yielded iff the validator accepts it.
    for length in range(9):
        g_set = {w.letters for w in enumerate_g(length)}
        res_set = {w.letters for w in enumerate_g_restricted(length)}
        for seq in itertools.product(G_ALPHABET, repeat=length):
            assert (seq in g_set) == plain_valid(seq)
            assert (seq in res_set) == restricted_valid(seq)
        dyck_set = (
            {w.letters for w in enumerate_dyck(length // 2)} if length % 2 == 0 else set()
        )
        for seq in itertools.product(DYCK_ALPHABET, repeat=length):
            assert (seq in dyck_set) == plain_valid(seq)


def test_enumeration_order_is_lexicographic():
    key = {letter: G_ALPHABET.index(letter) for letter in G_ALPHABET}
    for n in range(7):
        words = [[key[letter] for letter in w.letters] for w in enumerate_g(n)]
        assert words == sorted(words)
    for n in range(7):
        words = [[DYCK_ALPHABET.index(letter) for letter in w.letters] for w in enumerate_dyck(n)]
        assert words == sorted(words)


def test_long_enumeration_needs_no_recursion():
    assert str(next(enumerate_g(1500))) == "U" * 750 + "D" * 750


def test_enumeration_streams_are_independent():
    first = enumerate_g(3)
    second = enumerate_g(3)
    interleaved = [next(first), next(second), next(first), next(second)]
    assert interleaved[0] == interleaved[1]
    assert interleaved[2] == interleaved[3]
    assert list(first) == list(second)


def test_prefix_sums_of_valid_words():
    for w in enumerate_g(5):
        sums = prefix_sums(w.letters)
        assert all(s >= 0 for s in sums)
        assert not sums or sums[-1] == 0


def test_parse_letters():
    assert parse_letters("UDGRH") == (U, D, G, R, H)
    assert parse_letters("") == ()
    with pytest.raises(BadAlphabet):
        parse_letters("UXD")
    with pytest.raises(BadAlphabet):
        parse_letters("u d")


def test_str_parse_roundtrip():
    for w in enumerate_g(4):
        assert validate_g(parse_letters(str(w))) == w


def test_splitmix64_reference_vector():
    # First outputs for seed 0, as published for the reference C version.
    rng = SplitMix64(0)
    assert [rng.next_uint64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_below_bounds():
    rng = SplitMix64(12345)
    draws = [rng.below(7) for _ in range(2000)]
    assert set(draws) == set(range(7))
    with pytest.raises(ValueError):
        rng.below(0)


def test_sample_dyck_trivial_and_deterministic():
    assert str(sample_dyck(0, 99)) == ""
    for seed in range(20):
        assert str(sample_dyck(1, seed)) == "UD"
    assert sample_dyck(9, 424242) == sample_dyck(9, 424242)


def test_sample_dyck_covers_c4():
    seen = {str(sample_dyck(4, seed)) for seed in range(2000)}
    assert seen == {str(w) for w in enumerate_dyck(4)}


def test_sample_dyck_spread_over_c6():
    # Deterministic sweep: all 132 words appear and no word is wildly
    # over- or under-drawn.  (Measured extremes for this fixed generator:
    # max 100, min 52.  A perfectly uniform sampler cannot promise a much
    # tighter max/min ratio at 10000 draws over 132 cells.)
    counts = Counter(str(sample_dyck(6, seed)) for seed in range(10000))
    assert len(counts) == 132
    assert max(counts.values()) / min(counts.values()) < 2.0


@given(n=st.integers(0, 10), seed=st.integers(0, 2**64 - 1))
def test_sample_dyck_is_valid_and_reproducible(n, seed):
    word = sample_dyck(n, seed)
    assert word.semilength == n
    assert validate_dyck(word.letters) == word
    assert sample_dyck(n, seed) == word


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        list(enumerate_dyck(-1))
    with pytest.raises(ValueError):
        list(enumerate_g(-1))
    with pytest.raises(ValueError):
        list(enumerate_g_restricted(-1))
    with pytest.raises(ValueError):
        list(enumerate_motzkin(-1))
    with pytest.raises(ValueError):
        sample_dyck(-1, 0)
